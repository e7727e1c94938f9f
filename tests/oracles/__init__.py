"""Retired implementations the tests compare live code with, one module per
layer; each module names the commit that retired what it keeps."""

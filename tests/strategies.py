"""Hypothesis strategies that more than one test module draws from, and the
product of Gaussian-rational polynomials that builds their planted roots.

``rationals`` and ``gaussians`` feed the root finders' tests;
``small_rationals`` and ``scalars`` feed the polynomial kernels' tests.
"""

from fractions import Fraction

from hypothesis import strategies as st

from detvar.scalars import ExactComplex

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
gaussians = st.builds(ExactComplex, rationals, rationals)

small_rationals = st.builds(Fraction, st.integers(-9, 9),
                            st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12, 35]))
scalars = st.builds(ExactComplex, small_rationals, small_rationals)


def ec_mul(a, b):
    """The product of two polynomials over Q(i), ascending coefficient
    lists of ExactComplex."""
    out = [ExactComplex(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out

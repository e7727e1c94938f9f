"""The binary decision of the Macaulay certificate against the Macaulay rank.

Where the minors live in two variables (m = 3 on the certificate's
hyperplane, m = 2 in the Empty test of verify_lu_covariance),
``modp.binary_minors_coprime`` decides from a gcd of the interpolated
minors what full column rank of their degree-(2n - 1) Macaulay matrix
decides.  Here the two are compared on drawn reduced binary pencils at
small primes and at RANK_PRIME: generic pencils, pencils with a planted
common zero (1 : s_0), with a planted zero at infinity (the x_1
coefficients have rank below n) and with every minor zero.  Analyses of
the two-variable goldens expand no minor and take no rank, and their
certificates are the pinned ones; the three-variable Empty test still
does both.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detvar.modp as modp_mod
import detvar.variety as variety_mod
from detvar.modp import RANK_PRIME, binary_minors_coprime, macaulay_full_rank
from detvar.states import random_local_unitary, random_mixed
from detvar.variety import verify_lu_covariance
from oracles.modp import _minors_mod_p, dict_macaulay_full_rank
from pinned import CASES, GOLDEN, rendered_report

SETTINGS = settings(max_examples=400)


def _plant(forms, w, point, coeff, p):
    """Make w^T N(point) = 0, where point[coeff] is 1, by solving for
    coefficient `coeff` of the entries of a row k with w_k != 0."""
    k = next(i for i, x in enumerate(w) if x)
    inv = pow(w[k], -1, p)
    for col, entry in enumerate(forms[k]):
        entry[coeff] = 0
        total = sum(x * (row[col][0] * point[0] + row[col][1] * point[1])
                    for x, row in zip(w, forms))
        entry[coeff] = -total * inv % p


@st.composite
def binary_pencils(draw):
    """(forms, n, p, kind): an n x t reduced binary pencil, each entry the
    coefficient pair (c_0, c_1) of c_0 x_0 + c_1 x_1."""
    p = draw(st.sampled_from([13, 17, 29, RANK_PRIME]))
    n = draw(st.integers(1, 5))
    t = draw(st.integers(n, n + 3))
    residues = st.integers(0, p - 1)
    forms = [[[draw(residues), draw(residues)] for _ in range(t)] for _ in range(n)]
    kind = draw(st.sampled_from(["generic", "finite zero", "zero at infinity", "zero minors"]))
    if kind != "generic":
        w = [draw(residues) for _ in range(n)]
        if not any(w):
            w[draw(st.integers(0, n - 1))] = 1
    if kind == "finite zero":  # w^T N(1, s0) = 0
        s0 = draw(residues)
        _plant(forms, w, (1, s0), 0, p)
    elif kind == "zero at infinity":  # w^T N(0, 1) = 0
        _plant(forms, w, (0, 1), 1, p)
    elif kind == "zero minors":  # w^T N(1, 0) = w^T N(0, 1) = 0
        _plant(forms, w, (1, 0), 0, p)
        _plant(forms, w, (0, 1), 1, p)
    return forms, n, p, kind


@SETTINGS
@given(binary_pencils())
def test_binary_decision_matches_the_macaulay_rank(case):
    forms, n, p, kind = case
    residues = np.array(forms, dtype=np.int64)
    coprime = binary_minors_coprime(residues, n, p)
    assert coprime == dict_macaulay_full_rank(_minors_mod_p(forms, p), 2, 2 * n - 1, p)
    assert coprime == macaulay_full_rank(residues, n, 2 * n - 1, p)
    if kind != "generic":
        assert not coprime


def test_binary_decision_on_small_cases():
    x, y, zero = [1, 0], [0, 1], [0, 0]

    def coprime(forms, n):
        return binary_minors_coprime(np.array(forms, dtype=np.int64), n, 13)

    # the 1 x 1 minors x and y share no zero; x and 2x share (0 : 1), the
    # point at infinity; zero minors share every point
    assert coprime([[x, y]], 1)
    assert not coprime([[x, [2, 0]]], 1)
    assert not coprime([[zero, zero]], 1)
    # det [[x, y], [y, x]] = x^2 - y^2 vanishes at (1 : 1) and (1 : -1);
    # the minors x^2, xy, y^2 of [[x, y, 0], [0, x, y]] share no zero
    assert not coprime([[x, y], [y, x]], 2)
    assert coprime([[x, y, zero], [zero, x, y]], 2)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count Macaulay tests and ranks taken modulo p."""
    calls = {"macaulay_full_rank": 0, "rank_mod_p": 0}

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(variety_mod, "macaulay_full_rank")
    spy(modp_mod, "rank_mod_p")
    return calls


@pytest.mark.parametrize("name", ["finite_v_3x3_r4", "separable_3x4_t5"])
def test_two_variable_certificate_expands_no_minor(kernel_calls, name):
    pinned = (GOLDEN / f"{name}.report.json").read_text()
    rendered = rendered_report(CASES[name])
    assert kernel_calls == {"macaulay_full_rank": 0, "rank_mod_p": 0}
    verdict = json.loads(rendered)["verdict"]
    assert verdict["tag"] == "Finite" and verdict["certificate"]["kind"] == "macaulay"
    assert verdict["certificate"] == json.loads(pinned)["verdict"]["certificate"]
    assert rendered == pinned


def test_three_variable_empty_test_keeps_the_macaulay_rank(kernel_calls):
    rendered = rendered_report(CASES["separable_3x3_t5"])
    assert json.loads(rendered)["verdict"]["tag"] == "Empty"
    assert kernel_calls["macaulay_full_rank"] >= 1 and kernel_calls["rank_mod_p"] >= 1


@pytest.mark.parametrize("seed", [0, 1])
def test_binary_empty_test_of_the_covariance_check_expands_no_minor(kernel_calls, seed):
    res = verify_lu_covariance(random_mixed(2, 2, 3, seed=seed),
                               random_local_unitary(2, 2, seed=seed + 100), samples=3, seed=42)
    assert res.ok and res.checked == 0
    assert kernel_calls == {"macaulay_full_rank": 0, "rank_mod_p": 0}

"""Minors modulo a prime against the expansion modp used to keep.

This file keeps, verbatim, the ``maximal_minors`` that ``detvar.modp`` ran
before the Macaulay test took its minors from multipoly's Laplace
expansion on the integers (``variety._minors_mod_p``): a memoized
expansion along the first row with a reduction modulo p after every
minor.  The shared kernel reduces each maximal minor once, at the end, so
the two must agree as dicts {packed monomial: residue in [0, p)}, in the
same column-subset order, on every pencil the test sees: exact and float
pencils, pencils restricted to a hyperplane, zero entries, all-zero rows,
n = 1 and n = t.  Each case runs at two primes: ``RANK_PRIME``, where
every product already leaves [0, p), and 13, where coefficients of the
integer minors vanish modulo p though not over Z, so a missing final
reduction shows as a stray term.
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import pytest

from detvar import catalog, states
from detvar.modp import EXP_BITS, RANK_PRIME, ModPoly
from detvar.scalars import ExactComplex
from detvar.variety import _minors_mod_p, _pencil_mod_p, _restrict_mod_p, pencil_matrix

EC = ExactComplex
F = Fraction
PRIMES = [RANK_PRIME, 13]


# ---------------------------------------------------------------------------
# The reference (modp.maximal_minors, verbatim)
# ---------------------------------------------------------------------------

def maximal_minors(forms: Sequence[Sequence[Sequence[int]]], p: int) -> List[ModPoly]:
    """The n x n minors modulo p of an n x t matrix of linear forms, each
    entry given by its coefficient vector, in lexicographic column-subset
    order.

    Laplace expansion along the first row, memoized on the columns, so a
    minor of the lower rows is built once and shared by every larger minor
    that contains it.
    """
    n, t = len(forms), len(forms[0])
    units = [1 << (EXP_BITS * i) for i in range(len(forms[0][0]))]
    memo: Dict[Tuple[int, ...], ModPoly] = {(): {0: 1}}

    def det(cs: Tuple[int, ...]) -> ModPoly:
        got = memo.get(cs)
        if got is not None:
            return got
        row = forms[n - len(cs)]
        out: ModPoly = {}
        for j, c in enumerate(cs):
            terms = [(u, a if j % 2 == 0 else -a) for u, a in zip(units, row[c]) if a]
            if not terms:
                continue
            for e, v in det(cs[:j] + cs[j + 1:]).items():
                for u, a in terms:
                    out[e + u] = out.get(e + u, 0) + a * v
        memo[cs] = out = {e: v % p for e, v in out.items() if v % p}
        return out

    return [det(cs) for cs in combinations(range(t), n)]


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def assert_same_minors(forms: List[List[List[int]]], p: int):
    got, ref = _minors_mod_p(forms, p), maximal_minors(forms, p)
    assert got == ref
    assert all(0 < x < p for g in got for x in g.values())


def gaussian_state(m: int, n: int, rank: int, seed: int) -> states.BipartiteState:
    rng = random.Random(seed)
    ensemble = [(F(1, rank),
                 tuple(EC(F(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6])),
                          F(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6])))
                       for _ in range(m * n)))
                for _ in range(rank)]
    return states.BipartiteState(m, n, ensemble=ensemble)


PENCIL_STATES = {
    "separable 3x3 t4": lambda: states.random_separable(3, 3, 4, seed=2),
    "separable 4x4 t7": lambda: states.random_separable(4, 4, 7, seed=3),
    "gaussian 3x4 r5": lambda: gaussian_state(3, 4, 5, seed=5),
    "gaussian 4x4 r7": lambda: gaussian_state(4, 4, 7, seed=6),
    "mixed 3x3 r4": lambda: states.random_mixed(3, 3, 4, seed=7),
    "mixed 4x4 r7": lambda: states.random_mixed(4, 4, 7, seed=0),
    "mixed 3x4 r3": lambda: states.random_mixed(3, 4, 3, seed=1),
    "ppt 4x6": catalog.ppt_4x6_state,
}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(PENCIL_STATES))
def test_pencil_minors_mod_p_match_reference(name, p):
    state = PENCIL_STATES[name]()
    rng = random.Random(p)
    for side in "AB":
        pencil = pencil_matrix(state, side)
        if pencil.t < pencil.n:
            continue
        forms = _pencil_mod_p(pencil, p)
        assert forms is not None
        assert_same_minors(forms, p)
        # the Macaulay test's hyperplane x_{m-1} = sum_i h_i x_i
        for _ in range(3):
            h = [EC(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(pencil.m - 1)]
            assert_same_minors(_restrict_mod_p(forms, h, p), p)


def random_forms(rng: random.Random, n: int, t: int, m: int, p: int) -> List[List[List[int]]]:
    """A reduced pencil with zero coefficients and zero entries throughout."""
    def form():
        if rng.random() < 0.3:
            return [0] * m
        return [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(m)]
    return [[form() for _ in range(t)] for _ in range(n)]


@pytest.mark.parametrize("p", PRIMES)
def test_random_pencils_mod_p_match_reference(p):
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        t = rng.randint(n, 7)
        assert_same_minors(random_forms(rng, n, t, rng.randint(1, 4), p), p)


@pytest.mark.parametrize("p", PRIMES)
def test_zero_entries_and_zero_rows_mod_p_match_reference(p):
    z = [0, 0, 0]
    forms = [[[1, 2, 0], z, [0, 0, p - 1], [3, 0, 5]],
             [z, z, z, z],
             [[0, 7, 1], [2, 0, 0], z, [1, 1, 1]]]
    assert_same_minors(forms, p)
    assert _minors_mod_p(forms, p) == [{}] * 4
    forms[1] = [[4, 0, 0], z, [0, 1, 0], [0, 0, 9]]
    assert_same_minors(forms, p)
    # every minor whose top row is zero in its columns
    assert_same_minors([[z, z, [1, 0, 0]], [[0, 1, 0], [0, 0, 1], [1, 1, 1]]], p)


@pytest.mark.parametrize("p", PRIMES)
def test_one_row_and_square_pencils_mod_p_match_reference(p):
    rng = random.Random(p + 1)
    for m in (1, 2, 4):
        # n = 1: the minors are the entries themselves, reduced
        row = [[rng.randrange(-3 * p, 3 * p) for _ in range(m)] for _ in range(5)]
        assert_same_minors([row], p)
        assert _minors_mod_p([row], p) == [
            {1 << (EXP_BITS * i): a % p for i, a in enumerate(c) if a % p} for c in row]
        # n = t: one minor
        for n in (2, 3, 5):
            forms = random_forms(rng, n, n, m, p)
            assert len(_minors_mod_p(forms, p)) == 1
            assert_same_minors(forms, p)


def test_a_coefficient_divisible_by_p_but_not_zero_is_dropped():
    # det [[x, y], [3y, 4x]] = 4x^2 - 3y^2: modulo 13 it keeps both terms,
    # [[x, y], [y, 13x]] has 13x^2 - y^2, and 13x^2 vanishes modulo 13
    x, y = 1, 1 << EXP_BITS
    assert _minors_mod_p([[[1, 0], [0, 1]], [[0, 3], [4, 0]]], 13) == [{2 * x: 4, 2 * y: 10}]
    assert _minors_mod_p([[[1, 0], [0, 1]], [[0, 1], [13, 0]]], 13) == [{2 * y: 12}]

"""Minors and determinants against the Laplace expansion on Poly entries.

This file keeps, verbatim, the ``_laplace`` that ``detvar.multipoly`` ran
on ``Poly`` entries, with ExactComplex or complex coefficients, before the
expansion moved to raw term dicts: exact entries on Gaussian integers,
each row cleared of its denominators, approximate ones on complex numbers.
Every minor and determinant, of any size and either kind, must come out
identical: equal polynomials, the same term order (``CompiledSystem`` sums
in it) and bit-equal floats.  The cases stress the per-row clearing: rows
over different primes (one inside a single entry), zero entries, all-zero
rows, k = 1 minors and 1 x 1 determinants.
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

import pytest

from detvar import catalog, multipoly, states
from detvar.multipoly import Poly
from detvar.scalars import ExactComplex
from detvar.variety import pencil_matrix
from shared_states import gaussian_rational_state
from test_multipoly_reference import entry_polys

EC = ExactComplex
F = Fraction


# ---------------------------------------------------------------------------
# The reference (the Poly-level expansion, verbatim)
# ---------------------------------------------------------------------------

def _laplace(rows: List[List[Poly]], rs: Tuple[int, ...], cs: Tuple[int, ...],
             memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly]) -> Poly:
    if len(cs) == 1:
        return rows[rs[0]][cs[0]]
    key = (rs, cs)
    det = memo.get(key)
    if det is not None:
        return det
    top = rows[rs[0]]
    det = Poly.zero(top[cs[0]].nvars, top[cs[0]].kind)
    for j, c in enumerate(cs):
        if top[c].is_zero():
            continue
        term = top[c] * _laplace(rows, rs[1:], cs[:j] + cs[j + 1:], memo)
        det = det + term if j % 2 == 0 else det - term
    memo[key] = det
    return det


def symbolic_det(rows: List[List[Poly]]) -> Poly:
    n = len(rows)
    return _laplace(rows, tuple(range(n)), tuple(range(n)), {})


def minors(rows: List[List[Poly]], k: int) -> List[Poly]:
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly] = {}
    return [_laplace(rows, rsub, csub, memo)
            for rsub in combinations(range(nr), k)
            for csub in combinations(range(nc), k)]


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def coeff_bits(c):
    """An exact coefficient's canonical ints, or a float one's bits."""
    if isinstance(c, ExactComplex):
        return c.fields
    return (c.real.hex(), c.imag.hex())


def assert_identical(got: Poly, ref: Poly):
    """Equal, with the same terms in the same order and bit-equal floats."""
    assert (got.nvars, got.kind) == (ref.nvars, ref.kind)
    assert got == ref
    assert list(got.terms) == list(ref.terms)
    assert [coeff_bits(c) for c in got.terms.values()] \
        == [coeff_bits(c) for c in ref.terms.values()]


def assert_all_minors_identical(rows: List[List[Poly]]):
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        got, ref = multipoly.minors(rows, k), minors(rows, k)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_identical(g, r)


PENCIL_STATES = {
    "separable 3x4 t5": lambda: states.random_separable(3, 4, 5, seed=2),
    "separable 4x4 t7": lambda: states.random_separable(4, 4, 7, seed=3),
    "separable 4x5 t8": lambda: states.random_separable(4, 5, 8, seed=0),
    "gaussian 3x3 r5": lambda: gaussian_rational_state(3, 3, 5, seed=5),
    "gaussian 4x4 r5": lambda: gaussian_rational_state(4, 4, 5, seed=6),
    "mixed 3x4 r5": lambda: states.random_mixed(3, 4, 5, seed=7),
    "mixed 4x5 r8": lambda: states.random_mixed(4, 5, 8, seed=0),
    "cyclic t=1/7+2i": lambda: catalog.cyclic_cubic_state(EC(F(1, 7), 2)),
    "ppt 4x6": catalog.ppt_4x6_state,
}


@pytest.mark.parametrize("name", sorted(PENCIL_STATES))
def test_pencil_minors_match_reference(name):
    state = PENCIL_STATES[name]()
    for side in "AB":
        p = pencil_matrix(state, side)
        if p.t < p.n:
            continue
        rows = entry_polys(p)
        got, ref = multipoly.minors(rows, p.n), minors(rows, p.n)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_identical(g, r)


def random_entry(rng: random.Random, nvars: int, kind: str) -> Poly:
    """A sparse entry, zero a third of the time, not always homogeneous,
    with coefficients over a few primes."""
    if rng.random() < 0.35:
        return Poly.zero(nvars, kind)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 1) for _ in range(nvars))
        terms[e] = EC(F(rng.randint(-4, 4), rng.choice([1, 2, 3, 7, 10007])),
                      F(rng.randint(-2, 2), rng.choice([1, 5, 11, 10009])))
    p = Poly(nvars, terms)
    return p if kind == "exact" else p.to_approx()


@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_random_matrix_minors_match_reference(kind):
    rng = random.Random(21)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        nvars = rng.randint(1, 3)
        rows = [[random_entry(rng, nvars, kind) for _ in range(nc)] for _ in range(nr)]
        assert_all_minors_identical(rows)
    for n in (1, 5, 7):
        rows = [[random_entry(rng, 2, kind) for _ in range(n)] for _ in range(n)]
        assert_identical(multipoly.symbolic_det(rows), symbolic_det(rows))


def _x(i: int, c, nvars: int = 3) -> Poly:
    """c * x_i."""
    e = [0] * nvars
    e[i] = 1
    return Poly(nvars, {tuple(e): EC.coerce(c)})


def test_rows_over_different_primes_match_reference():
    # each row over its own prime; row 1 mixes two primes inside one entry
    rows = [[_x(0, F(1, 10007)), _x(1, F(3, 10007)), _x(2, F(-2, 10007))],
            [_x(0, F(1, 10009)) + _x(1, EC(0, F(1, 65537))), _x(2, F(5, 10009)), _x(0, 1)],
            [_x(1, EC(F(2, 3), F(-1, 3))), _x(0, F(1, 999983)), _x(2, F(4, 7))]]
    assert_all_minors_identical(rows)
    assert_all_minors_identical([row[::-1] for row in rows[::-1]])
    assert_all_minors_identical([[p.to_approx() for p in row] for row in rows])
    # k = 1 minors are the entries themselves; k = 2 minors on rows (0, 2)
    # are over the denominators of those two rows only
    assert multipoly.minors(rows, 1) == [p for row in rows for p in row]
    assert multipoly.minors(rows, 2)[3] == rows[0][0] * rows[2][1] - rows[0][1] * rows[2][0]


def test_zero_entries_and_zero_rows_match_reference():
    z = Poly.zero(3)
    rows = [[_x(0, F(1, 3)), z, _x(2, F(1, 5))],
            [z, z, z],
            [_x(1, EC(0, F(1, 7))), _x(0, 2), z],
            [z, _x(2, F(-1, 11)), _x(1, 1) + _x(0, F(1, 13))]]
    assert_all_minors_identical(rows)
    assert_all_minors_identical([[p.to_approx() for p in row] for row in rows])
    assert all(m.is_zero() for m in multipoly.minors(rows[:3], 3))
    # a k x k minor whose top row is all zero
    assert multipoly.minors([[z, z], [_x(0, 1), _x(1, 1)]], 2) == [Poly.zero(3)]


def test_one_by_one_determinants_match_reference():
    for entry in (_x(1, EC(F(-3, 10007), F(1, 2))), Poly.zero(3),
                  _x(0, F(1, 9)) + Poly.const(3, EC(F(2, 5), 1)),
                  _x(2, F(1, 3)).to_approx()):
        got = multipoly.symbolic_det([[entry]])
        assert_identical(got, symbolic_det([[entry]]))
        assert_identical(got, entry)

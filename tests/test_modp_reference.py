"""Minors modulo a prime against the expansions modp used to keep.

The symbolic mod-p path that ``detvar`` ran before every modular test read
minor values at points is ``_minors_mod_p`` and ``dict_macaulay_full_rank``
of ``oracles.modp``.  This file keeps, verbatim, the ``maximal_minors``
that ``modp`` ran before that: a memoized expansion along the first row
with a reduction modulo p after every minor.  The two expansions must agree
as dicts {packed monomial: residue in [0, p)}, in the same column-subset
order, and ``modp.minor_values`` must read their values at points, on every
pencil the test sees: exact and float pencils, pencils restricted to a
hyperplane, zero entries, all-zero rows, n = 1 and n = t.  Each case runs
at two primes: ``RANK_PRIME``, where every product already leaves [0, p),
and 13, where coefficients of the integer minors vanish modulo p though not
over Z, so a missing final reduction shows as a stray term.

``modp.macaulay_full_rank`` reads the Macaulay matrix M at the lattice
points Q_D of degree D, as M E.  It must decide as the dict path does: on
drawn reduced pencils in three to five variables at small primes and at
``RANK_PRIME`` (generic, with a planted common zero, with every minor
zero), in degrees n + 1 .. n + 3, and on every pencil and hyperplane that
``_macaulay_certificate`` tries on both sides of the golden states.  E
itself must be invertible modulo each of those primes for every number
of variables and degree the certificate reaches.

It keeps, verbatim, the list kernel that ``modp`` ran before a reduced
pencil became one int64 array: ``restrict_mod_p``, ``_laplace_plan``,
``maximal_minors_mod_p`` and ``minor_values`` on nested lists of Python
ints, one point at a time.  The array kernel must give the same residues
on drawn pencils at every prime the code uses and at 2147483629, the
largest split prime below 2^31, with every residue p - 1 among them: int64
arithmetic wraps silently, and at that prime a sum of three unreduced
products of residues already wraps, so a product left unreduced before a
sum shows as a wrong residue.  ``modp.rank_mod_p`` must read the same rank
there as Gaussian elimination on Python ints (``list_rank_mod_p``).

It also keeps, verbatim, the three ways ``detvar.variety`` restricted a
reduced pencil before ``modp.restrict_mod_p`` became the one place where a
reduced coefficient vector meets a point: ``_form_at`` (a point, for the
minor screen), ``_restrict_mod_p`` (the Macaulay test's hyperplane) and
the peel's ``_cauchy_binet_certificate``, which mixed the columns of the
pencil on a line by two random matrices W_k, interpolated each
det(N W_k) and took their gcd.  The one restriction must give exactly the
old reduced forms, at points and on the hyperplanes of the certificates,
on the golden pencils and on drawn ones.  The binary no-common-zero test
that replaced the two-mix certificate decides whether the minors on the
line have a common zero, which the two mixes can only witness, so it must
say True wherever the old certificate did; on the certificate's own
cases the two agree.
"""

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, prod
from operator import mul
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detvar.variety as variety_mod
from detvar import catalog, states
from detvar.factorization import _random_exact_point
from detvar.modp import (
    RANK_PRIME,
    gcd_mod_p,
    interpolate_mod_p,
    macaulay_full_rank,
    maximal_minors_mod_p,
    minor_values,
    rank_mod_p,
    reduce_scalar,
    restrict_mod_p,
)
from detvar.scalars import ExactComplex
from detvar.statefile import load_state
from detvar.variety import (
    MACAULAY_DEGREES,
    PencilMatrix,
    _cauchy_binet_certificate,
    _macaulay_certificate,
    _pencil_mod_p,
    pencil_matrix,
    variety_of_state,
)
from oracles.modp import EXP_BITS, ModPoly, _minors_mod_p, dict_macaulay_full_rank
from pinned import GOLDEN
from shared_states import cauchy_binet_cases, gaussian_small_denominators_state

EC = ExactComplex
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
# The reference (modp's list kernel, verbatim)
# ---------------------------------------------------------------------------

def list_restrict_mod_p(forms: Sequence[Sequence[Sequence[int]]],
                        basis: Sequence[Sequence[int]], p: int) -> List[List[List[int]]]:
    """A reduced pencil (each entry the coefficient vector of a linear form
    c) on the span of the k points b_j modulo p: the pencil in k variables
    whose entry c is (c . b_j mod p)_j, which reads c(sum_j y_j b_j) at y."""
    return [[[sum(map(mul, c, b)) % p for b in basis] for c in row] for row in forms]


@lru_cache(maxsize=None)
def _list_laplace_plan(n: int, t: int) -> List[List[List[Tuple[int, int]]]]:
    """For each size 2 .. n, the column subsets of that size in
    lexicographic order, each as its pairs (column c, index of the subset
    less c among the subsets one size smaller)."""
    index = {(c,): c for c in range(t)}
    plan = []
    for size in range(2, n + 1):
        subsets = list(combinations(range(t), size))
        plan.append([[(c, index[cs[:j] + cs[j + 1:]]) for j, c in enumerate(cs)] for cs in subsets])
        index = {cs: j for j, cs in enumerate(subsets)}
    return plan


def list_maximal_minors_mod_p(rows: Sequence[Sequence[int]], p: int) -> List[int]:
    """The n x n minors modulo p of an n x t integer matrix, in
    lexicographic column-subset order ([] where t < n): Laplace expansion
    along the first row on plain ints, each minor of the lower rows built
    once per column subset (indexed as _laplace_plan lays them out) and
    reduced modulo p."""
    level = [x % p for x in rows[-1]]
    for top, subsets in zip(rows[-2::-1], _list_laplace_plan(len(rows), len(rows[0]))):
        above = []
        for pairs in subsets:
            acc, odd = 0, False
            for c, j in pairs:
                x = top[c]
                if x:
                    acc = acc - x * level[j] if odd else acc + x * level[j]
                odd = not odd
            above.append(acc % p)
        level = above
    return level


def list_rank_mod_p(rows: List[List[int]], p: int) -> int:
    """Rank modulo p by Gaussian elimination on Python ints, which do not
    wrap: the oracle of modp.rank_mod_p at worst-case residues."""
    a, rank = [[x % p for x in row] for row in rows], 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(rank + 1, len(a)):
            a[r] = [(x - a[r][c] * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def list_minor_values(forms: Sequence[Sequence[Sequence[int]]],
                      points: Sequence[Sequence[int]], p: int) -> List[List[int]]:
    """The n x n minors modulo p of a reduced pencil at each of the points,
    one list per point in lexicographic column-subset order: the pencil
    restricted to the points (restrict_mod_p), then the integer kernel
    (maximal_minors_mod_p) at each."""
    at = list_restrict_mod_p(forms, points, p)
    return [list_maximal_minors_mod_p([[c[j] for c in row] for row in at], p)
            for j in range(len(points))]


# ---------------------------------------------------------------------------
# The references (variety's restrictions and two-mix certificate, verbatim)
# ---------------------------------------------------------------------------

def _form_at(form: Sequence[int], point: Sequence[int], p: int) -> int:
    return sum(c * x for c, x in zip(form, point)) % p


def _restrict_mod_p(forms: List[List[List[int]]], h: Sequence[ExactComplex],
                    p: int) -> List[List[List[int]]]:
    """The reduced pencil on the hyperplane x_{m-1} = sum_i h_i x_i, in the
    coordinates x_0 .. x_{m-2}: a linear form c maps to c_i + h_i c_{m-1}.
    The map y -> (y, h . y) is injective, so this is always a hyperplane."""
    hp = [reduce_scalar(x, p) for x in h]
    return [[[(a + b * c[-1]) % p for a, b in zip(c, hp)] for c in row] for row in forms]


def reference_cauchy_binet_certificate(p: PencilMatrix, base: Sequence[ExactComplex],
                                       direction: Sequence[ExactComplex],
                                       rng: random.Random) -> bool:
    """True when the maximal minors of an exact pencil with t > n are
    proved to share no factor over Q(i); False proves nothing.  No minor is
    expanded.

    Modulo the pencil's prime, f_k(s) = det(N(base + s direction) W_k)
    for two t x n matrices W_k with entries from rng, each a polynomial of
    degree at most n taken from n + 1 values.  By Cauchy-Binet f_k is
    sum_S det(W_k[S]) minor_S(base + s direction).  Suppose the minors have
    a common factor g of positive degree, primitive over Z[i] (Gauss's
    lemma: each minor is g times a form over Z[i] with the pencil's
    denominators, which p does not divide).  Where some f_k has degree n,
    its leading coefficient sum_S det(W_k[S]) minor_S(direction) is nonzero,
    so g(direction) is nonzero modulo p, and g restricted to the line,
    of positive degree modulo p, divides f_1 and f_2.  So a constant
    gcd(f_1, f_2) with some f_k of degree n proves there is no g."""
    prime, forms = p.mod_p()
    forms = forms.tolist()
    at_line = [[[_form_at(f, point, prime) for f in row] for row in forms]
               for point in ([reduce_scalar(x, prime) for x in pt] for pt in (base, direction))]
    fs = []
    for _ in range(2):
        cols = [[rng.randrange(prime) for _ in range(p.t)] for _ in range(p.n)]
        pb, pd = ([[sum(a * w for a, w in zip(row, col)) % prime for col in cols]
                   for row in at] for at in at_line)
        values = [list_maximal_minors_mod_p([[x + s * y for x, y in zip(rb, rd)]
                                             for rb, rd in zip(pb, pd)], prime)[0]
                  for s in range(p.n + 1)]
        fs.append(interpolate_mod_p(values, prime))
    return len(gcd_mod_p(fs[0], fs[1], prime)) == 1 and any(f[-1] for f in fs)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def hyperplane_basis(h: Sequence[ExactComplex], p: int) -> np.ndarray:
    """The points e_i + h_i e_{m-1} modulo p that span x_{m-1} = sum_i h_i x_i."""
    return np.array([[int(i == j) for j in range(len(h))] + [reduce_scalar(x, p)]
                     for i, x in enumerate(h)], dtype=np.int64)


def value_at(g: ModPoly, point: Sequence[int], p: int) -> int:
    """A packed form modulo p at a point."""
    return sum(c * prod(x ** ((e >> (EXP_BITS * i)) & ((1 << EXP_BITS) - 1))
                        for i, x in enumerate(point))
               for e, c in g.items()) % p


def assert_same_minors(forms, p: int):
    """forms: a reduced pencil as nested lists, or as modp's array."""
    forms = np.asarray(forms, dtype=np.int64).tolist()  # the dict paths need Python ints
    got, ref = _minors_mod_p(forms, p), maximal_minors(forms, p)
    assert got == ref
    assert all(0 < x < p for g in got for x in g.values())
    # the one kernel reads the same minors at points, zero coordinates included
    rng = random.Random(p)
    points = [[rng.choice([0, 1, rng.randrange(p)]) for _ in forms[0][0]] for _ in range(3)]
    values = minor_values(np.array(forms, dtype=np.int64) % p, np.array(points), p)
    assert values.T.tolist() == [[value_at(g, q, p) for g in ref] for q in points]


PENCIL_STATES = {
    "separable 3x3 t4": lambda: states.random_separable(3, 3, 4, seed=2),
    "separable 4x4 t7": lambda: states.random_separable(4, 4, 7, seed=3),
    "gaussian 3x4 r5": lambda: gaussian_small_denominators_state(3, 4, 5, seed=5),
    "gaussian 4x4 r7": lambda: gaussian_small_denominators_state(4, 4, 7, seed=6),
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
            assert_same_minors(restrict_mod_p(forms, hyperplane_basis(h, p), p), p)


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


# ---------------------------------------------------------------------------
# The one restriction against the three it replaced
# ---------------------------------------------------------------------------

GOLDEN_STATES = sorted(path.name[:-len(".state.json")] for path in GOLDEN.glob("*.state.json"))


def _pencils(name):
    """Both sides of a golden or drawn state, where the pencil has minors."""
    state = (load_state(str(GOLDEN / f"{name}.state.json")) if name in GOLDEN_STATES
             else PENCIL_STATES[name]())
    if state.ensemble is None:  # a density file: its spectral ensemble, as analyze reads it
        state = state.spectral()
    pencils = [pencil_matrix(state, side) for side in "AB"]
    return [pencil for pencil in pencils if pencil.t >= pencil.n]


@pytest.mark.parametrize("name", GOLDEN_STATES + sorted(PENCIL_STATES))
def test_one_restriction_gives_the_old_reduced_forms(name, monkeypatch):
    restricted = []

    def spy(forms, basis, p):
        restricted.append(restrict_mod_p(forms, basis, p))
        return restricted[-1]

    monkeypatch.setattr(variety_mod, "restrict_mod_p", spy)
    rng = random.Random(name)
    for pencil in _pencils(name):
        p, forms = pencil.mod_p()
        lists = forms.tolist()
        # points: the values of the entries, as the minor screen reads them
        for _ in range(3):
            point = [rng.randrange(p) for _ in range(pencil.m)]
            assert restrict_mod_p(forms, np.array([point]), p).tolist() == [
                [[_form_at(form, point, p)] for form in row] for row in lists]
        # drawn hyperplanes, with the basis built here
        for _ in range(3):
            h = [EC(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(pencil.m - 1)]
            assert restrict_mod_p(forms, hyperplane_basis(h, p), p).tolist() == \
                _restrict_mod_p(lists, h, p)
        # the hyperplanes of the Macaulay certificates, restricted by variety
        # itself, where Eagon-Northcott lets the test run
        v = variety_mod.variety_generators(pencil)
        if pencil.m < 3 or pencil.t - pencil.n + 1 < pencil.m - 1 or v.structural is not None:
            continue
        for seed in range(4):
            del restricted[:]
            got = _macaulay_certificate(v, seed)
            if got is not None and got[1].hyperplane is not None:
                assert restricted[-1].tolist() == _restrict_mod_p(lists, got[1].hyperplane, p)


@pytest.mark.parametrize("state, side, certified", cauchy_binet_cases())
def test_binary_certificate_says_true_wherever_the_two_mixes_did(state, side, certified):
    v = variety_of_state(state, side)
    for k in range(4):
        rng = random.Random(f"line:{k}")
        base, direction = _random_exact_point(rng, v.m), _random_exact_point(rng, v.m)
        new = _cauchy_binet_certificate(v.pencil, base, direction)
        old = reference_cauchy_binet_certificate(v.pencil, base, direction, rng)
        assert new or not old
        assert new == old == certified


# ---------------------------------------------------------------------------
# The Macaulay test on values against the dict Macaulay matrix
# ---------------------------------------------------------------------------

MACAULAY_PRIMES = [13, 17, 29, RANK_PRIME]


def assert_same_macaulay(forms, n: int, degree: int, p: int) -> bool:
    """forms: a reduced pencil as nested lists, or as modp's array."""
    residues = np.asarray(forms, dtype=np.int64)
    full = macaulay_full_rank(residues, n, degree, p)
    gens = _minors_mod_p(residues.tolist(), p)  # the dict path needs Python ints
    assert full == dict_macaulay_full_rank(gens, residues.shape[2], degree, p)
    return full


@st.composite
def reduced_pencils(draw):
    """(forms, n, p, kind): an n x t reduced pencil in k = 3..5 variables,
    generic, with a planted common zero z (w^T N(z) = 0) or with every
    minor zero (w^T N = 0)."""
    p = draw(st.sampled_from(MACAULAY_PRIMES))
    k = draw(st.integers(3, 5))
    n = draw(st.integers(1, 7 - k))
    t = n + k - 1 - draw(st.integers(0, k - 1))  # shrinks towards an empty generic V
    residues = st.integers(0, p - 1)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    forms = [[[rng.randrange(p) if rng.random() > 0.2 else 0 for _ in range(k)]
              for _ in range(t)] for _ in range(n)]
    kind = draw(st.sampled_from(["generic", "common zero", "zero minors"]))
    if kind != "generic":
        w = [draw(residues) for _ in range(n)]
        w[draw(st.integers(0, n - 1))] = draw(st.integers(1, p - 1))
        r = next(i for i, x in enumerate(w) if x)
        inv = pow(w[r], -1, p)
    if kind == "common zero":  # solve coefficient c of row r's entries at z, z_c = 1
        z = [draw(residues) for _ in range(k)]
        c = draw(st.integers(0, k - 1))
        z[c] = 1
        for col, entry in enumerate(forms[r]):
            entry[c] = 0
            total = sum(x * sum(a * b for a, b in zip(row[col], z)) for x, row in zip(w, forms))
            entry[c] = -total * inv % p
    elif kind == "zero minors":  # row r = -(sum of the others, weighted by w) / w_r
        forms[r] = [[-sum(x * row[col][i] for j, (x, row) in enumerate(zip(w, forms)) if j != r)
                     * inv % p for i in range(k)] for col in range(t)]
    return forms, n, p, kind


@settings(max_examples=150)
@given(reduced_pencils())
def test_macaulay_on_values_decides_as_the_dict_matrix(case):
    forms, n, p, kind = case
    for degree in range(n + 1, n + 1 + MACAULAY_DEGREES):
        full = assert_same_macaulay(forms, n, degree, p)
        if kind != "generic":
            assert not full


def test_macaulay_on_values_certifies_a_drawn_generic_pencil():
    # t - n + 1 = k: generic minors have no common zero in k variables
    rng = random.Random(2)
    for k, n in ((3, 2), (4, 2), (5, 1)):
        forms = [[[rng.randrange(1, RANK_PRIME) for _ in range(k)] for _ in range(n + k - 1)]
                 for _ in range(n)]
        assert any(assert_same_macaulay(forms, n, d, RANK_PRIME)
                   for d in range(n + 1, n + 1 + MACAULAY_DEGREES))


@pytest.mark.parametrize("name", GOLDEN_STATES)
def test_golden_certificates_decide_as_the_dict_matrix(name, monkeypatch):
    calls = []

    def spy(forms, n, degree, p):
        calls.append(degree)
        return assert_same_macaulay(forms, n, degree, p)

    monkeypatch.setattr(variety_mod, "macaulay_full_rank", spy)
    # where Eagon-Northcott lets the test run
    pencils = [pencil for pencil in _pencils(name)
               if pencil.m >= 3 and pencil.t - pencil.n + 1 >= pencil.m - 1]
    for pencil in pencils:
        v = variety_mod.variety_generators(pencil)
        for seed in (42, 0, 1):
            _macaulay_certificate(v, seed)
    # a rank is taken wherever the test has three or more variables: the
    # Empty test of m >= 3, the Finite test of m >= 4
    assert bool(calls) == any(pencil.m >= 4 or pencil.t - pencil.n + 1 > pencil.m - 1
                              for pencil in pencils)


@pytest.mark.parametrize("p", MACAULAY_PRIMES)
def test_lattice_evaluation_is_invertible(p):
    # E on Q_D is square; D + k <= 12 takes in degrees n + 1 .. n + 3 for
    # n <= 6 in three variables (the 6 x 6 minors of the 4x6 PPT state on
    # a hyperplane), n <= 5 in four and n <= 4 in five, and p > D throughout
    for k in (2, 3, 4, 5):
        for degree in range(2, 13 - k):
            points = [[c.count(i) for i in range(k)]
                      for c in combinations_with_replacement(range(k), degree)]
            E = [[prod(q[i] for i in a) % p for q in points]
                 for a in combinations_with_replacement(range(k), degree)]
            assert rank_mod_p(E, p) == len(points), (k, degree)


# ---------------------------------------------------------------------------
# The array kernel against the list kernel, at worst-case residues
# ---------------------------------------------------------------------------

WIDE_PRIME = 2147483629  # the largest prime p = 1 (mod 4) below 2^31: 3 (p - 1)^2 > 2^63


@st.composite
def residue_pencils(draw):
    """(forms, points, grid, p): an n x t reduced pencil in k variables,
    n 1..6, t n..n+3, k 2..5, 1..90 points, and an n x t matrix at each
    point for the kernel alone, as nested lists of residues: every residue
    p - 1, each 0 or p - 1, or drawn with p - 1 and 0 common."""
    p = draw(st.sampled_from([13, 17, 29, RANK_PRIME, WIDE_PRIME]))
    n = draw(st.integers(1, 6))
    t = draw(st.integers(n, n + 3))
    k = draw(st.integers(2, 5))
    count = draw(st.integers(1, 90))
    fill = draw(st.sampled_from(["p - 1", "0 or p - 1", "drawn"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def residue():
        if fill == "p - 1":
            return p - 1
        if fill == "0 or p - 1":
            return rng.choice([0, p - 1])
        return rng.choice([0, p - 1, p - 1, rng.randrange(p), rng.randrange(p)])

    forms = [[[residue() for _ in range(k)] for _ in range(t)] for _ in range(n)]
    points = [[residue() for _ in range(k)] for _ in range(count)]
    grid = [[[residue() for _ in range(count)] for _ in range(t)] for _ in range(n)]
    return forms, points, grid, p


@settings(max_examples=200)
@given(residue_pencils())
def test_array_kernel_matches_the_list_kernel_at_worst_case_residues(case):
    forms, points, grid, p = case
    residues, at = np.array(forms, dtype=np.int64), np.array(points, dtype=np.int64)
    restricted = restrict_mod_p(residues, at, p)
    assert restricted.dtype == np.int64
    assert restricted.tolist() == list_restrict_mod_p(forms, points, p)
    values = maximal_minors_mod_p(restricted, p)
    assert values.dtype == np.int64
    assert values.shape == (comb(len(forms[0]), len(forms)), len(points))
    assert values.T.tolist() == list_minor_values(forms, points, p)
    assert minor_values(residues, at, p).tolist() == values.tolist()
    # the kernel alone, on matrices with no restriction to average them
    got = maximal_minors_mod_p(np.array(grid, dtype=np.int64), p).T.tolist()
    assert got == [list_maximal_minors_mod_p([[x[j] for x in row] for row in grid], p)
                   for j in range(len(points))]
    # the rank, on the minor values and on a drawn t x P matrix
    assert rank_mod_p(values, p) == list_rank_mod_p(values.tolist(), p)
    assert rank_mod_p(np.array(grid[0], dtype=np.int64), p) == list_rank_mod_p(grid[0], p)

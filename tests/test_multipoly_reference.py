"""Symbolic determinants and line restriction against the code they replaced.

This file keeps, verbatim, what ``detvar.multipoly`` had before one
memoized Laplace expansion served every symbolic determinant and exact
line restriction worked on Gaussian integers: ``symbolic_det`` by cofactor
expansion up to 4x4, then fraction-free (Bareiss) elimination on exact
entries and subset expansion on approximate ones; ``minors`` as one
``symbolic_det`` per pair of subsets; ``restrict_to_line`` by convolving
lists of scalars.

* k x k minors with k <= 4, either kind, must come out identical: equal
  polynomials, the same term order (``CompiledSystem`` sums in it) and
  bit-equal floats.
* Exact determinants from 5x5 on must have equal values (Bareiss built
  their terms in another order); approximate ones must agree to 1e-12.
* Exact restrictions must give identical coefficient lists.

The reference keeps its float branches: other tests compare float code
with the float minors of a pencil (``pencil_minors``, on the pencil's
entries as ``PencilMatrix.entry_polys`` built them for either kind,
``entry_polys``) or with a float restriction, which the live code no
longer builds.
"""

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detvar import catalog, multipoly, states
from detvar.errors import ArityMismatch, BadOrder, NonSquare, ZeroDirection
from detvar.multipoly import Poly, _is_zero_coeff, univariate_coeffs
from detvar.scalars import EC_ONE, EC_ZERO, ExactComplex
from detvar.variety import pencil_matrix
from shared_states import gaussian_integer_state


# ---------------------------------------------------------------------------
# The reference (the old detvar.multipoly functions, verbatim)
# ---------------------------------------------------------------------------

def _det_cofactor(rows: List[List[Poly]]) -> Poly:
    n = len(rows)
    nvars = rows[0][0].nvars
    kind = rows[0][0].kind
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = Poly.zero(nvars, kind)
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        sub = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = rows[0][j] * _det_cofactor(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _det_bareiss_poly(rows: List[List[Poly]]) -> Poly:
    """Fraction-free elimination over the polynomial ring.  Every division
    performed is exact (Bareiss identity), so exact_div never fails on
    valid input."""
    n = len(rows)
    nvars = rows[0][0].nvars
    a = [row[:] for row in rows]
    one = Poly.const(nvars, 1)
    sign = 1
    prev = one
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if pivot is None:
                return Poly.zero(nvars)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num if prev is one else num.exact_div(prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def _det_subset_expansion(rows: List[List[Poly]]) -> Poly:
    """Division-free determinant by dynamic programming over column subsets
    (used on the approx pathway, where exact division is unavailable)."""
    n = len(rows)
    nvars = rows[0][0].nvars
    kind = rows[0][0].kind
    # state: mask of used columns -> minor of the first popcount(mask) rows
    states = {0: Poly.const(nvars, 1, kind)}
    for i in range(n):
        nxt: Dict[int, Poly] = {}
        for mask, minor in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = rows[i][j]
                if entry.is_zero():
                    continue
                term = minor * entry
                # one inversion per earlier row whose column lies right of j
                if bin(mask >> j).count("1") & 1:
                    term = -term
                key = mask | bit
                nxt[key] = (nxt[key] + term) if key in nxt else term
        states = nxt
    full = (1 << n) - 1
    return states.get(full, Poly.zero(nvars, kind))


def symbolic_det(rows: List[List[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    Cofactor expansion up to 4x4; fraction-free elimination from 5x5 on
    (subset expansion instead when the entries are approximate).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare("symbolic_det needs a square matrix")
    if n == 0:
        raise NonSquare("empty matrix")
    nv = rows[0][0].nvars
    kd = rows[0][0].kind
    for r in rows:
        for p in r:
            if p.nvars != nv or p.kind != kd:
                raise ArityMismatch("entries must share nvars and kind")
    if n <= 4:
        return _det_cofactor(rows)
    if kd == "exact":
        return _det_bareiss_poly(rows)
    return _det_subset_expansion(rows)


def minors(rows: List[List[Poly]], k: int) -> List[Poly]:
    """All k x k minors, in lexicographic row-subset then column-subset order."""
    from itertools import combinations

    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if k > min(nr, nc) or k < 1:
        raise BadOrder(f"cannot take {k}x{k} minors of a {nr}x{nc} matrix")
    out = []
    for rsub in combinations(range(nr), k):
        for csub in combinations(range(nc), k):
            sub = [[rows[i][j] for j in csub] for i in rsub]
            out.append(symbolic_det(sub))
    return out


def restrict_to_line(p: Poly, base: Sequence, direction: Sequence) -> Poly:
    """The univariate polynomial s -> p(base + s*direction).

    Exact when p, base and direction are all exact.
    """
    if len(base) != p.nvars or len(direction) != p.nvars:
        raise ArityMismatch("point arity mismatch")
    exact = p.kind == "exact" and all(isinstance(x, ExactComplex) for x in base) \
        and all(isinstance(x, ExactComplex) for x in direction)
    kind = "exact" if exact else "approx"
    if exact:
        dirv = list(direction)
        basev = list(base)
        zero, one = EC_ZERO, EC_ONE
    else:
        dirv = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in direction]
        basev = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in base]
        zero, one = 0j, 1 + 0j
    if all(_is_zero_coeff(d, kind) for d in dirv):
        raise ZeroDirection("restriction direction is zero")

    def convolve(a: List, b: List) -> List:
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    # per-variable (base_i + s*dir_i)^k, cached
    cache: Dict[Tuple[int, int], List] = {}

    def lin_pow(i: int, k: int) -> List:
        key = (i, k)
        if key not in cache:
            acc = [one]
            for _ in range(k):
                acc = convolve(acc, [basev[i], dirv[i]])
            cache[key] = acc
        return cache[key]

    coeffs: List = [zero]
    for e, c in p.terms.items():
        cv = c.to_complex() if (not exact and isinstance(c, ExactComplex)) else c
        term = [cv]
        for i, k in enumerate(e):
            if k:
                term = convolve(term, lin_pow(i, k))
        if len(term) > len(coeffs):
            coeffs = coeffs + [zero] * (len(term) - len(coeffs))
        for idx, v in enumerate(term):
            coeffs[idx] = coeffs[idx] + v
    return Poly.univariate(coeffs, kind)


def entry_polys(pencil) -> List[List[Poly]]:
    """PencilMatrix.entry_polys, verbatim from when it served float
    pencils too: each entry a linear Poly of the pencil's kind."""
    units = [tuple(int(i == j) for j in range(pencil.m)) for i in range(pencil.m)]
    return [[Poly(pencil.m, dict(zip(units, e)), pencil.kind) for e in row]
            for row in pencil.coeffs.tolist()]


def pencil_minors(pencil) -> List[Poly]:
    """The maximal minors of a pencil of either kind: for a float pencil,
    what a float variety's generators were when it still expanded them."""
    return minors(entry_polys(pencil), pencil.n)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


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


def assert_close(got: Poly, ref: Poly, rel: float):
    keys = set(got.terms) | set(ref.terms)
    scale = max(abs(c) for c in ref.terms.values())
    assert max(abs(got.coeff(k) - ref.coeff(k)) for k in keys) <= rel * scale


PENCIL_STATES = {
    "separable 3x3 t4": lambda: states.random_separable(3, 3, 4, seed=1),
    "separable 3x4 t5": lambda: states.random_separable(3, 4, 5, seed=2),
    "separable 2x3 t3": lambda: states.random_separable(2, 3, 3, seed=3),
    "gaussian 3x4 r4": lambda: gaussian_integer_state(3, 4, 4, seed=4),
    "gaussian 3x3 r5": lambda: gaussian_integer_state(3, 3, 5, seed=5),
    "gaussian 4x4 r5": lambda: gaussian_integer_state(4, 4, 5, seed=6),
    "mixed 3x4 r5": lambda: states.random_mixed(3, 4, 5, seed=7),
    "mixed 3x3 r4": lambda: states.random_mixed(3, 3, 4, seed=8),
    "mixed 4x4 r6": lambda: states.random_mixed(4, 4, 6, seed=9),
    "cyclic t^3=27": lambda: catalog.cyclic_cubic_state(catalog.parse_family_parameter("3w")),
    "cyclic t=-2": lambda: catalog.cyclic_cubic_state(catalog.parse_family_parameter("-2")),
    "block identity 3x3": lambda: catalog.maximally_mixed(3, 3),
    "block identity 2x4": lambda: catalog.maximally_mixed(2, 4),
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
            if p.n <= 4:
                assert_identical(g, r)
            else:
                # the ppt side A 6x6 minors: Bareiss built their terms in
                # another order
                assert g == r


def random_entry(rng: random.Random, nvars: int, kind: str) -> Poly:
    """A sparse entry, zero a third of the time and not always homogeneous."""
    if rng.random() < 0.35:
        return Poly.zero(nvars, kind)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 1) for _ in range(nvars))
        terms[e] = ExactComplex(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    p = Poly(nvars, terms)
    return p if kind == "exact" else p.to_approx()


def random_matrix(rng: random.Random, nr: int, nc: int, nvars: int, kind: str):
    return [[random_entry(rng, nvars, kind) for _ in range(nc)] for _ in range(nr)]


@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_row_subset_minors_match_reference(kind):
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_matrix(rng, nr, nc, rng.randint(1, 3), kind)
        for k in range(1, min(nr, nc, 4) + 1):
            got, ref = multipoly.minors(rows, k), minors(rows, k)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert_identical(g, r)


def test_exact_large_determinants_match_reference():
    rng = random.Random(12)
    for n in range(5, 8):
        for _ in range(3):
            rows = random_matrix(rng, n, n, 2, "exact")
            assert multipoly.symbolic_det(rows) == symbolic_det(rows)
    rows = random_matrix(rng, 5, 7, 2, "exact")
    assert multipoly.minors(rows, 5) == minors(rows, 5)


def test_approx_large_determinants_match_reference():
    rng = random.Random(13)
    for n in range(5, 9):
        for _ in range(3):
            rows = random_matrix(rng, n, n, 2, "approx")
            got, ref = multipoly.symbolic_det(rows), symbolic_det(rows)
            if ref.is_zero():
                assert got.is_zero()
            else:
                assert_close(got, ref, 1e-12)


def test_bad_shapes_raise_like_reference():
    x = Poly.variable(0, 2)
    for f in (multipoly.symbolic_det, symbolic_det):
        with pytest.raises(NonSquare):
            f([[x, x]])
        with pytest.raises(ArityMismatch):
            f([[x, x], [x, x.to_approx()]])
    for f in (multipoly.minors, minors):
        with pytest.raises(BadOrder):
            f([[x, x]], 2)
        with pytest.raises(BadOrder):
            f([[x, x]], 0)


small_rationals = st.builds(Fraction, st.integers(-9, 9),
                            st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12, 35]))
scalars = st.builds(ExactComplex, small_rationals, small_rationals)


@st.composite
def restrictions(draw):
    """An exact polynomial (possibly zero, constant or not homogeneous), a
    base point (possibly 0) and a direction (possibly 0)."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3) for _ in range(nvars)])
    terms = draw(st.dictionaries(exps, scalars, max_size=6))
    point = st.lists(scalars, min_size=nvars, max_size=nvars)
    base = draw(st.one_of(st.just([EC_ZERO] * nvars), point))
    direction = draw(point)
    return Poly(nvars, terms), base, direction


@SETTINGS
@given(restrictions())
def test_exact_restriction_matches_reference(case):
    p, base, direction = case
    if all(x.is_zero() for x in direction):
        for f in (multipoly.restrict_to_line, restrict_to_line):
            with pytest.raises(ZeroDirection):
                f(p, base, direction)
        return
    got = multipoly.restrict_to_line(p, base, direction)
    ref = restrict_to_line(p, base, direction)
    assert univariate_coeffs(got) == univariate_coeffs(ref)
    assert_identical(got, ref)


def test_restriction_edge_cases_match_reference():
    EC = ExactComplex
    x, y, z = (Poly.variable(i, 3) for i in range(3))
    half, third = EC(Fraction(1, 2), Fraction(-1, 3)), EC(Fraction(5, 6), 0)
    cases = [
        (Poly.zero(3), [EC(1)] * 3, [EC(0), EC(1), EC(2)]),
        (Poly.const(3, EC(Fraction(2, 9), 1)), [half] * 3, [third] * 3),
        (x * y - z.scale(EC(Fraction(3, 4))), [EC_ZERO] * 3, [half, EC_ZERO, third]),
        (x ** 3 + (y * z).scale(half) + Poly.const(3, 7), [half, third, EC_ONE],
         [EC_ZERO, EC(0, 1), EC(Fraction(1, 10))]),
    ]
    for p, base, direction in cases:
        assert_identical(multipoly.restrict_to_line(p, base, direction),
                         restrict_to_line(p, base, direction))
    for f in (multipoly.restrict_to_line, restrict_to_line):
        with pytest.raises(ZeroDirection):
            f(x, [EC_ONE] * 3, [EC_ZERO] * 3)
        with pytest.raises(ArityMismatch):
            f(x, [EC_ONE] * 2, [EC_ONE] * 3)


def test_pencil_minor_restrictions_match_reference():
    # the degree-6 ppt minor and the cubic of a cyclic state, on random
    # exact lines; a complex line, or a float minor, is refused
    rng = random.Random(14)
    gens = [multipoly.minors(pencil_matrix(catalog.ppt_4x6_state(), "A").entry_polys(), 6)[0],
            multipoly.symbolic_det(pencil_matrix(PENCIL_STATES["cyclic t=-2"](), "A")
                                   .entry_polys())]
    for g in gens:
        for _ in range(5):
            base = [ExactComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                    for _ in range(g.nvars)]
            direction = [ExactComplex(rng.randint(-5, 5), rng.randint(-5, 5))
                         for _ in range(g.nvars)]
            assert_identical(multipoly.restrict_to_line(g, base, direction),
                             restrict_to_line(g, base, direction))
        with pytest.raises(TypeError):
            multipoly.restrict_to_line(g.to_approx(), base, direction)
        base = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(g.nvars)]
        with pytest.raises(TypeError):
            multipoly.restrict_to_line(g, base, direction)

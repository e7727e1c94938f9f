"""Symbolic determinants and line restriction against the code they replaced.

The references are ``symbolic_det``, ``minors`` and ``restrict_to_line`` of
``oracles.polys``: cofactor, Bareiss and subset expansion, and convolution.

* k x k minors with k <= 4, either kind, must come out identical: equal
  polynomials, the same term order (``CompiledSystem`` sums in it) and
  bit-equal floats.
* Exact determinants from 5x5 on must have equal values (Bareiss built
  their terms in another order); approximate ones must agree to 1e-12.
* Exact restrictions must give identical coefficient lists.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detvar import catalog, multipoly, states
from detvar.errors import ArityMismatch, BadOrder, NonSquare, ZeroDirection
from detvar.multipoly import Poly, univariate_coeffs
from detvar.scalars import EC_ONE, EC_ZERO, ExactComplex
from detvar.variety import pencil_matrix
from oracles.polys import assert_identical, entry_polys, minors, restrict_to_line, symbolic_det
from shared_states import gaussian_integer_state
from strategies import scalars

SETTINGS = settings(max_examples=200)


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

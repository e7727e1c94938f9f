"""Exact division, exact evaluation and line restriction against the code
they replaced.

``oracles.polys`` keeps, verbatim, ``Poly.exact_div`` (division by any
divisor, by leading-term elimination), ``Poly.evaluate`` from before its
exact branch worked on Gaussian integers over one common denominator, and
``restrict_to_line`` from before its sum became Horner's rule (power tables
per coordinate).  On every input:

* ``divides_into`` by a form of degree 1, homogeneous or affine, gives the
  oracle's quotient (equal terms, inserted in the same order), or None
  where the oracle finds the division inexact; any other divisor is
  refused, zero with DivisionByZero and the rest with TypeError;
* an exact evaluation gives the same canonical value;
* a restriction gives the same polynomial, term for term.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detvar.errors import ArityMismatch, DivisionByZero, ZeroDirection
from detvar.multipoly import Poly, restrict_to_line
from detvar.scalars import EC_ZERO, ExactComplex
from oracles.polys import assert_identical, evaluate, exact_div, power_table_restrict_to_line
from strategies import scalars

EC = ExactComplex


def assert_same_division(p: Poly, q: Poly):
    """q, of degree 1, divides p as the oracle does."""
    got = q.divides_into(p)
    try:
        ref = exact_div(p, q)
    except ValueError:
        assert got is None
        return
    assert got == ref
    assert list(got.terms.items()) == list(ref.terms.items())


def assert_refused(p: Poly, q: Poly):
    """q is not of degree 1: divides_into refuses it."""
    with pytest.raises(DivisionByZero if q.is_zero() else TypeError):
        q.divides_into(p)


# denominators up to 10^40, as exact lines built from far points have
large_rationals = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                            st.integers(1, 10 ** 40))
point_scalars = st.one_of(scalars, st.builds(ExactComplex, large_rationals, large_rationals))


@st.composite
def polys(draw, nvars: int, max_terms: int = 5) -> Poly:
    exps = st.tuples(*[st.integers(0, 3) for _ in range(nvars)])
    return Poly(nvars, draw(st.dictionaries(exps, scalars, max_size=max_terms)))


@st.composite
def homogeneous_polys(draw, nvars: int, max_terms: int = 8) -> Poly:
    d = draw(st.integers(0, 5))
    exps = [e for e in product(range(d + 1), repeat=nvars) if sum(e) == d]
    return Poly(nvars, draw(st.dictionaries(st.sampled_from(exps), scalars, max_size=max_terms)))


@st.composite
def linear_divisors(draw, nvars: int) -> Poly:
    """A form of degree 1, homogeneous or with a constant."""
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    terms = draw(st.dictionaries(st.sampled_from(units), scalars, min_size=1))
    terms[(0,) * nvars] = draw(st.one_of(st.just(EC_ZERO), scalars))
    form = Poly(nvars, terms)
    assume(form.degree() == 1)
    return form


@st.composite
def divisions(draw):
    """(p, q) with q of degree 1 and p a multiple of q plus a drawn extra,
    and (p2, other) with other any drawn poly."""
    nvars = draw(st.integers(1, 4))
    a, b, other = draw(polys(nvars)), draw(linear_divisors(nvars)), draw(polys(nvars))
    extra = draw(st.one_of(st.just(Poly.zero(nvars)), polys(nvars, 2)))
    return a * b + extra, b, a * other + extra, other


def assert_divides_or_refuses(p: Poly, q: Poly):
    if q.degree() == 1:
        assert_same_division(p, q)
    else:
        assert_refused(p, q)


@settings(max_examples=300)
@given(divisions())
def test_exact_div_matches_reference(case):
    p, q, p2, other = case
    assert_same_division(p, q)
    assert_divides_or_refuses(p2, other)


@settings(max_examples=100)
@given(divisions())
def test_exact_quotients_match_reference(case):
    # the products are divisible, so a linear divisor gives the oracle's quotient
    p, q, p2, other = case
    assert_same_division(p * q, q)
    if not other.is_zero():
        assert_divides_or_refuses(p2 * other, other)


def test_zero_and_constant_divisions_match_reference():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    p = (x * x - y).scale(EC(2, 3)) + Poly.const(2, EC(Fraction(1, 7)))
    zero, c = Poly.zero(2), Poly.const(2, EC(3, -4))
    form = y.scale(EC(0, 2)) - x + Poly.const(2, EC(Fraction(5, 3)))
    for num in (p, zero, c, form, p * form, c * form, form * form):
        for den in (form, y.scale(EC(-1, 1)), x - y):
            assert_same_division(num, den)
        for den in (c, p, zero):  # a constant, a quadratic and zero are refused
            assert_refused(num, den)
        with pytest.raises(DivisionByZero):
            exact_div(num, zero)
    with pytest.raises(TypeError):
        form.to_approx().divides_into(p.to_approx())
    with pytest.raises(ArityMismatch):
        form.divides_into(p.to_approx())
    with pytest.raises(ArityMismatch):
        form.divides_into(Poly.variable(0, 3))


@st.composite
def evaluations(draw):
    nvars = draw(st.integers(1, 4))
    p = draw(polys(nvars, 8))
    return p, draw(st.lists(point_scalars, min_size=nvars, max_size=nvars))


@settings(max_examples=300)
@given(evaluations())
def test_exact_evaluate_matches_reference(case):
    p, point = case
    got, ref = p.evaluate(point), evaluate(p, point)
    assert got == ref and got.fields == ref.fields


def test_evaluate_edge_cases_match_reference():
    big = EC(Fraction(1, 10 ** 50 + 3), Fraction(-(10 ** 30), 7 ** 40))
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    for p in (Poly.zero(2), Poly.const(2, EC(5, 2)), x * y * y - x.scale(EC(0, 1)),
              (x + y) ** 6):
        for point in ([EC_ZERO, EC_ZERO], [big, EC(3)], [big, big.conjugate()]):
            got, ref = p.evaluate(point), evaluate(p, point)
            assert got == ref and got.fields == ref.fields


@st.composite
def restrictions(draw):
    nvars = draw(st.integers(1, 4))
    p = draw(st.one_of(polys(nvars, 8), homogeneous_polys(nvars)))
    coords = st.lists(point_scalars, min_size=nvars, max_size=nvars)
    direction = draw(coords.filter(lambda v: any(not x.is_zero() for x in v)))
    return p, draw(coords), direction


@settings(max_examples=300)
@given(restrictions())
def test_restrict_to_line_matches_reference(case):
    assert_identical(restrict_to_line(*case), power_table_restrict_to_line(*case))


def test_restriction_edge_cases_match_reference():
    big = EC(Fraction(1, 10 ** 40 + 7), Fraction(-(10 ** 39), 3 ** 80))
    x, y, z = (Poly.variable(i, 3) for i in range(3))
    lines = [([EC_ZERO] * 3, [EC(1), EC_ZERO, EC_ZERO]), ([big, EC(2), EC_ZERO], [EC_ZERO, big, EC(0, 1)]),
             ([EC(1)] * 3, [big, big.conjugate(), EC(Fraction(1, 3))])]
    for p in (Poly.zero(3), Poly.const(3, EC(5, 2)), z ** 4, (x + y.scale(big)) ** 3 - z,
              x * y * z + Poly.const(3, EC(0, 1))):
        for base, direction in lines:
            assert_identical(restrict_to_line(p, base, direction),
                             power_table_restrict_to_line(p, base, direction))
        for f in (restrict_to_line, power_table_restrict_to_line):
            with pytest.raises(ZeroDirection):
                f(p, [EC(1)] * 3, [EC_ZERO] * 3)

"""Exact division and exact evaluation against the code they replaced.

This file keeps, verbatim, ``Poly.exact_div`` from before it took the
leading remainder term off a heap, and ``Poly.evaluate`` from before its
exact branch worked on Gaussian integers over one common denominator.  On
every input both must agree:

* a division must give an identical quotient (equal terms, inserted in
  the same order) or fail with the same exception and message;
* an exact evaluation must give the same canonical value.
"""

from fractions import Fraction
from typing import Dict, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detvar.errors import DivisionByZero
from detvar.multipoly import Exponents, Poly, grlex_key
from detvar.scalars import EC_ZERO, ExactComplex

EC = ExactComplex


# ---------------------------------------------------------------------------
# The reference (the old Poly methods, verbatim)
# ---------------------------------------------------------------------------

def exact_div(self, q: "Poly") -> "Poly":
    """Exact quotient self/q; raises DivisionByZero / ValueError if q is
    zero or does not divide self.  Leading-term elimination in graded
    lex order, valid precisely because the division is exact."""
    self._require_same_ring(q)
    if self.kind != "exact":
        raise TypeError("exact_div on approx polynomials")
    if q.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if self.is_zero():
        return Poly.zero(self.nvars, self.kind)
    lead_q, cq = q.leading()
    rem = dict(self.terms)
    quot: Dict[Exponents, object] = {}
    while rem:
        e = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(e, lead_q))
        if any(d < 0 for d in diff):
            raise ValueError("polynomial division is not exact")
        c = rem[e] / cq
        quot[diff] = c
        for e2, c2 in q.terms.items():
            tgt = tuple(a + b for a, b in zip(diff, e2))
            val = rem.get(tgt, EC_ZERO) - c * c2
            if val.is_zero():
                rem.pop(tgt, None)
            else:
                rem[tgt] = val
    return Poly(self.nvars, quot, self.kind)


def evaluate(self, point: Sequence):
    """Exact when both the poly and the point are exact, else complex."""
    exact = self.kind == "exact" and all(isinstance(x, ExactComplex) for x in point)
    if exact:
        acc = EC_ZERO
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * point[i]
            acc = acc + term
        return acc
    pt = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in point]
    acc = 0j
    for e, c in self.terms.items():
        cv = c.to_complex() if isinstance(c, ExactComplex) else c
        term = cv
        for i, k in enumerate(e):
            if k:
                term *= pt[i] ** k
        acc += term
    return acc


# ---------------------------------------------------------------------------

def outcome(thunk):
    """('ok', value) or (exception type, message)."""
    try:
        return "ok", thunk()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def assert_same_division(p: Poly, q: Poly):
    got, ref = outcome(lambda: p.exact_div(q)), outcome(lambda: exact_div(p, q))
    assert got[0] == ref[0] and (got[0] == "ok" or got[1] == ref[1])
    if got[0] == "ok":
        assert got[1] == ref[1]
        assert list(got[1].terms.items()) == list(ref[1].terms.items())


small_rationals = st.builds(Fraction, st.integers(-9, 9),
                            st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12, 35]))
scalars = st.builds(ExactComplex, small_rationals, small_rationals)
# denominators up to 10^40, as exact lines built from far points have
large_rationals = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                            st.integers(1, 10 ** 40))
point_scalars = st.one_of(scalars, st.builds(ExactComplex, large_rationals, large_rationals))


@st.composite
def polys(draw, nvars: int, max_terms: int = 5) -> Poly:
    exps = st.tuples(*[st.integers(0, 3) for _ in range(nvars)])
    return Poly(nvars, draw(st.dictionaries(exps, scalars, max_size=max_terms)))


@st.composite
def divisions(draw):
    nvars = draw(st.integers(1, 4))
    a, b = draw(polys(nvars)), draw(polys(nvars))
    extra = draw(st.one_of(st.just(Poly.zero(nvars)), polys(nvars, 2)))
    return a * b + extra, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(divisions())
def test_exact_div_matches_reference(case):
    p, q = case
    assert_same_division(p, q)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(divisions())
def test_exact_quotients_match_reference(case):
    # the product is divisible, so both must give the same quotient
    p, q = case
    if not q.is_zero():
        assert_same_division(p * q, q)


def test_zero_and_constant_divisions_match_reference():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    p = (x * x - y).scale(EC(2, 3)) + Poly.const(2, EC(Fraction(1, 7)))
    zero, c = Poly.zero(2), Poly.const(2, EC(3, -4))
    for num, den in ((p, c), (zero, p), (zero, c), (c, c), (c, p), (p, p), (p * p, p)):
        assert_same_division(num, den)
    for num in (p, zero, c):
        with pytest.raises(DivisionByZero):
            num.exact_div(zero)
        with pytest.raises(DivisionByZero):
            exact_div(num, zero)


@st.composite
def evaluations(draw):
    nvars = draw(st.integers(1, 4))
    p = draw(polys(nvars, 8))
    return p, draw(st.lists(point_scalars, min_size=nvars, max_size=nvars))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
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

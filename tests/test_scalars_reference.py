"""ExactComplex against a Fraction-pair reference.

``RefComplex`` keeps the arithmetic ExactComplex had when it stored its
real and imaginary parts as two ``Fraction`` objects.  The integer
numerator-over-denominator form must give the same values, the same
renderings and bit-equal floats for every operation.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detvar.errors import DivisionByZero
from detvar.scalars import ExactComplex


class RefComplex:
    """``re + im*i`` as a pair of Fractions: the reference formulas."""

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return RefComplex(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return RefComplex(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return RefComplex(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def norm_sq(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm_sq()
        if n == 0:
            raise DivisionByZero("inverse of exact zero")
        return RefComplex(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def conjugate(self):
        return RefComplex(self.re, -self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def to_complex(self):
        return complex(self.re, self.im)

    def __repr__(self):
        if self.im == 0:
            return f"ExactComplex({self.re})"
        return f"ExactComplex({self.re}, {self.im})"

    def render(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


# numerators: small (zero often), and past 2**64; denominators that share
# factors with each other, and large ones
numerators = st.one_of(st.integers(-6, 6), st.integers(-2 ** 80, 2 ** 80))
denominators = st.one_of(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 36, 2 ** 66, 3 ** 41]),
                         st.integers(1, 10 ** 30))
rationals = st.builds(Fraction, numerators, denominators)
pairs = st.tuples(rationals, rationals)
operands = st.one_of(st.integers(-2 ** 70, 2 ** 70), rationals)

SETTINGS = settings(max_examples=300)


def assert_same(z, ref):
    """z has ref's value, in canonical form: d > 0 and gcd(a, b, d) = 1."""
    assert isinstance(z, ExactComplex)
    assert (z.re, z.im) == (ref.re, ref.im)
    a, b, d = z._v
    assert d > 0 and gcd(a, b, d) == 1
    assert all(type(x) is int for x in (a, b, d))


def to_complex_outcome(z):
    """z.to_complex(), or the message of the OverflowError it raised."""
    try:
        return z.to_complex()
    except OverflowError as exc:
        return str(exc)


@SETTINGS
@given(pairs, pairs)
def test_field_operations_match_reference(x, y):
    zx, zy = ExactComplex(*x), ExactComplex(*y)
    rx, ry = RefComplex(*x), RefComplex(*y)
    assert_same(zx, rx)
    assert_same(zx + zy, rx + ry)
    assert_same(zx - zy, rx - ry)
    assert_same(zx * zy, rx * ry)
    assert_same(-zx, RefComplex(0) - rx)
    assert_same(zx.conjugate(), rx.conjugate())
    assert zx.norm_sq() == rx.norm_sq() and type(zx.norm_sq()) is Fraction
    if ry.norm_sq() == 0:
        with pytest.raises(DivisionByZero):
            zx / zy
        with pytest.raises(DivisionByZero):
            zy.inverse()
    else:
        assert_same(zx / zy, rx / ry)
        assert_same(zy.inverse(), ry.inverse())
    assert (zx == zy) == (rx == ry)
    assert zx.is_zero() == (rx.re == 0 and rx.im == 0)
    assert zx.is_real() == (rx.im == 0)


@SETTINGS
@given(pairs, operands)
def test_rational_operands_match_reference(x, q):
    z, r, rq = ExactComplex(*x), RefComplex(*x), RefComplex(q)
    assert_same(z + q, r + rq)
    assert_same(q + z, rq + r)
    assert_same(z - q, r - rq)
    assert_same(q - z, rq - r)
    assert_same(z * q, r * rq)
    assert_same(q * z, rq * r)
    if q != 0:
        assert_same(z / q, r / rq)
    if r.norm_sq() != 0:
        assert_same(q / z, rq / r)
    assert (z == q) == (r.im == 0 and r.re == q)
    assert (q == z) == (z == q)


@SETTINGS
@given(pairs, pairs)
def test_equal_values_hash_equal(x, y):
    zx, zy = ExactComplex(*x), ExactComplex(*y)
    # the same value, reduced from a doubled numerator and denominator
    assert hash(ExactComplex(2 * x[0], 2 * x[1]) / 2) == hash(zx)
    if zx == zy:
        assert hash(zx) == hash(zy)
    if zx.is_real():
        assert hash(zx) == hash(zx.re)
        assert zx in {zx.re} and zx.re in {zx}


@SETTINGS
@given(pairs)
def test_render_and_repr_match_reference(x):
    z, r = ExactComplex(*x), RefComplex(*x)
    assert z.render() == r.render()
    assert repr(z) == repr(r)


@SETTINGS
@given(pairs)
def test_to_complex_is_bit_equal(x):
    z = ExactComplex(*x).to_complex()
    ref = complex(*x)
    assert (z.real.hex(), z.imag.hex()) == (ref.real.hex(), ref.imag.hex())


huge = st.builds(Fraction, st.integers(-2 ** 1100, 2 ** 1100), st.integers(1, 2 ** 40))


@SETTINGS
@given(st.tuples(huge, st.one_of(huge, rationals)))
def test_to_complex_overflows_like_fraction(x):
    z, r = ExactComplex(*x), RefComplex(*x)
    got, want = to_complex_outcome(z), to_complex_outcome(r)
    if isinstance(want, complex):
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    else:
        assert got == want

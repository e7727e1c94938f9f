"""Exact Gaussian-rational and approximate complex scalars.

Every quantity in the package travels one of two pathways:

* exact  -- ``ExactComplex``, an element of Q(i) held as one Gaussian-integer
  numerator over one positive integer denominator, ``(a + b*i)/d`` with
  ``gcd(a, b, d) = 1``.  Field arithmetic in Q(i) is exact and runs on plain
  ints; the form is canonical, so equal values have equal fields.
* approx -- plain ``complex`` (binary64 components).

``Tolerance`` holds the tolerances a caller can set (the CLI's ``--tol``).
Fixed margins that are not a caller's choice stay with their code:
``variety`` keeps ``SMOOTH_MARGIN``, ``_SCREEN_SLACK`` and the noise floor
of ``_gap_rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Tuple, Union

from .errors import DivisionByZero

RationalLike = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class ExactComplex:
    """Element of Q(i): ``(a + b*i)/d`` with arbitrary-precision ints.

    ``d > 0`` and ``gcd(a, b, d) = 1``, so ``==`` compares fields.  A
    product is four int products and one gcd.  ``re`` and ``im`` read the
    parts as ``Fraction``.
    """

    __slots__ = ("_v",)  # the tuple (a, b, d)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set_v(self, (re, im, 1))
            return
        re, im = _as_fraction(re), _as_fraction(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        # over the lcm of two reduced denominators the form is canonical
        _set_v(self, (re.numerator * (d // p), im.numerator * (d // q), d))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    def __reduce__(self):
        # the default slot-state restore would call the raising __setattr__
        return (_canonical, self._v)

    @property
    def re(self) -> Fraction:
        a, _, d = self._v
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._v
        return Fraction(b, d)

    @property
    def fields(self) -> Tuple[int, int, int]:
        """The canonical ints ``(a, b, d)``; ``from_fields`` inverts it."""
        return self._v

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactComplex(x)
        raise TypeError(f"cannot coerce {x!r} to ExactComplex")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        a, b, d = self._v
        c, e, f = other._v
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        a, b, d = self._v
        c, e, f = other._v
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __neg__(self):
        a, b, d = self._v
        return _canonical(-a, -b, d)

    def __mul__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        a, b, d = self._v
        c, e, f = other._v
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "ExactComplex":
        a, b, d = self._v
        n = a * a + b * b
        if n == 0:
            raise DivisionByZero("inverse of exact zero")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * ExactComplex.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) * self.inverse()

    def conjugate(self) -> "ExactComplex":
        a, b, d = self._v
        return _canonical(a, -b, d)

    def norm_sq(self) -> Fraction:
        """|z|^2, exact."""
        a, b, d = self._v
        return Fraction(a * a + b * b, d * d)

    # -- predicates / conversion ---------------------------------------

    def is_zero(self) -> bool:
        return self._v[0] == 0 and self._v[1] == 0

    def is_real(self) -> bool:
        return self._v[1] == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, ExactComplex):
            return self._v == other._v
        if isinstance(other, (int, Fraction)):
            # a reduced rational is canonical too
            return self._v == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        a, b, d = self._v
        if b == 0:
            # equal to its Fraction (and int), so it must hash like one
            return hash(Fraction(a, d))
        return hash(self._v)

    def to_complex(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        a, b, d = self._v
        return complex(a / d, b / d)

    # complex(z) and numpy's casts to complex round as to_complex does
    __complex__ = to_complex

    def __repr__(self):
        if self.is_real():
            return f"ExactComplex({self.re})"
        return f"ExactComplex({self.re}, {self.im})"

    def render(self) -> str:
        """Human-readable ``a/b + c/d*i`` form used in reports."""
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re} {sign} {abs(im)}*i"


_set_v = ExactComplex._v.__set__
_new = object.__new__


def _canonical(a: int, b: int, d: int) -> ExactComplex:
    """The ExactComplex with fields (a, b, d), already canonical."""
    z = _new(ExactComplex)
    _set_v(z, (a, b, d))
    return z


def _reduced(a: int, b: int, d: int) -> ExactComplex:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(ExactComplex)
    _set_v(z, (a, b, d))
    return z


# (a + b*i)/d from any ints with d > 0, e.g. after work on Gaussian integers
from_fields = _reduced

EC_ZERO = ExactComplex(0)
EC_ONE = ExactComplex(1)


@dataclass(frozen=True)
class Tolerance:
    """The tolerances a caller can set.

    abs_eps sets the absolute thresholds downstream: the trace and
    reconstruction checks of a state, membership and root residuals, Newton
    targets and the witness threshold.
    rel_eps is read only by linalg._eigh, whose Hermitian-defect bound is
    abs_eps + rel_eps * ||A||.  eig_cutoff separates numerically zero
    eigenvalues (and leading coefficients) from real ones.
    """

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9
    eig_cutoff: float = 1e-10

    def __post_init__(self):
        if not (self.abs_eps > 0 and self.rel_eps > 0 and self.eig_cutoff > 0):
            raise ValueError("tolerance fields must be strictly positive")


DEFAULT_TOL = Tolerance()

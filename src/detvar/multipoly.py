"""Sparse multivariate polynomials over exact Gaussian rationals.

Terms live in a dict keyed by exponent vector; no zero coefficient is ever
stored.  The monomial order is graded lexicographic throughout (fixed, so
output renders deterministically and golden files diff cleanly).

Every routine an analysis runs is exact: evaluation and line restriction
take Q(i) polynomials and points only (TypeError otherwise), and a float
variety is decided on its pencil with no polynomial (``variety``).  The
approximate kind (kind="approx", python complex coefficients) survives
only for numeric code that no analysis calls and the traced benchmark
still lists: ``to_approx``, ``evaluation_scale``, ``CompiledSystem``
behind ``variety._newton_polish``, and the Sylvester resultant behind
``variety._plane_slice_candidates``.  For that resultant, the one
division-free determinant routine (a memoized Laplace expansion on raw
term dicts, serving ``symbolic_det`` and ``minors`` alike) runs
approximate entries on complex numbers, in the steps and order of Poly
arithmetic; exact entries run on Gaussian integers, each row cleared of
its denominators.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ArityMismatch,
    BadOrder,
    DegenerateLeadingCoefficient,
    DivisionByZero,
    NoConvergence,
    NonSquare,
    ZeroDirection,
)
from .scalars import DEFAULT_TOL, EC_ONE, EC_ZERO, ExactComplex, Tolerance, from_fields

Exponents = Tuple[int, ...]


def _coerce_coeff(c, kind: str):
    if kind == "exact":
        return ExactComplex.coerce(c)
    return complex(c)


def _is_zero_coeff(c, kind: str) -> bool:
    if kind == "exact":
        return c.is_zero()
    return c == 0


def grlex_key(exps: Exponents):
    return (sum(exps), exps)


def _require_exact(p: "Poly", coordinates: Sequence) -> None:
    if p.kind != "exact" or not all(isinstance(x, ExactComplex) for x in coordinates):
        raise TypeError("needs an exact polynomial and exact coordinates")


def _require_point(p: "Poly", point: Sequence) -> None:
    if len(point) != p.nvars:
        raise ArityMismatch(f"point has {len(point)} coordinates, not {p.nvars}")
    _require_exact(p, point)


class Poly:
    """Sparse polynomial; immutable by convention."""

    __slots__ = ("nvars", "kind", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponents, object], kind: str = "exact"):
        clean = {}
        for e, c in terms.items():
            if len(e) != nvars:
                raise ArityMismatch(f"exponent vector {e} does not have {nvars} entries")
            if not _is_zero_coeff(c, kind):
                clean[tuple(e)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int, kind: str = "exact") -> "Poly":
        return Poly(nvars, {}, kind)

    @staticmethod
    def const(nvars: int, c, kind: str = "exact") -> "Poly":
        return Poly(nvars, {tuple([0] * nvars): _coerce_coeff(c, kind)}, kind)

    @staticmethod
    def variable(i: int, nvars: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): EC_ONE})

    @staticmethod
    def univariate(coeffs: Sequence, kind: str = "exact") -> "Poly":
        """Ascending coefficient list -> polynomial in one variable."""
        return Poly(1, {(k,): _coerce_coeff(c, kind) for k, c in enumerate(coeffs)}, kind)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def used_vars(self) -> List[int]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return sorted(used)

    def leading(self) -> Tuple[Exponents, object]:
        """Leading (exponents, coeff) in graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def coeff(self, exps: Exponents):
        zero = EC_ZERO if self.kind == "exact" else 0j
        return self.terms.get(tuple(exps), zero)

    def sorted_terms(self) -> List[Tuple[Exponents, object]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- ring operations -----------------------------------------------------

    def _require_same_ring(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ArityMismatch(f"nvars mismatch: {self.nvars} vs {other.nvars}")
        if self.kind != other.kind:
            raise ArityMismatch("mixed exact/approx polynomial arithmetic")

    def __add__(self, other: "Poly") -> "Poly":
        self._require_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                out[e] = out[e] + c
            else:
                out[e] = c
        return Poly(self.nvars, out, self.kind)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()}, self.kind)

    def scale(self, c) -> "Poly":
        c = _coerce_coeff(c, self.kind)
        if _is_zero_coeff(c, self.kind):
            return Poly.zero(self.nvars, self.kind)
        return Poly(self.nvars, {e: v * c for e, v in self.terms.items()}, self.kind)

    def __mul__(self, other: "Poly") -> "Poly":
        self._require_same_ring(other)
        out: Dict[Exponents, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return Poly(self.nvars, out, self.kind)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(self.nvars, 1, self.kind)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars, self.kind, self.terms) == (other.nvars, other.kind, other.terms)

    def __hash__(self):
        return hash((self.nvars, self.kind, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- calculus / evaluation -------------------------------------------------

    def derivative(self, i: int) -> "Poly":
        out: Dict[Exponents, object] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return Poly(self.nvars, out, self.kind)

    def evaluate(self, point: Sequence) -> ExactComplex:
        """The value at a point, for an exact poly and an exact point only
        (TypeError otherwise).

        With the poly P/D and the point X/L over Z[i]: each term c*x^e of P
        contributes c * L^(deg - |e|) * X^e on Gaussian integers, from one
        power table per coordinate, and the sum is read once over
        D * L^deg."""
        _require_point(self, point)
        if not self.terms:
            return EC_ZERO
        deg = self.degree()
        scales, tables = self._cleared(point, deg)
        re = im = 0
        for e, c in self.terms.items():
            a, b = _gi_times(c, scales[deg - sum(e)])
            for row, k in zip(tables, e):
                if k:
                    u, w = row[k]
                    a, b = a * u - b * w, a * w + b * u
            re += a
            im += b
        return from_fields(re, im, scales[deg])

    def gradient(self, point: Sequence) -> List[ExactComplex]:
        """The m partial derivatives at a point, the values
        derivative(i).evaluate(point) reads, from one pass over the terms
        and evaluate's one power table: the partial of c*x^e in x_i
        contributes e_i * c * L^(deg - |e|) * X^(e - u_i), and each sum is
        read over D * L^(deg - 1).  Exact polys and points only."""
        _require_point(self, point)
        deg = self.degree()
        if deg < 1:
            return [EC_ZERO] * self.nvars
        scales, tables = self._cleared(point, deg)
        sums = [(0, 0)] * self.nvars
        for e, c in self.terms.items():
            a0, b0 = _gi_times(c, scales[deg - sum(e)])
            for i, ki in enumerate(e):
                if not ki:
                    continue
                a, b = a0 * ki, b0 * ki
                for j, (row, k) in enumerate(zip(tables, e)):
                    k -= i == j
                    if k:
                        u, w = row[k]
                        a, b = a * u - b * w, a * w + b * u
                sums[i] = (sums[i][0] + a, sums[i][1] + b)
        return [from_fields(re, im, scales[deg - 1]) for re, im in sums]

    def _cleared(self, point: Sequence, deg: int) -> Tuple[List[int], List[List[Tuple[int, int]]]]:
        """With the poly P/D of degree deg and the point X/L over Z[i]:
        the scales D * L^k for k = 0 .. deg, and per coordinate the powers
        X_i^k up to the poly's degree in x_i, as Gaussian integers."""
        big_l = lcm(*(x.fields[2] for x in point))
        scales = [lcm(*(c.fields[2] for c in self.terms.values()))]
        for _ in range(deg):
            scales.append(scales[-1] * big_l)
        tables = []
        for i, x in enumerate(point):
            row = [(1, 0)]
            xi = _gi_times(x, big_l)
            for _ in range(max(e[i] for e in self.terms)):
                row.append(_gi_mul(row[-1], xi))
            tables.append(row)
        return scales, tables

    def evaluation_scale(self, point: Sequence) -> float:
        """Sum of |coeff * monomial| at the point: the natural magnitude
        against which a near-zero evaluation should be judged."""
        pt = [complex(x) for x in point]
        acc = 0.0
        for e, c in self.terms.items():
            cv = abs(c.to_complex() if isinstance(c, ExactComplex) else c)
            for i, k in enumerate(e):
                if k:
                    cv *= abs(pt[i]) ** k
            acc += cv
        return acc

    def to_approx(self) -> "Poly":
        if self.kind == "approx":
            return self
        return Poly(self.nvars, {e: c.to_complex() for e, c in self.terms.items()}, "approx")

    # -- exact division ----------------------------------------------------------

    def divides_into(self, p: "Poly") -> Optional["Poly"]:
        """p / self when the division is exact, else None, for self an
        exact form of degree 1, homogeneous or affine (DivisionByZero for
        zero, TypeError for any other divisor).  Synthetic division in the
        variable x_j of self's leading term, self = c_j*x_j + R: p's terms
        are bucketed by their power of x_j and the powers walked down; a
        term c*x^e left at power k gives the quotient term (c/c_j)*x^e/x_j,
        whose product with R comes off power k - 1.  The division is exact
        iff nothing is left at power 0.  The quotient's terms come in
        descending grlex order."""
        p._require_same_ring(self)
        if self.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.kind != "exact" or self.degree() != 1:
            raise TypeError("divides_into needs an exact divisor of degree 1")
        lead, cj = self.leading()
        j, inv = lead.index(1), cj.inverse()
        rest = [(e, c) for e, c in self.terms.items() if e != lead]
        buckets: List[Dict[Exponents, ExactComplex]] = [{} for _ in range(p.degree_in(j) + 1)]
        for e, c in p.terms.items():
            buckets[e[j]][e] = c
        quot = {}
        for k in range(len(buckets) - 1, 0, -1):
            lower = buckets[k - 1]
            for e, c in buckets[k].items():
                if c.is_zero():
                    continue
                d = e[:j] + (k - 1,) + e[j + 1:]
                quot[d] = c = c * inv
                for e2, c2 in rest:
                    tgt = tuple(a + b for a, b in zip(d, e2))
                    lower[tgt] = lower.get(tgt, EC_ZERO) - c * c2
        if buckets and any(not c.is_zero() for c in buckets[0].values()):
            return None
        return Poly(self.nvars, dict(Poly(self.nvars, quot).sorted_terms()))

    # -- rendering ------------------------------------------------------------

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        """Canonical graded-lex text form: "coeff*r1^a*r2^b" joined by " + "."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"r{i + 1}" for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            if self.kind == "exact":
                cs = c.render()
                if ("+" in cs[1:]) or ("-" in cs[1:]) or "i" in cs:
                    cs = f"({cs})"
            else:
                cs = repr(c)
            monos = [f"{names[i]}^{k}" for i, k in enumerate(e) if k]
            parts.append("*".join([cs] + monos))
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.render()})"


def _flat_terms(p: Poly) -> Tuple[Tuple[complex, float, Tuple[Tuple[int, int], ...]], ...]:
    out = []
    for e, c in p.terms.items():
        cv = c.to_complex() if isinstance(c, ExactComplex) else c
        out.append((cv, abs(cv), tuple((i, k) for i, k in enumerate(e) if k)))
    return tuple(out)


class CompiledSystem:
    """A list of polynomials flattened once for many floating-point
    evaluations.

    Each term is (complex coefficient, |coefficient|, the (variable, power)
    pairs in use), in the polynomial's own term order; the partial
    derivatives of each polynomial's approximate form are stored the same
    way, built on first use.  A value is the coefficient times each power
    in variable order, taken from a per-point table of Python's own ``**``,
    summed term by term; a scale equals Poly.evaluation_scale exactly.

    One table per point (``table``) serves values, scales and Jacobian;
    nothing is cached on the point, as 0.0 == -0.0 while their
    powers differ in the sign of zero.  All of it is Python float
    arithmetic: numpy's complex multiply may fuse a multiply and an add.
    """

    __slots__ = ("polys", "nvars", "_terms", "_partials", "_top")

    def __init__(self, polys: Sequence[Poly], nvars: int):
        self.polys = list(polys)
        self.nvars = nvars
        self._terms = [_flat_terms(p) for p in self.polys]
        self._partials = None
        self._top = [max((p.degree_in(i) for p in self.polys), default=0)
                     for i in range(nvars)]

    def table(self, point: Sequence):
        """The powers z_i ** k and |z_i| ** k every evaluation at point reads."""
        pt = [complex(x) for x in point]
        pw = [[z ** k for k in range(top + 1)] for z, top in zip(pt, self._top)]
        apw = [[abs(z) ** k for k in range(top + 1)] for z, top in zip(pt, self._top)]
        return pw, apw

    @staticmethod
    def _value(terms, pw) -> complex:
        acc = 0j
        for c, _, mono in terms:
            for i, k in mono:
                c *= pw[i][k]
            acc += c
        return acc

    @staticmethod
    def _value_scale(terms, pw, apw) -> Tuple[complex, float]:
        acc, sacc = 0j, 0.0
        for c, a, mono in terms:
            for i, k in mono:
                c *= pw[i][k]
                a *= apw[i][k]
            acc += c
            sacc += a
        return acc, sacc

    def _partial_terms(self):
        if self._partials is None:
            self._partials = [[_flat_terms(p.to_approx().derivative(i))
                               for i in range(self.nvars)] for p in self.polys]
        return self._partials

    def values_scales(self, point: Sequence, table=None) -> Tuple[List[complex], List[float]]:
        pw, apw = table or self.table(point)
        pairs = [self._value_scale(terms, pw, apw) for terms in self._terms]
        return [val for val, _ in pairs], [scale for _, scale in pairs]

    def residual(self, point: Sequence, table=None) -> float:
        """Worst |value| / scale over the system (0.0 when it is empty)."""
        worst = 0.0
        for val, scale in zip(*self.values_scales(point, table)):
            worst = max(worst, abs(val) / max(scale, 1e-300))
        return worst

    def jacobian(self, point: Sequence, cols: Sequence[int], table=None,
                 scales: Optional[Sequence[float]] = None) -> List[List[complex]]:
        """Rows d p / d x_i for i in cols, each divided by the scale of p
        (from ``scales``, as values_scales gives them, if passed)."""
        table = table or self.table(point)
        if scales is None:
            _, scales = self.values_scales(point, table)
        return [[self._value(partials[i], table[0]) / max(scale, 1e-300) for i in cols]
                for partials, scale in zip(self._partial_terms(), scales)]


# ---------------------------------------------------------------------------
# Linear forms
# ---------------------------------------------------------------------------

class LinearForm:
    """a_1 x_1 + ... + a_k x_k + constant, normalized so the first nonzero
    coefficient is 1 (the constant alone is never a valid form)."""

    __slots__ = ("coefficients", "constant", "nvars")

    def __init__(self, coefficients: Sequence, constant=0, normalize: bool = True):
        def conv(c):
            if isinstance(c, (float, complex)) and not isinstance(c, bool):
                return complex(c)
            return ExactComplex.coerce(c)

        coeffs = [conv(c) for c in coefficients]
        const = conv(constant)
        if any(isinstance(c, complex) for c in coeffs) or isinstance(const, complex):
            coeffs = [c.to_complex() if isinstance(c, ExactComplex) else c for c in coeffs]
            const = const.to_complex() if isinstance(const, ExactComplex) else const
        if normalize:
            lead = next((c for c in coeffs if not _is_lf_zero(c)), None)
            if lead is None:
                raise ValueError("linear form needs a nonzero coefficient")
            inv = (1.0 / lead) if isinstance(lead, complex) else lead.inverse()
            coeffs = [c * inv for c in coeffs]
            const = const * inv
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "constant", const)
        object.__setattr__(self, "nvars", len(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("LinearForm is immutable")

    @property
    def kind(self) -> str:
        return "approx" if isinstance(self.constant, complex) else "exact"

    @staticmethod
    def variable(i: int, nvars: int) -> "LinearForm":
        coeffs = [EC_ZERO] * nvars
        coeffs[i] = EC_ONE
        return LinearForm(coeffs, EC_ZERO, normalize=False)

    def is_homogeneous(self) -> bool:
        return _is_lf_zero(self.constant)

    def to_poly(self, nvars: Optional[int] = None, kind: Optional[str] = None) -> Poly:
        nvars = self.nvars if nvars is None else nvars
        kind = self.kind if kind is None else kind

        def conv(c):
            if kind == "approx" and isinstance(c, ExactComplex):
                return c.to_complex()
            return c

        if nvars < self.nvars:
            raise ArityMismatch("cannot shrink a linear form")
        terms: Dict[Exponents, object] = {}
        for i, c in enumerate(self.coefficients):
            if not _is_lf_zero(c):
                e = [0] * nvars
                e[i] = 1
                terms[tuple(e)] = conv(c)
        if not _is_lf_zero(self.constant):
            terms[tuple([0] * nvars)] = conv(self.constant)
        return Poly(nvars, terms, kind)

    def evaluate(self, point: Sequence):
        acc = self.constant
        for c, x in zip(self.coefficients, point):
            acc = acc + c * x
        return acc

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coefficients == other.coefficients and self.constant == other.constant

    def __hash__(self):
        return hash((self.coefficients, self.constant))

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        return self.to_poly().render(names)

    def __repr__(self):
        return f"LinearForm({self.render()})"


def _is_lf_zero(c) -> bool:
    return c == 0 if isinstance(c, complex) else c.is_zero()


# ---------------------------------------------------------------------------
# Symbolic determinants and minors
# ---------------------------------------------------------------------------

# a term dict of _laplace: {packed monomial: coefficient}
Terms = Dict[int, object]


def _gi_mul(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    (x, y), (u, w) = a, b
    return x * u - y * w, x * w + y * u


def _gi_add(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    return a[0] + b[0], a[1] + b[1]


def _gi_sub(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    return a[0] - b[0], a[1] - b[1]


def _gi_neg(a: Tuple[int, int]) -> Tuple[int, int]:
    return -a[0], -a[1]


def _gi_times(z: ExactComplex, k: int) -> Tuple[int, int]:
    """z * k as a Gaussian integer, for k a multiple of z's denominator."""
    a, b, d = z.fields
    return a * (k // d), b * (k // d)


# (mul, add, sub, neg, zero) of the coefficients _laplace works on:
# Gaussian integers as (re, im) int pairs, and complex numbers
_GAUSSIAN_INTEGERS = (_gi_mul, _gi_add, _gi_sub, _gi_neg, (0, 0))
_COMPLEX_NUMBERS = (operator.mul, operator.add, operator.sub, operator.neg, 0j)


def _laplace(rows: List[List[Terms]], rs: Tuple[int, ...], cs: Tuple[int, ...],
             memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Terms], ring) -> Terms:
    """Determinant of rows[rs] x columns cs by Laplace expansion along its
    first row, the entries of that row that are zero skipped.

    Entries are raw term dicts {monomial: coefficient}, each monomial an
    int that packs its exponent vector (so the product of two monomials is
    their sum), with coefficients in `ring` = (mul, add, sub, neg, zero).
    Each product of an entry and a cofactor drops its zero coefficients
    once it is complete; adding it to (even column) or subtracting it from
    (odd column) the sum drops a coefficient as soon as it cancels.  These
    are the steps, in the order, of Poly's own +, - and *, so the result
    has the terms, term order and (on complex numbers) float bits that Poly
    arithmetic would give: in IEEE arithmetic x - y is x + (-y) bit for bit.

    memo holds every minor built so far under (rs, cs), so a minor of the
    lower rows is built once and shared by all the larger minors that
    contain it.  The kernel never unpacks a monomial; ``minors`` and
    ``symbolic_det`` pack w bits per variable (``_laplace_input``).
    """
    if len(cs) == 1:
        return rows[rs[0]][cs[0]]
    key = (rs, cs)
    det = memo.get(key)
    if det is not None:
        return det
    mul, add, sub, neg, zero = ring
    top = rows[rs[0]]
    det = {}
    for j, c in enumerate(cs):
        entry = top[c]
        if not entry:
            continue
        cofactor = _laplace(rows, rs[1:], cs[:j] + cs[j + 1:], memo, ring)
        term: Terms = {}
        for e1, c1 in entry.items():
            for e2, c2 in cofactor.items():
                e = e1 + e2
                x = mul(c1, c2)
                prev = term.get(e)
                term[e] = x if prev is None else add(prev, x)
        odd = j % 2
        for e, x in term.items():
            if x == zero:
                continue
            prev = det.get(e)
            if prev is None:
                det[e] = neg(x) if odd else x
                continue
            x = sub(prev, x) if odd else add(prev, x)
            if x == zero:
                del det[e]
            else:
                det[e] = x
    memo[key] = det
    return det


def _laplace_input(rows: List[List[Poly]]):
    """(entries, ring, rebuild) for _laplace on a matrix of polynomials.

    An exponent vector e is packed into the int sum of e_i << (w * i), w
    bits being enough for the degree of any minor in any variable, so no
    sum of monomials carries.  Approximate coefficients go in as they are.
    Exact row r is cleared to Z[i] over d_r, the lcm of the denominators of
    its coefficients; a minor on rows rs then comes out over the product of
    d_r for r in rs, and rebuild(terms, rs) divides that out with one
    from_fields per coefficient.  A nonzero factor per row keeps every zero
    where it was, so the terms and their order are those of the expansion
    on ExactComplex coefficients.
    """
    if len({(p.nvars, p.kind) for r in rows for p in r}) > 1:
        raise ArityMismatch("entries must share nvars and kind")
    nvars, kind = rows[0][0].nvars, rows[0][0].kind
    w = (len(rows) * max(1, *(p.degree() for r in rows for p in r))).bit_length()
    mask = (1 << w) - 1

    def pack(e: Exponents) -> int:
        return sum(k << (w * i) for i, k in enumerate(e))

    def unpack(key: int) -> Exponents:
        return tuple((key >> (w * i)) & mask for i in range(nvars))

    if kind == "approx":
        def rebuild(terms: Terms, rs: Tuple[int, ...]) -> Poly:
            return Poly(nvars, {unpack(e): c for e, c in terms.items()}, "approx")

        return ([[{pack(e): c for e, c in p.terms.items()} for p in row] for row in rows],
                _COMPLEX_NUMBERS, rebuild)
    dens, entries = [], []
    for row in rows:
        d = lcm(*(c.fields[2] for p in row for c in p.terms.values()))
        dens.append(d)
        entries.append([{pack(e): _gi_times(c, d) for e, c in p.terms.items()} for p in row])

    def rebuild(terms: Terms, rs: Tuple[int, ...]) -> Poly:
        den = math.prod(dens[r] for r in rs)
        return Poly(nvars, {unpack(e): from_fields(a, b, den) for e, (a, b) in terms.items()})

    return entries, _GAUSSIAN_INTEGERS, rebuild


def symbolic_det(rows: List[List[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials, exact on exact entries.

    Division-free Laplace expansion along the first row, each minor of the
    lower rows built once (``_laplace``): on Gaussian integers, each row
    cleared of its denominators, for exact entries, and on complex numbers
    for approximate ones.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare("symbolic_det needs a square matrix")
    if n == 0:
        raise NonSquare("empty matrix")
    entries, ring, rebuild = _laplace_input(rows)
    rs = tuple(range(n))
    return rebuild(_laplace(entries, rs, rs, {}, ring), rs)


def sylvester_resultant(a: Poly, b: Poly) -> Poly:
    """Resultant of two bivariate polynomials eliminating variable 1.

    Both are read as polynomials in variable 1 with coefficients univariate
    in variable 0; the result is the determinant of their Sylvester matrix,
    a 1-variable polynomial of the inputs' kind.
    """
    def coeffs_in_y(p: Poly) -> List[Poly]:
        buckets: List[dict] = [dict() for _ in range(p.degree_in(1) + 1)]
        for (ex, ey), c in p.terms.items():
            buckets[ey][(ex,)] = c
        return [Poly(1, t, p.kind) for t in buckets]

    ca, cb = coeffs_in_y(a), coeffs_in_y(b)
    da, db = len(ca) - 1, len(cb) - 1
    zero = Poly.zero(1, a.kind)
    rows: List[List[Poly]] = []
    for shifts, coeffs in ((db, ca), (da, cb)):
        for i in range(shifts):
            row = [zero] * (da + db)
            for k, c in enumerate(reversed(coeffs)):
                row[i + k] = c
            rows.append(row)
    return symbolic_det(rows)


def minors(rows: List[List[Poly]], k: int) -> List[Poly]:
    """All k x k minors, in lexicographic row-subset then column-subset order.

    One Laplace expansion (``_laplace``) serves them all: a smaller minor
    is built once and shared by every k x k minor that contains it.  Exact
    entries are expanded on Gaussian integers, each row cleared of its
    denominators, and each minor is rebuilt over the product of the
    denominators of its rows; approximate ones on complex numbers.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if k > min(nr, nc) or k < 1:
        raise BadOrder(f"cannot take {k}x{k} minors of a {nr}x{nc} matrix")
    entries, ring, rebuild = _laplace_input(rows)
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Terms] = {}
    return [rebuild(_laplace(entries, rsub, csub, memo, ring), rsub)
            for rsub in combinations(range(nr), k) for csub in combinations(range(nc), k)]


# ---------------------------------------------------------------------------
# Substitution and restriction
# ---------------------------------------------------------------------------

def substitute_affine(p: Poly, mapping: Dict[int, LinearForm]) -> Poly:
    """Compose p with x_i -> mapping[i] (a linear form, constants allowed).

    The map must cover every variable of p.  The forms may have any number
    of variables, the same for all of them, and the result lives in that
    many variables.
    """
    for i in range(p.nvars):
        if i not in mapping:
            raise ArityMismatch(f"substitution map misses variable {i}")
    arities = {mapping[i].nvars for i in range(p.nvars)}
    if len(arities) != 1:
        raise ArityMismatch("substitution forms must share one arity")
    nvars = arities.pop()
    images = [mapping[i].to_poly(nvars, p.kind) for i in range(p.nvars)]
    acc = Poly.zero(nvars, p.kind)
    pow_cache: Dict[Tuple[int, int], Poly] = {}

    def img_pow(i: int, k: int) -> Poly:
        key = (i, k)
        if key not in pow_cache:
            pow_cache[key] = images[i] ** k
        return pow_cache[key]

    for e, c in p.terms.items():
        term = Poly.const(nvars, c, p.kind)
        for i, k in enumerate(e):
            if k:
                term = term * img_pow(i, k)
        acc = acc + term
    return acc


def _line_horner(terms: List[Tuple[Exponents, Tuple[int, int]]],
                 lines: List[Tuple[Tuple[int, int], ...]]) -> Tuple[List[int], List[int]]:
    """Ascending coefficients over Z[i], as lists of real and of imaginary
    parts, of the sum over terms (e, c) of c * prod_i (B_i + s*V_i)^e_i,
    with lines[i] = (B_i, V_i).  Horner's rule in the first variable: the
    terms are grouped by their power of it, and from the top power down
    the sum so far is multiplied by B_0 + s*V_0 and the group's sum in the
    other variables, taken the same way, is added.  A constant ends it."""
    e, (a, b) = terms[0]
    if len(terms) == 1 and not any(e):
        return [a], [b]
    groups: Dict[int, List[Tuple[Exponents, Tuple[int, int]]]] = {}
    for e, c in terms:
        groups.setdefault(e[0], []).append((e[1:], c))
    ((br, bi), (vr, vi)), others = lines[0], lines[1:]
    top = max(groups)
    re, im = _line_horner(groups[top], others)
    for k in range(top - 1, -1, -1):
        pairs = list(zip(re + [0], im + [0], [0] + re, [0] + im))
        re = [br * x - bi * y + vr * u - vi * w for x, y, u, w in pairs]
        im = [br * y + bi * x + vr * w + vi * u for x, y, u, w in pairs]
        if k in groups:
            gr, gi = _line_horner(groups[k], others)
            re += [0] * (len(gr) - len(re))
            im += [0] * (len(gi) - len(im))
            for i, (x, y) in enumerate(zip(gr, gi)):
                re[i] += x
                im[i] += y
    return re, im


def restrict_to_line(p: Poly, base: Sequence, direction: Sequence) -> Poly:
    """The univariate polynomial s -> p(base + s*direction), for an exact
    p on an exact line only (TypeError otherwise).

    With p = P/D, base = B/d_b and direction = V/d_v over Z[i] and
    L = d_b*d_v, each term c*x^e of P contributes
    c * L^(deg - |e|) * prod_i (B_i*d_v + s*V_i*d_b)^e_i on Gaussian
    integers, summed by Horner's rule over the variables (_line_horner),
    and each coefficient of the sum over D * L^deg is built once.
    """
    if len(base) != p.nvars or len(direction) != p.nvars:
        raise ArityMismatch("point arity mismatch")
    _require_exact(p, (*base, *direction))
    if all(x.is_zero() for x in direction):
        raise ZeroDirection("restriction direction is zero")
    deg = p.degree()
    den = lcm(*(c.fields[2] for c in p.terms.values()))
    big_l = lcm(*(x.fields[2] for x in base)) * lcm(*(x.fields[2] for x in direction))
    terms = [(e, _gi_times(c, den * big_l ** (deg - sum(e)))) for e, c in p.terms.items()]
    lines = [(_gi_times(b, big_l), _gi_times(v, big_l)) for b, v in zip(base, direction)]
    re, im = _line_horner(terms, lines) if terms else ([], [])
    return Poly.univariate([from_fields(x, y, den * big_l ** deg) for x, y in zip(re, im)])


def univariate_coeffs(p: Poly) -> List:
    """Ascending coefficient list of a 1-variable polynomial."""
    if p.nvars != 1:
        raise ArityMismatch("univariate_coeffs needs a 1-variable polynomial")
    d = p.degree()
    zero = EC_ZERO if p.kind == "exact" else 0j
    out = [zero] * (d + 1 if d >= 0 else 1)
    for (k,), c in p.terms.items():
        out[k] = c
    return out


# ---------------------------------------------------------------------------
# Univariate complex roots (companion-matrix eigenvalues)
# ---------------------------------------------------------------------------

def univariate_roots(p, tol: Tolerance = DEFAULT_TOL) -> List[complex]:
    """All complex roots of a univariate polynomial, approximate pathway.

    Accepts a 1-variable Poly (either kind) or an ascending coefficient
    sequence.  The roots are the eigenvalues of the companion matrix
    (``np.roots``, which keeps exact zero roots with their multiplicity), a
    backward-stable root finder (Edelman and Murakami, Math. Comp. 64,
    1995).  Each returned root z satisfies |p(z)| <= abs_eps * scale(z)
    with scale the coefficient-magnitude sum at z; NoConvergence if the
    eigenvalues cannot be taken or a root misses that bar.
    """
    coeffs = [complex(c) for c in (univariate_coeffs(p) if isinstance(p, Poly) else p)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 1:
        raise DegenerateLeadingCoefficient("need degree >= 1")
    cmax = max(abs(c) for c in coeffs)
    if abs(coeffs[-1]) <= tol.eig_cutoff * cmax:
        raise DegenerateLeadingCoefficient(
            f"leading coefficient {abs(coeffs[-1]):.3e} below cutoff")

    desc = np.array(coeffs[::-1])
    try:
        zs = np.roots(desc).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion eigenvalues not taken: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.abs(np.polyval(desc, zs)) / np.maximum(
            np.polyval(np.abs(desc), np.abs(zs)), 1e-300)
    if not np.all(residuals <= tol.abs_eps):  # a NaN residual fails too
        raise NoConvergence("a companion eigenvalue misses the residual bar")
    return zs.tolist()

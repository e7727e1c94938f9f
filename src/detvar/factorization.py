"""Gaussian-rational linear factors of exact forms, found on exact lines.

A Q(i) hyperplane dividing each of some exact forms k times meets an exact
line at a Q(i) root of the gcd of their restrictions, of multiplicity k or
more, or at infinity, where every restriction drops degree.  Each such
point gives a candidate normal, verified by exact division
(linear_factors), in any number of variables and of any degree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .exactroots import ec_gcd, ec_trim, gaussian_rational_roots
from .multipoly import LinearForm, Poly, restrict_to_line, univariate_coeffs
from .scalars import EC_ZERO, ExactComplex
from .states import Stream


class FactorList(NamedTuple):
    """unit * prod(linear_factors) * residual == the factored form, exactly;
    residual is None after a full split.  certified: a line proved that
    the residual has no Q(i) linear factor (True after a full split)."""

    unit: ExactComplex
    linear_factors: List[LinearForm]
    residual: Optional[Poly]
    certified: bool

    def remultiply(self, nvars: int) -> Poly:
        acc = Poly.const(nvars, self.unit)
        for f in self.linear_factors:
            acc = acc * f.to_poly(nvars)
        return acc if self.residual is None else acc * self.residual


def _random_exact_point(rng: random.Random, m: int) -> List[ExactComplex]:
    while True:
        pt = [ExactComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
              for _ in range(m)]
        if any(not x.is_zero() for x in pt):
            return pt


def _exact_points(rng: random.Random, count: int, m: int) -> Tuple[Tuple[ExactComplex, ...], ...]:
    """`count` points of _random_exact_point(rng, m) in turn, as tuples."""
    return tuple(tuple(_random_exact_point(rng, m)) for _ in range(count))


def _line_gcd(gens: Sequence[Poly], base: Sequence[ExactComplex],
              direction: Sequence[ExactComplex]) -> Tuple[List[ExactComplex], bool]:
    """The gcd of the restrictions s -> g(base + s*direction) of the exact
    generators (empty when all vanish), and whether some restriction keeps
    full degree.  Stops at the first generator that makes the gcd a
    constant with full degree seen: the line is then certainly missed."""
    common: List[ExactComplex] = []
    full_degree = False
    for g in gens:
        coeffs = ec_trim(univariate_coeffs(restrict_to_line(g, base, direction)))
        full_degree = full_degree or len(coeffs) == g.degree() + 1
        common = ec_gcd(common, coeffs)
        if len(common) == 1 and full_degree:
            break
    return common, full_degree


def _divide_out(form: LinearForm, gens: Sequence[Poly]) -> Optional[List[Poly]]:
    """The exact quotients of positive degree of the generators by the
    form; None if the form does not divide one of them."""
    fp = form.to_poly()
    quotients = []
    for g in gens:
        q = fp.divides_into(g)
        if q is None:
            return None
        quotients.append(q)
    return [q for q in quotients if q.degree() >= 1]


def _hyperplane_normal(gens: Sequence[Poly], point: Sequence[ExactComplex],
                       k: int) -> Optional[List[ExactComplex]]:
    """The exact gradient at point of d_j^(k-1) g for the first generator g
    and variable j where it is nonzero, or None; all m partials come from
    one pass over the terms (Poly.gradient).  If l = a . x vanishes at
    point and l^k divides g, then d_j^(k-1) g = k! * a_j^(k-1) * l * (g/l^k)
    modulo l^2, so that gradient is zero or a multiple of a."""
    for g in gens:
        for j in range(len(point) if k > 1 else 1):
            h = g
            for _ in range(k - 1):
                h = h.derivative(j)
            grad = h.gradient(point)
            if any(not c.is_zero() for c in grad):
                return grad
    return None


def _peel(polys: Sequence[Poly], m: int) -> Tuple[List[LinearForm], List[Poly], bool]:
    """linear_factors, and whether the peel ended certified: nothing left,
    or a line proved that nothing more divides."""
    forms: List[LinearForm] = []
    lines = Stream(_exact_points, 20211, 16, m)
    current = list(polys)
    misses = 0
    while current and misses < m:
        base, direction = lines.read(2)
        common, full_degree = _line_gcd(current, base, direction)
        misses += 1
        if not common:  # every restriction vanishes
            continue
        roots = gaussian_rational_roots(common)
        if full_degree and not roots:
            return forms, current, True
        candidates = [([b + s * d for b, d in zip(base, direction)], k) for s, k in roots]
        if not full_degree:
            candidates.append((direction, 1))
        for point, k in candidates:
            normal = _hyperplane_normal(current, point, k)
            if normal is None:
                continue
            form = LinearForm(normal)
            while current and (rest := _divide_out(form, current)) is not None:
                forms.append(form)
                current = rest
                misses = 0
    return forms, current, not current


def linear_factors(polys: Sequence[Poly], m: int) -> Tuple[List[LinearForm], List[Poly]]:
    """The Q(i) hyperplanes dividing every one of the exact forms polys in
    m variables, with multiplicity, and the quotients of positive degree
    that remain.  One exact line per round, from the stream
    random.Random(20211), whose first 16 points are kept per m (Stream).
    The peel stops when nothing is left, or on a
    line that certifies that nothing more divides: a restriction of full
    degree and a gcd with no Q(i) root.  A round that peels nothing
    otherwise draws the next line; after m such rounds in a row the peel
    ends uncertified."""
    return _peel(polys, m)[:2]


def _factor_key(form: LinearForm, used: List[int]) -> tuple:
    c = [form.coefficients[i] for i in used]
    only_last = all(x.is_zero() for x in c[:-1])
    c += [EC_ZERO] * (3 - len(c))
    return (not only_last, c[0].is_zero(), -c[1].re, -c[1].im,
            *(part for x in c[2:] for part in (x.re, x.im)))


def _factor_list(unit: ExactComplex, forms: List[LinearForm], used: List[int],
                 residual: Optional[Poly] = None, certified: bool = True) -> FactorList:
    """The factor list with its forms in the one order of a factor list.
    On the coefficients c of the factored form's used variables, the
    factors come in the last used variable alone first, then those with
    c_0 != 0 by -c_1 and c_2, then the rest by c_2, each real part before
    its imaginary part.  A normalized form is fixed by those coefficients,
    so distinct forms never tie and the order does not depend on the order
    the forms were found in."""
    forms.sort(key=lambda f: _factor_key(f, used))
    return FactorList(unit, forms, residual, certified)


def linear_factorization(g: Poly) -> FactorList:
    """Every Q(i) linear factor of the exact form g, with multiplicity,
    found by linear_factors: the unit is g's leading coefficient, the
    residual what remains made monic, or None after a full split, and
    certified whether the peel ended on a certificate.  The factors come
    in the order of _factor_list."""
    forms, rest, certified = _peel([g], g.nvars)
    residual = rest[0].scale(rest[0].leading()[1].inverse()) if rest else None
    return _factor_list(g.leading()[1], forms, g.used_vars(), residual, certified)


def product_factorization(scale: ExactComplex,
                          rays: Sequence[Sequence[ExactComplex]]) -> FactorList:
    """The factor list of scale * prod_l (a_l . x), for a nonzero scale and
    nonzero exact vectors a_l, with no product expanded: by unique
    factorization, the one linear_factorization gives for the expanded
    form wherever its peel splits it.  LinearForm(a_l) is a_l over its
    first nonzero coefficient, which is its grlex-leading one, so the
    product of the forms is monic and the unit is scale times those
    coefficients; the supports of the a_l make up the used variables."""
    unit = scale
    for a in rays:
        unit = unit * next(c for c in a if not c.is_zero())
    used = sorted({i for a in rays for i, c in enumerate(a) if not c.is_zero()})
    return _factor_list(unit, [LinearForm(a) for a in rays], used)

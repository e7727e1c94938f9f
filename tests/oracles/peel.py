"""The exact factor engine that ``detvar.factorization.linear_factors``
replaced in commit 082da0c, kept verbatim as a reference for the tests that
compare the two; only its imports are absolute and ``UnsupportedShape`` is
defined here.

Exact extraction of Gaussian-rational linear factors.

Supported shapes (the ones the pipeline needs): homogeneous polynomials in
at most three variables of total degree <= 6, and affine bivariate
polynomials of degree <= 3.  All Q(i)-linear factors are found, with
multiplicity, and certified complete:

* the direction (top-degree part) of any linear factor must divide the
  top form, a binary form whose Q(i) roots the exact finder enumerates;
* for each direction, admissible offsets are common roots of the
  coefficient system obtained by substituting the parametrized zero locus,
  collapsed by a gcd and solved by the same exact finder;
* every candidate is verified by exact division, which also yields its
  multiplicity, so the residual provably carries no Q(i)-linear factor.

An empty factor list for an affine bivariate cubic therefore certifies
irreducibility over Q(i): a reducible cubic necessarily has a degree-1
factor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from detvar.exactroots import ec_gcd, ec_trim, gaussian_rational_roots
from detvar.multipoly import LinearForm, Poly, substitute_affine, univariate_coeffs
from detvar.scalars import EC_ONE, EC_ZERO, ExactComplex


class UnsupportedShape(Exception):
    pass


class FactorList:
    """unit * prod(linear_factors) * residual == original, exactly."""

    __slots__ = ("unit", "linear_factors", "residual")

    def __init__(self, unit: ExactComplex, linear_factors: List[LinearForm],
                 residual: Optional[Poly]):
        self.unit = unit
        self.linear_factors = list(linear_factors)
        self.residual = residual

    def remultiply(self, nvars: int) -> Poly:
        acc = Poly.const(nvars, self.unit)
        for f in self.linear_factors:
            acc = acc * f.to_poly(nvars)
        if self.residual is not None:
            acc = acc * self.residual
        return acc

    def full_split(self) -> bool:
        return self.residual is None

    def __repr__(self):
        res = "1" if self.residual is None else self.residual.render()
        return (f"FactorList(unit={self.unit.render()}, "
                f"factors={[f.render() for f in self.linear_factors]}, residual={res})")


# ---------------------------------------------------------------------------
# variable compaction (work in the used variables only)
# ---------------------------------------------------------------------------

def _compact(p: Poly) -> Tuple[Poly, List[int]]:
    used = p.used_vars()
    terms = {}
    for e, c in p.terms.items():
        terms[tuple(e[i] for i in used)] = c
    return Poly(len(used), terms, p.kind), used


def _expand_form(f: LinearForm, used: List[int], nvars: int) -> LinearForm:
    coeffs = [EC_ZERO] * nvars
    for k, i in enumerate(used):
        coeffs[i] = f.coefficients[k]
    return LinearForm(coeffs, f.constant, normalize=False)


def _expand_poly(p: Poly, used: List[int], nvars: int) -> Poly:
    terms = {}
    for e, c in p.terms.items():
        full = [0] * nvars
        for k, i in enumerate(used):
            full[i] = e[k]
        terms[tuple(full)] = c
    return Poly(nvars, terms, p.kind)


# ---------------------------------------------------------------------------
# binary (two-variable homogeneous) forms
# ---------------------------------------------------------------------------

def _factor_binary_form(p: Poly) -> Tuple[List[LinearForm], Poly]:
    """Linear factors of a homogeneous polynomial in two variables.

    Over C a binary form splits completely; here only the Q(i) factors are
    extracted and the residual keeps whatever needs an extension field.
    """
    factors: List[LinearForm] = []
    q = p
    ymin = min(e[1] for e in q.terms)
    for _ in range(ymin):
        y = LinearForm([EC_ZERO, EC_ONE], normalize=False)
        q = q.exact_div(y.to_poly(2))
        factors.append(y)
    # dehomogenize on y: roots s of q(x, 1) give factors (x - s*y)
    d = q.degree()
    coeffs = [EC_ZERO] * (d + 1)
    for (ex, ey), c in q.terms.items():
        coeffs[ex] = c
    for root, mult in gaussian_rational_roots(coeffs):
        form = LinearForm([EC_ONE, -root], normalize=False)
        fp = form.to_poly(2)
        for _ in range(mult):
            q = q.exact_div(fp)
            factors.append(form)
    return factors, q


# ---------------------------------------------------------------------------
# affine bivariate engine
# ---------------------------------------------------------------------------

def _direction_candidates(p: Poly) -> List[LinearForm]:
    """Normalized (a, b) with a*x + b*y dividing the top form of p."""
    d = p.degree()
    top = Poly(2, {e: c for e, c in p.terms.items() if sum(e) == d})
    dirs: List[LinearForm] = []
    # a != 0, normalized a = 1: top(x, y) with x = s*y vanishing <=> s root
    u = [EC_ZERO] * (d + 1)
    for (ex, ey), c in top.terms.items():
        u[ex] = c
    for s, _ in gaussian_rational_roots(u):
        dirs.append(LinearForm([EC_ONE, -s], normalize=False))
    # a == 0: y | top <=> no pure x^d term
    if top.coeff((d, 0)).is_zero():
        dirs.append(LinearForm([EC_ZERO, EC_ONE], normalize=False))
    return dirs


def _offset_candidates(p: Poly, a: ExactComplex, b: ExactComplex) -> List[ExactComplex]:
    """Constants c such that a*x + b*y + c might divide p.

    Substitute the parametrized zero locus of the candidate into p and
    collect the coefficient system in c; its common roots (via gcd of the
    coefficient polynomials) are the only possible offsets.
    """
    if not b.is_zero():
        # y -> -(a/b) x - (1/b) c   (second ring slot becomes c)
        binv = b.inverse()
        mapping = {
            0: LinearForm([EC_ONE, EC_ZERO], normalize=False),
            1: LinearForm([-(a * binv), -binv], normalize=False),
        }
        q = substitute_affine(p, mapping)
        group_on = 0  # coefficients of x powers are polynomials in c
    else:
        # a normalized to 1: substitute x -> -c keeping y
        terms: Dict[Tuple[int, int], ExactComplex] = {}
        for (ex, ey), c in p.terms.items():
            key = (ey, ex)  # x-power becomes c-power (slot 1 after regroup below)
            coeff = c if ex % 2 == 0 else -c
            terms[key] = terms.get(key, EC_ZERO) + coeff
        q = Poly(2, terms)
        group_on = 0  # coefficients of y powers are polynomials in c

    # group q's terms: exponent[group_on] indexes the equation, the other
    # exponent is the c-power
    eqs: Dict[int, List[ExactComplex]] = {}
    for e, c in q.terms.items():
        j = e[group_on]
        k = e[1 - group_on]
        eq = eqs.setdefault(j, [])
        while len(eq) <= k:
            eq.append(EC_ZERO)
        eq[k] = eq[k] + c
    g: List[ExactComplex] = []
    for eq in eqs.values():
        eq = ec_trim(eq)
        if not eq:
            continue
        g = eq if not g else ec_gcd(g, eq)
        if len(g) == 1:
            return []  # constant gcd: no common offset
    if not g or len(g) == 1:
        return []
    return [r for r, _ in gaussian_rational_roots(g)]


def _affine_bivariate_factors(p: Poly) -> Tuple[List[LinearForm], Poly]:
    """All Q(i)-linear factors (with multiplicity) of a bivariate polynomial."""
    factors: List[LinearForm] = []
    q = p
    for direction in _direction_candidates(p):
        a, b = direction.coefficients
        for c0 in _offset_candidates(q, a, b) if q.degree() >= 1 else []:
            form = LinearForm([a, b], c0, normalize=False)
            fp = form.to_poly(2)
            while True:
                nxt = fp.divides_into(q)
                if nxt is None:
                    break
                q = nxt
                factors.append(form)
    return factors, q


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def _finalize(p: Poly, factors: List[LinearForm], residual: Poly,
              used: List[int]) -> FactorList:
    nvars = p.nvars
    out_factors = [_expand_form(f, used, nvars) for f in factors]
    if residual.degree() <= 0:
        unit = residual.coeff(tuple([0] * residual.nvars))
        if residual.is_zero():
            raise ValueError("zero residual in factorization")
        return FactorList(unit, out_factors, None)
    _, lead = residual.leading()
    res = _expand_poly(residual.scale(lead.inverse()), used, nvars)
    return FactorList(lead, out_factors, res)


def linear_factorization(p: Poly) -> FactorList:
    """Extract every Gaussian-rational linear factor of p, exactly.

    Accepted shapes: homogeneous in <= 3 (used) variables, total degree
    <= 6; or affine bivariate of degree <= 3.  Raises UnsupportedShape
    otherwise.
    """
    if p.kind != "exact":
        raise UnsupportedShape("exact factorization needs exact coefficients")
    if p.is_zero():
        raise UnsupportedShape("zero polynomial")
    q, used = _compact(p)
    k = q.nvars
    d = q.degree()
    if d == 0:
        return FactorList(q.coeff(()), [], None)
    if q.is_homogeneous():
        if k > 3 or d > 6:
            raise UnsupportedShape(
                f"homogeneous factorization supports <=3 variables, degree <=6 "
                f"(got {k} variables, degree {d})")
        if k == 1:
            unit = q.coeff(tuple([d]))
            var = LinearForm([EC_ONE], normalize=False)
            return _finalize(p, [var] * d, Poly.const(1, unit), used)
        if k == 2:
            factors, residual = _factor_binary_form(q)
            return _finalize(p, factors, residual, used)
        # three variables: peel off powers of the last variable, then reduce
        # to the affine bivariate engine in the chart z = 1
        factors: List[LinearForm] = []
        zmin = min(e[2] for e in q.terms)
        if zmin:
            z = LinearForm([EC_ZERO, EC_ZERO, EC_ONE], normalize=False)
            q = q.exact_div((z.to_poly(3)) ** zmin)
            factors.extend([z] * zmin)
        aff = Poly(2, {(e[0], e[1]): c for e, c in q.terms.items()})
        aff_factors, aff_res = _affine_bivariate_factors(aff)
        # homogenize the affine factors and residual
        for f in aff_factors:
            factors.append(LinearForm(
                [f.coefficients[0], f.coefficients[1], f.constant], normalize=False))
        res_deg = aff_res.degree()
        res3 = Poly(3, {(e[0], e[1], res_deg - e[0] - e[1]): c
                        for e, c in aff_res.terms.items()})
        return _finalize(p, factors, res3, used)
    # affine case
    if k > 2 or d > 3:
        raise UnsupportedShape(
            f"affine factorization supports bivariate polynomials of degree <=3 "
            f"(got {k} variables, degree {d})")
    if k == 0:
        return FactorList(q.coeff(()), [], None)
    if k == 1:
        # univariate in disguise: roots give factors (x - root)
        coeffs = univariate_coeffs(q)
        factors = []
        qq = q
        for root, mult in gaussian_rational_roots(coeffs):
            form = LinearForm([EC_ONE], -root, normalize=False)
            for _ in range(mult):
                qq = qq.exact_div(form.to_poly(1))
                factors.append(form)
        return _finalize(p, factors, qq, used)
    factors, residual = _affine_bivariate_factors(q)
    return _finalize(p, factors, residual, used)


def is_irreducible_cubic_over_gaussians(p: Poly) -> bool:
    """True when an affine bivariate cubic has no Q(i)-linear factor, which
    certifies irreducibility over Q(i) (degree 3 = 1+2 or 1+1+1)."""
    q, _ = _compact(p)
    if q.nvars != 2 or q.degree() != 3 or q.is_homogeneous():
        raise UnsupportedShape("irreducibility certificate needs an affine bivariate cubic")
    return not linear_factorization(p).linear_factors

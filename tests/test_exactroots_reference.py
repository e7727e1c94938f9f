"""The Sturm/resultant root finder against the modular one.

This file keeps, verbatim, the finder ``detvar.exactroots`` had before it
worked modulo a prime: ``rational_roots`` by Sturm isolation and a
Stern-Brocot search, ``gaussian_rational_roots`` by a real/imaginary split
and a Sylvester resultant.  On every input both must return the same
roots, with the same multiplicities, in the same order.  The reference is
slow on large coefficients, so the inputs are small.
"""

from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from detvar import exactroots
from detvar.exactroots import ECPoly, ec_deriv, ec_divmod, ec_eval, ec_gcd, ec_trim
from detvar.multipoly import Poly, sylvester_resultant, univariate_coeffs
from detvar.scalars import EC_ONE, ExactComplex

FPoly = List[Fraction]  # ascending coefficients


# ---------------------------------------------------------------------------
# The reference finder (the old detvar.exactroots, verbatim)
# ---------------------------------------------------------------------------

def fq_trim(p: FPoly) -> FPoly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def fq_deg(p: FPoly) -> int:
    return len(fq_trim(p)) - 1


def fq_eval(p: FPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def fq_deriv(p: FPoly) -> FPoly:
    return [c * k for k, c in enumerate(p)][1:]


def fq_divmod(a: FPoly, b: FPoly) -> Tuple[FPoly, FPoly]:
    b = fq_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(fq_trim(a))
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        a = fq_trim(a)
        if not a:
            break
    return q, a


def fq_gcd(a: FPoly, b: FPoly) -> FPoly:
    a, b = fq_trim(a), fq_trim(b)
    while b:
        a, b = b, fq_divmod(a, b)[1]
    if a:
        inv = 1 / a[-1]
        a = [c * inv for c in a]
    return a


def fq_primitive(p: FPoly) -> FPoly:
    """Scale by a positive rational to coprime integer coefficients
    (sign preserved, so Sturm sign sequences are unaffected)."""
    p = fq_trim(p)
    if not p:
        return p
    den_lcm = 1
    for c in p:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [c.numerator * (den_lcm // c.denominator) for c in p]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return [Fraction(v, g) for v in ints]


def _cauchy_bound(p: FPoly) -> Fraction:
    p = fq_trim(p)
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=Fraction(0))
    return 1 + m / lead


# ---------------------------------------------------------------------------
# Sturm isolation
# ---------------------------------------------------------------------------

def _sturm_chain(s: FPoly) -> List[FPoly]:
    chain = [fq_primitive(s), fq_primitive(fq_deriv(s))]
    while chain[-1]:
        rem = fq_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(fq_primitive([-c for c in rem]))
    return [c for c in chain if c]


def _variations(values: List[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction with the smallest denominator strictly inside (lo, hi)."""
    if not lo < hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    if lo == 0:
        if hi > 1:
            return Fraction(1)
        inv = 1 / hi
        return Fraction(1, inv.numerator // inv.denominator + 1)
    fl = lo.numerator // lo.denominator
    if fl + 1 < hi:
        return Fraction(fl + 1)
    if lo == fl:
        return fl + simplest_between(Fraction(0), hi - fl)
    return fl + 1 / simplest_between(1 / (hi - fl), 1 / (lo - fl))


class _RootHit(Exception):
    def __init__(self, root: Fraction):
        self.root = root


def _isolate_squarefree(s: FPoly) -> List[Tuple[Fraction, Fraction]]:
    """Open isolating intervals for every real root of squarefree s.

    Raises _RootHit the moment a bisection point happens to be a root
    (the caller deflates and restarts; rational roots are few).
    """
    chain = _sturm_chain(s)
    bound = _cauchy_bound(s) + 1

    def vc(x: Fraction) -> int:
        return _variations([fq_eval(c, x) for c in chain])

    def guard(x: Fraction) -> Fraction:
        if fq_eval(s, x) == 0:
            raise _RootHit(x)
        return x

    out: List[Tuple[Fraction, Fraction]] = []
    lo, hi = guard(-bound), guard(bound)
    stack = [(lo, hi, vc(lo), vc(hi))]
    while stack:
        l, u, vl, vu = stack.pop()
        n = vl - vu
        if n == 0:
            continue
        if n == 1:
            out.append((l, u))
            continue
        m = guard((l + u) / 2)
        vm = vc(m)
        stack.append((l, m, vl, vm))
        stack.append((m, u, vm, vu))
    return out


def _rational_in_interval(s: FPoly, lo: Fraction, hi: Fraction,
                          den_bound: int) -> Optional[Fraction]:
    """The rational root of s inside the isolating interval (lo, hi), if any.

    s must be squarefree with a single simple root there, so it changes
    sign across the interval and plain sign bisection refines it.
    """
    width_target = Fraction(1, den_bound * den_bound + 1)
    sl = fq_eval(s, lo)
    while hi - lo >= width_target:
        m = (lo + hi) / 2
        sm = fq_eval(s, m)
        if sm == 0:
            return m
        if (sm > 0) == (sl > 0):
            lo, sl = m, sm
        else:
            hi = m
    cand = simplest_between(lo, hi)
    if cand.denominator <= den_bound and fq_eval(s, cand) == 0:
        return cand
    return None


def rational_roots(p: FPoly) -> List[Tuple[Fraction, int]]:
    """All rational roots of p with multiplicities.  Complete and exact."""
    p = fq_trim([Fraction(c) for c in p])
    if not p:
        raise ValueError("zero polynomial")
    roots: List[Fraction] = []
    # deflate roots at the origin
    shift = 0
    while p[shift] == 0:
        shift += 1
    if shift:
        roots.append(Fraction(0))
        p_core = p[shift:]
    else:
        p_core = p
    if fq_deg(p_core) >= 1:
        s = fq_primitive(fq_divmod(p_core, fq_gcd(p_core, fq_deriv(p_core)))[0])
        while fq_deg(s) >= 1:
            try:
                intervals = _isolate_squarefree(s)
            except _RootHit as hit:
                roots.append(hit.root)
                s = fq_primitive(fq_divmod(s, [-hit.root, Fraction(1)])[0])
                continue
            den_bound = abs(s[-1].numerator)
            for lo, hi in intervals:
                cand = _rational_in_interval(s, lo, hi, den_bound)
                if cand is not None:
                    roots.append(cand)
            break
    out = []
    for r in sorted(set(roots)):
        mult = 0
        q = p
        while True:
            quo, rem = fq_divmod(q, [-r, Fraction(1)])
            if rem:
                break
            mult += 1
            q = quo
        if mult:
            out.append((r, mult))
    return out


def _real_imag_curves(f: ECPoly) -> Tuple[Poly, Poly]:
    """f(x + i*y) = A(x,y) + i*B(x,y) with A, B rational-coefficient
    polynomials in the real unknowns x, y."""
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    z = x + y.scale(ExactComplex(0, 1))
    acc = Poly.zero(2)
    zp = Poly.const(2, 1)
    for k, c in enumerate(f):
        if not c.is_zero():
            acc = acc + zp.scale(c)
        if k + 1 < len(f):
            zp = zp * z
    a_terms = {}
    b_terms = {}
    for e, c in acc.terms.items():
        if c.re:
            a_terms[e] = ExactComplex(c.re)
        if c.im:
            b_terms[e] = ExactComplex(c.im)
    return Poly(2, a_terms), Poly(2, b_terms)


def _poly1_to_fq(p: Poly) -> FPoly:
    return [c.re for c in univariate_coeffs(p)]


def _subs_x(p: Poly, x0: Fraction, as_x_poly: bool = False) -> FPoly:
    """Substitute x=x0 into a 2-variable rational-coefficient polynomial,
    returning the univariate-in-y coefficient list.  With as_x_poly=True the
    roles flip: p must be free of y and the list is its x-coefficients."""
    if as_x_poly:
        out = [Fraction(0)] * (p.degree_in(0) + 1)
        for (ex, ey), c in p.terms.items():
            if ey:
                raise ValueError("polynomial is not free of y")
            out[ex] += c.re
        return out
    dy = p.degree_in(1)
    out = [Fraction(0)] * (dy + 1)
    for (ex, ey), c in p.terms.items():
        v = c.re
        for _ in range(ex):
            v = v * x0
        out[ey] += v
    return out


def gaussian_rational_roots(f: ECPoly) -> List[Tuple[ExactComplex, int]]:
    """All roots of f in Q(i), with multiplicities.  Complete and exact."""
    f = ec_trim([ExactComplex.coerce(c) if not isinstance(c, ExactComplex) else c
                 for c in f])
    if not f:
        raise ValueError("zero polynomial")
    if len(f) == 1:
        return []
    core = f
    g = ec_gcd(core, ec_deriv(core))
    s = ec_divmod(core, g)[0] if len(g) > 1 else core

    a, b = _real_imag_curves(s)
    if a.is_zero() or b.is_zero():
        # would mean f vanishes on a whole real curve: impossible for deg >= 1
        raise ValueError("degenerate real/imaginary split")
    x_candidates: List[Fraction] = []
    if a.degree_in(1) <= 0 or b.degree_in(1) <= 0:
        # One curve is free of y, hence a univariate constraint on x alone;
        # its rational roots are the only possible real parts.
        flat = a if a.degree_in(1) <= 0 else b
        flat_fq = fq_trim(_subs_x(flat, Fraction(0), as_x_poly=True))
        if fq_deg(flat_fq) >= 1:
            x_candidates = [r for r, _ in rational_roots(flat_fq)]
    else:
        res = sylvester_resultant(a, b)
        res_fq = fq_trim(_poly1_to_fq(res))
        if not res_fq:
            # coprime curves always have a nonzero resultant
            raise ValueError("vanishing resultant for coprime curves")
        if fq_deg(res_fq) >= 1:
            x_candidates = [r for r, _ in rational_roots(res_fq)]

    found: List[ExactComplex] = []
    for x0 in sorted(set(x_candidates)):
        ay = fq_trim(_subs_x(a, x0))
        by = fq_trim(_subs_x(b, x0))
        if not ay and not by:
            continue
        if not ay:
            gy = by
        elif not by:
            gy = ay
        else:
            gy = fq_primitive(fq_gcd(ay, by))
        if not gy:
            continue
        if fq_deg(gy) < 1:
            continue
        for y0, _ in rational_roots(gy):
            cand = ExactComplex(x0, y0)
            if ec_eval(s, cand).is_zero():
                found.append(cand)

    out: List[Tuple[ExactComplex, int]] = []
    for root in sorted(set(found), key=lambda z: (z.re, z.im)):
        mult = 0
        q = f
        while True:
            quo, rem = ec_divmod(q, [-root, EC_ONE])
            if rem:
                break
            mult += 1
            q = quo
        if mult:
            out.append((root, mult))
    return out


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
gaussians = st.builds(ExactComplex, rationals, rationals)


def _times(p, q):
    out = [ExactComplex(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


@st.composite
def products(draw, scalars):
    """A random cofactor times random linear factors, degree 1 to 4; a
    factor may repeat."""
    roots = [draw(scalars) for _ in range(draw(st.integers(0, 3)))]
    roots += roots[:draw(st.integers(0, 1))]
    degree = draw(st.integers(0 if roots else 1, 4 - len(roots)))
    cofactor = [draw(scalars) for _ in range(degree + 1)]
    if cofactor[-1].is_zero():
        cofactor[-1] = ExactComplex(1)
    p = cofactor
    for r in roots:
        p = _times(p, [-r, ExactComplex(1)])
    return p


@SETTINGS
@given(products(gaussians))
def test_gaussian_roots_match_reference(p):
    assert exactroots.gaussian_rational_roots(p) == gaussian_rational_roots(p)


@SETTINGS
@given(products(st.builds(ExactComplex, rationals)))
def test_rational_roots_match_reference(p):
    q = [c.re for c in p]
    assert exactroots.rational_roots(q) == rational_roots(q)


EC, F = ExactComplex, Fraction
EDGE_CASES = [
    [EC(-2), EC(0), EC(1)],                            # roots mod 17, none in Q(i)
    [EC(-26), EC(0), EC(13)],
    _times([EC(221)], _times([EC(F(-1, 2)), EC(1)], [EC(3), EC(1)])),
    _times([EC(3, 2)], _times([EC(-1), EC(1)], [EC(0, -1), EC(1)])),
    [EC(1), EC(-14), EC(65)],                          # roots (7 -+ 4i)/65
    [EC(0), EC(0), EC(-2, -1), EC(1)],                 # double root at 0
    [EC(6), EC(-5), EC(1)],
    [EC(-2), EC(0), EC(0), EC(0), EC(0), EC(0), EC(1)],
    [EC(1), EC(1), EC(0), EC(0), EC(0), EC(0), EC(1)],
]


def test_edge_cases_match_reference():
    for p in EDGE_CASES:
        assert exactroots.gaussian_rational_roots(p) == gaussian_rational_roots(p)
    for p in ([6, -5, 1], [F(1, 2), F(-3, 2), 1], [0, 0, -5, 1], [1, 0, 1]):
        assert exactroots.rational_roots(p) == rational_roots(p)

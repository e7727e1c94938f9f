"""Exact rational and Gaussian-rational roots of univariate polynomials.

Everything here is certificate-grade: ``gaussian_rational_roots`` returns
*all* roots in Q(i) with their multiplicities, or proves there are none,
with no floating point and no factorization.  ``rational_roots`` keeps the
real ones.

The roots are found modulo a prime, after Loos ("Computing rational zeros
of integral polynomials by p-adic expansion", SIAM J. Comput. 12, 1983),
carried over from Z to Z[i].  A prime p = 1 (mod 4) splits in Z[i] as
p = pi * conj(pi), and Z[i]/(pi) = F_p sends i to a square root of -1 mod p
(Z[i]/(conj pi) sends it to the other one).  A Gaussian-rational root
reduces to a root of both images of the polynomial in F_p; the roots of
the images are found by trying every residue, Hensel-lifted to a p-adic
precision past a size bound, recombined into real and imaginary parts,
read back as fractions by rational reconstruction and verified by exact
evaluation.  Before any of that, an image with no root in F_p at one of a
few small split primes proves that there is no root at all, which is the
common answer.  The argument is in ``gaussian_rational_roots``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import List, Optional, Tuple

from .modp import split_primes as _split_primes
from .modp import sqrt_minus_one
from .scalars import EC_ONE, EC_ZERO, ExactComplex

ECPoly = List[ExactComplex]  # ascending coefficients


def ec_trim(p: ECPoly) -> ECPoly:
    q = list(p)
    while q and q[-1].is_zero():
        q.pop()
    return q


def ec_eval(p: ECPoly, z: ExactComplex) -> ExactComplex:
    acc = EC_ZERO
    for c in reversed(p):
        acc = acc * z + c
    return acc


def ec_deriv(p: ECPoly) -> ECPoly:
    return [c * k for k, c in enumerate(p)][1:]


def ec_divmod(a: ECPoly, b: ECPoly) -> Tuple[ECPoly, ECPoly]:
    b = ec_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(ec_trim(a))
    q = [EC_ZERO] * max(len(a) - len(b) + 1, 0)
    inv = b[-1].inverse()
    while len(a) >= len(b):
        c = a[-1] * inv
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = a[k + i] - c * bc
        a = ec_trim(a)
        if not a:
            break
    return q, a


def ec_gcd(a: ECPoly, b: ECPoly) -> ECPoly:
    a, b = ec_trim(a), ec_trim(b)
    while b:
        a, b = b, ec_divmod(a, b)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


# ---------------------------------------------------------------------------
# Arithmetic modulo p and p-adic lifting
# ---------------------------------------------------------------------------

def _horner(c: List[int], t: int, m: int) -> int:
    acc = 0
    for x in reversed(c):
        acc = (acc * t + x) % m
    return acc


def _hensel(c: List[int], r: int, p: int, m: int) -> int:
    """Lift a simple root r mod p of the integer polynomial c to the
    modulus m = p^(2^j) by Newton steps that square the modulus."""
    dc = [x * k for k, x in enumerate(c)][1:]
    q = p
    while q < m:
        q *= q
        r = (r - _horner(c, r, q) * pow(_horner(dc, r, q), -1, q)) % q
    return r


def _reconstruct(a: int, m: int, bound: int) -> Optional[Fraction]:
    """The fraction n/d = a (mod m) with |n| <= bound and 0 < d <= bound,
    if there is one (Wang's algorithm: it is unique once m > 2*bound^2).
    Otherwise None or some other fraction, which the caller's exact check
    rejects."""
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if abs(t1) <= bound else None


# How many split primes the no-root exit tries on f itself, among those at
# which neither image of the leading coefficient vanishes
NO_ROOT_PRIMES = 4


def _gaussian_integer_parts(f: ECPoly) -> Tuple[List[int], List[int]]:
    """The real and imaginary parts of f times the lcm of its denominators."""
    den = lcm(*(c.fields[2] for c in f))
    fields = [c.fields for c in f]
    return [a * (den // d) for a, _, d in fields], [b * (den // d) for _, b, d in fields]


def _images(re: List[int], im: List[int], p: int) -> List[List[int]]:
    """The images in F_p of the polynomial re + i*im under i -> s_p and
    i -> -s_p, s_p = sqrt_minus_one(p)."""
    sp = sqrt_minus_one(p)
    return [[(a + b * sp) % p for a, b in zip(re, im)],
            [(a - b * sp) % p for a, b in zip(re, im)]]


def _no_root_mod_p(f: ECPoly) -> bool:
    """True when an image of f has no root in F_p at one of the first
    NO_ROOT_PRIMES split primes p at which neither image of the leading
    coefficient vanishes: then f has no root in Q(i)."""
    re, im = _gaussian_integer_parts(f)
    tried = 0
    for p in _split_primes():
        images = _images(re, im, p)
        if not all(c[-1] for c in images):
            continue  # pi divides the leading coefficient
        if any(all(_horner(c, t, p) for t in range(p)) for c in images):
            return True
        tried += 1
        if tried == NO_ROOT_PRIMES:
            return False
    raise AssertionError("unreachable: the prime walk has no end")


def _modular_roots(s: ECPoly) -> List[ExactComplex]:
    """The roots in Q(i) of the squarefree s (see gaussian_rational_roots)."""
    re, im = _gaussian_integer_parts(s)
    norm_lc = re[-1] ** 2 + im[-1] ** 2
    top = max(a * a + b * b for a, b in zip(re[:-1], im[:-1]))
    bound = (2 + isqrt(top // norm_lc)) * norm_lc
    for p in _split_primes():
        images = _images(re, im, p)
        if not all(c[-1] for c in images):
            continue  # pi divides the leading coefficient
        roots = [[t for t in range(p) if _horner(c, t, p) == 0] for c in images]
        if not all(roots):
            return []
        derivs = [[x * k for k, x in enumerate(c)][1:] for c in images]
        if any(_horner(dc, t, p) == 0 for dc, rs in zip(derivs, roots) for t in rs):
            continue  # two roots meet mod pi: p divides the discriminant
        m = p
        while m <= 2 * bound * bound:
            m *= m
        sm = _hensel([1, 0, 1], sqrt_minus_one(p), p, m)
        lifted = [[_hensel([(a + sign * b * sm) % m for a, b in zip(re, im)], t, p, m)
                   for t in rs] for sign, rs in zip((1, -1), roots)]
        half, half_i = pow(2, -1, m), pow(2 * sm, -1, m)
        # a root of s has one image u and one image v, and no two roots
        # share one (the roots are simple mod p): once a pair is verified,
        # neither u nor v is tried again
        found, unmatched = [], list(lifted[1])
        for u in lifted[0]:
            for v in unmatched:
                x = _reconstruct((u + v) * half, m, bound)
                if x is None:
                    continue
                y = _reconstruct((u - v) * half_i, m, bound)
                if y is not None:
                    z = ExactComplex(x, y)
                    if ec_eval(s, z).is_zero():
                        found.append(z)
                        unmatched.remove(v)
                        break
        return found
    raise AssertionError("unreachable: the prime walk has no end")


def gaussian_rational_roots(f: ECPoly) -> List[Tuple[ExactComplex, int]]:
    """All roots of f in Q(i), with multiplicities, sorted by (re, im).
    Complete and exact.

    Why it is complete.  Let s be the squarefree part of f, scaled to
    Gaussian-integer coefficients with leading coefficient lc, and let
    alpha = a/beta in lowest terms in Z[i] (a UFD) be a root of s.  Then
    beta divides lc.  Take a prime p = pi * conj(pi) = 1 (mod 4) for which
    neither pi nor conj(pi) divides lc; only finitely many fail that.  Then
    p does not divide N(lc) = lc * conj(lc), alpha reduces to a root of s
    modulo pi and modulo conj(pi), that is, to a root u of the image of s
    under i -> s_p in F_p and a root v of its image under i -> -s_p, where
    s_p^2 = -1 (mod p).  So if either image has no root in F_p, s has no
    root in Q(i).  If every root of both images is simple (which fails
    only for the finitely many p under the discriminant), u and v lift to
    unique p-adic roots, and alpha = x + iy gives them as x + s*y and
    x - s*y, s the p-adic square root of -1 above s_p.  Hence
    x = (u + v)/2 and y = (u - v)/(2s) modulo every p^k.

    The size bound.  Re and Im of alpha = a * conj(beta) / N(beta) have
    denominators dividing N(beta), which divides N(lc).  Their absolute
    values are at most |alpha| < C, the integer Cauchy bound
    2 + isqrt(max N(c_k) // N(lc)) over the lower coefficients c_k, so
    their numerators are at most B = C * N(lc).  Once p^k > 2 * B^2,
    rational reconstruction modulo p^k returns x and y exactly.  Every
    candidate is checked by exact evaluation, so a pair of lifted roots
    that belongs to no root of s is dropped.

    The no-root exit.  The first step of the argument holds for f itself,
    squarefree or not: a root a/beta of f has beta | lc(f).  So f is first
    reduced at NO_ROOT_PRIMES split primes at which neither image of lc(f)
    vanishes, and when an image has no root in F_p there is no root in
    Q(i), with no squarefree part and no lift.
    """
    f = ec_trim([ExactComplex.coerce(c) for c in f])
    if not f:
        raise ValueError("zero polynomial")
    if len(f) == 1 or _no_root_mod_p(f):
        return []
    g = ec_gcd(f, ec_deriv(f))
    s = ec_divmod(f, g)[0] if len(g) > 1 else f
    out: List[Tuple[ExactComplex, int]] = []
    for root in sorted(_modular_roots(s), key=lambda z: (z.re, z.im)):
        mult = 0
        q = f
        while True:
            quo, rem = ec_divmod(q, [-root, EC_ONE])
            if rem:
                break
            mult += 1
            q = quo
        out.append((root, mult))
    return out


def rational_roots(p: List[Fraction]) -> List[Tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, ascending: the real
    ones among its Gaussian-rational roots.  Complete and exact."""
    return [(z.re, mult)
            for z, mult in gaussian_rational_roots([ExactComplex(Fraction(c)) for c in p])
            if z.is_real()]

"""Arithmetic modulo a prime p = 1 (mod 4), and the Macaulay emptiness test.

Such a prime has a square root s of -1 modulo p, so i -> s is a ring map
from Z[i] onto F_p.  It extends to every Gaussian rational whose
denominator p does not divide, and to every float, which is a dyadic
rational.  The image of a determinant is the determinant of the images,
so minors can be taken modulo p straight from a reduced pencil; and a
rank modulo p is never above the rank over Q(i), since a nonzero minor
modulo p is the image of a nonzero one.  The symbolic minors of a reduced
pencil come from multipoly's Laplace expansion on the integers, over
monomials packed as ``monomial`` packs them, each minor reduced modulo p
once.  Restricted to a point, a line or a hyperplane, a reduced pencil
is one map, ``restrict_mod_p``; the values of its maximal minors at points
come from it and this module's own kernel on plain ints.

That is what ``macaulay_full_rank`` rests on.  The degree-D Macaulay
matrix of homogeneous forms g_j has a row x^a * g_j for every monomial x^a
of degree D - deg g_j and a column for every monomial of degree D.  If it
has full column rank modulo p, it has full column rank over Q(i): every
monomial of degree D lies in the ideal (g_j), so the forms have no common
zero in projective space (Macaulay 1902; Lazard, EUROSAM 1983).  A rank
short of full proves nothing: the prime, or D, may be unlucky.

In three or more variables the Macaulay test takes the symbolic minors and
the rank.  In two it takes neither: ``binary_minors_coprime`` evaluates the
minors at n + 1 points with the integer kernel, interpolates them and folds
their gcd, which decides exactly what full rank in degree 2n - 1 decides
(the argument is in its docstring), so a certificate still names that
degree and re-checks as a rank.  On a line of a larger pencil it proves
that the minors share no factor (``variety._cauchy_binet_certificate``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import isqrt
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .scalars import ExactComplex

RANK_PRIME = 1_000_000_009  # = 1 (mod 4); (p - 1)^2 still fits an int64

# A form modulo p is a dict from monomials to residues in [0, p).  A
# monomial x^e is the int sum_i e_i << (EXP_BITS * i), so multiplying
# monomials is adding ints.
EXP_BITS = 8
ModPoly = Dict[int, int]


def monomial(exps: Sequence[int]) -> int:
    """The packed monomial of an exponent vector (each exponent < 256)."""
    return sum(e << (EXP_BITS * i) for i, e in enumerate(exps))


def monomial_degree(mono: int) -> int:
    total = 0
    while mono:
        total += mono & ((1 << EXP_BITS) - 1)
        mono >>= EXP_BITS
    return total


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    """Trial division, for the odd p that split_primes walks."""
    return p > 1 and all(p % q for q in range(3, isqrt(p) + 1, 2))


def split_primes(start: int = 13) -> Iterator[int]:
    """Primes p = 1 (mod 4) from start upwards, without end.

    13, the default, is the first such prime above 6, the largest degree
    the root finder asks about: a smaller p merges roots mod p, and must be
    skipped, more often.
    """
    p = start + (1 - start) % 4
    while True:
        if _is_prime(p):
            yield p
        p += 4


@lru_cache(maxsize=None)
def sqrt_minus_one(p: int) -> int:
    """The square root of -1 modulo the prime p = 1 (mod 4) that is
    a^((p-1)/4) for the least quadratic non-residue a."""
    return next(pow(a, (p - 1) // 4, p) for a in range(2, p)
                if pow(a, (p - 1) // 2, p) == p - 1)


def _dyadic(x: float, p: int) -> int:
    num, den = x.as_integer_ratio()  # den is a power of two, p is odd
    return num * _inverse(den, p) % p


@lru_cache(maxsize=4096)
def _inverse(den: int, p: int) -> int:
    """den^-1 modulo p, kept: a float's denominator is one of about two
    thousand powers of two, and a pencil's entries share a handful."""
    return pow(den, -1, p)


def reduce_scalar(c, p: int) -> Optional[int]:
    """The image of an ExactComplex, a float or a complex under i -> s,
    s = sqrt_minus_one(p); None when p divides a denominator."""
    s = sqrt_minus_one(p)
    if isinstance(c, ExactComplex):
        a, b, d = c.fields
        if d % p == 0:
            return None
        return (a + b * s) * pow(d, -1, p) % p
    c = complex(c)
    return (_dyadic(c.real, p) + s * _dyadic(c.imag, p)) % p


def restrict_mod_p(forms: Sequence[Sequence[Sequence[int]]],
                   basis: Sequence[Sequence[int]], p: int) -> List[List[List[int]]]:
    """A reduced pencil (each entry the coefficient vector of a linear form
    c) on the span of the k points b_j modulo p: the pencil in k variables
    whose entry c is (c . b_j mod p)_j, which reads c(sum_j y_j b_j) at y."""
    return [[[sum(map(mul, c, b)) % p for b in basis] for c in row] for row in forms]


def maximal_minors_mod_p(rows: Sequence[Sequence[int]], p: int) -> List[int]:
    """The n x n minors modulo p of an n x t integer matrix, in
    lexicographic column-subset order ([] where t < n): Laplace expansion
    along the first row on plain ints, each minor of the lower rows built
    once per column subset (keyed by its bit mask) and reduced modulo p."""
    n, t = len(rows), len(rows[0])
    level = {1 << c: x % p for c, x in enumerate(rows[-1])}
    for i in range(n - 2, -1, -1):
        top = rows[i]
        above = {}
        for cs in combinations(range(t), n - i):
            mask = 0
            for c in cs:
                mask |= 1 << c
            acc, odd = 0, False
            for c in cs:
                x = top[c]
                if x:
                    sub = level[mask ^ (1 << c)]
                    acc = acc - x * sub if odd else acc + x * sub
                odd = not odd
            above[mask] = acc % p
        level = above
    return list(level.values())


def interpolate_mod_p(values: Sequence[int], p: int) -> List[int]:
    """The coefficients modulo p, constant first, of the polynomial of
    degree below len(values) that takes values[s] at s = 0, 1, ... (p at
    least len(values)): Newton's divided differences, then Horner."""
    c = [x % p for x in values]
    for j in range(1, len(c)):
        inv = pow(j, -1, p)
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    poly: List[int] = []
    for i in range(len(c) - 1, -1, -1):  # poly <- poly * (s - i) + c[i]
        shifted = [0] + poly
        for k, x in enumerate(poly):
            shifted[k] = (shifted[k] - i * x) % p
        shifted[0] = (shifted[0] + c[i]) % p
        poly = shifted
    return poly


def _trim(a: List[int]) -> List[int]:
    while a and not a[-1]:
        a.pop()
    return a


def gcd_mod_p(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """A gcd modulo p of two polynomials (coefficients constant first),
    by Euclid; [] when both are zero."""
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for k, x in enumerate(b):
                a[shift + k] = (a[shift + k] - q * x) % p
            _trim(a)
        a, b = b, a
    return a


def binary_minors_coprime(forms: Sequence[Sequence[Sequence[int]]], n: int, p: int) -> bool:
    """True when the n x n minors of a reduced binary pencil (an n x t
    matrix of forms c_0 x + c_1 y, each entry its coefficient pair) have
    no common zero on P^1 over the algebraic closure of F_p (p > n).

    Each minor f is a binary form of degree n (or zero), so it is decided
    from n + 1 values: f(1, s) for s = 0..n from maximal_minors_mod_p on
    the pencil restricted to (1, s), interpolated.  A common zero (1 : s_0)
    is a root of the gcd of the f(1, s), and the zero at infinity (0 : 1)
    is where every coefficient of s^n, f(0, 1), vanishes.  So the minors
    have no common zero exactly when their gcd is constant and some minor
    keeps its s^n coefficient; the fold stops as soon as both hold.

    That is what full column rank of the degree-(2n - 1) Macaulay matrix
    of the minors decides (macaulay_full_rank).  A common zero is a zero
    of every row, so it leaves the rank short.  With no common zero, two
    combinations g_1, g_2 of the minors (over F_p-bar, which is infinite)
    are coprime; their Sylvester matrix is their degree-(2n - 1) Macaulay
    matrix and is nonsingular, so x^(2n-1) and y^(2n-1) and every form of
    that degree lie in the span of the rows, and the rank over F_p-bar,
    the same as over F_p, is full."""
    at = restrict_mod_p(forms, [(1, s) for s in range(n + 1)], p)
    values = [maximal_minors_mod_p([[c[s] for c in row] for row in at], p) for s in range(n + 1)]
    g: List[int] = []
    infinity = False
    for minor in zip(*values):
        f = interpolate_mod_p(minor, p)
        infinity = infinity or f[-1] != 0
        g = gcd_mod_p(g, f, p)
        if infinity and len(g) == 1:
            return True
    return False


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank modulo p of an integer matrix, by dense Gaussian elimination on
    int64 (p < 3e9, so no product of two residues overflows); 0 for a
    matrix with no rows."""
    if not rows:
        return 0
    a = np.array(rows, dtype=np.int64).reshape(len(rows), -1) % p
    nrows, ncols = a.shape
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        k = rank + int(nz[0])
        if k != rank:
            a[[rank, k]] = a[[k, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        below = a[rank + 1:, c].copy()
        a[rank + 1:] = (a[rank + 1:] - np.outer(below, a[rank]) % p) % p
        rank += 1
    return rank


def macaulay_matrix(gens: Sequence[ModPoly], nvars: int, degree: int) -> List[List[int]]:
    """The degree-`degree` Macaulay matrix of homogeneous forms in nvars
    variables: a row x^a * g for every form g and monomial x^a of degree
    `degree` - deg g, a column for every monomial of degree `degree`."""

    def monomials(d: int) -> List[int]:
        return [sum(1 << (EXP_BITS * i) for i in combo)
                for combo in combinations_with_replacement(range(nvars), d)]

    column = {e: j for j, e in enumerate(monomials(degree))}
    rows = []
    for g in gens:
        if not g or monomial_degree(next(iter(g))) > degree:
            continue
        for a in monomials(degree - monomial_degree(next(iter(g)))):
            row = [0] * len(column)
            for e, v in g.items():
                row[column[a + e]] = v
            rows.append(row)
    return rows


def macaulay_full_rank(gens: Sequence[ModPoly], nvars: int, degree: int, p: int) -> bool:
    """True when the Macaulay matrix has full column rank modulo p, which
    proves the forms have no common projective zero over Q(i)-bar."""
    rows = macaulay_matrix(gens, nvars, degree)
    ncols = len(rows[0]) if rows else 0
    return len(rows) >= ncols > 0 and rank_mod_p(rows, p) == ncols

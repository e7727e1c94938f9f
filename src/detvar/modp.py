"""Arithmetic modulo a prime p = 1 (mod 4), and the Macaulay emptiness test.

Such a prime has a square root s of -1 modulo p, so i -> s is a ring map
from Z[i] onto F_p.  It extends to every Gaussian rational whose
denominator p does not divide, and to every float, which is a dyadic
rational.  The image of a determinant is the determinant of the images,
so minors can be taken modulo p straight from a reduced pencil; and a
rank modulo p is never above the rank over Q(i), since a nonzero minor
modulo p is the image of a nonzero one.  No minor is expanded modulo p:
every modular test reads the values of the maximal minors at points
(``minor_values``), the pencil restricted to them by one map
(``restrict_mod_p``) and run through an integer kernel at all points in
one pass.  A reduced pencil is an (n, t, m) int64 array of residues, and
int64 wraps silently: p < 2^31.5 keeps (p - 1)^2 below 2^63, and no two
products of residues are summed before they are reduced modulo p.

That is what ``macaulay_full_rank`` rests on.  The degree-D Macaulay
matrix M of homogeneous forms g_j has a row x^a * g_j for every monomial
x^a of degree D - deg g_j and a column for every monomial of degree D.  If
it has full column rank modulo p, it has full column rank over Q(i):
every monomial of degree D lies in the ideal (g_j), so the forms have no
common zero in projective space (Macaulay 1902; Lazard, EUROSAM 1983).  A
rank short of full proves nothing: the prime, or D, may be unlucky.  The
test reads M E, where E evaluates forms of degree D at the lattice points
Q_D = {q in Z^k_{>=0} : |q| = D}, so row x^a * g_j reads q^a g_j(q).
rank(M E) <= rank(M): full rank of M E is a proof whatever the points.
On sum_i x_i = D, Q_D is the principal lattice of a simplex, unisolvent
for degree D with Lagrange denominators dividing D! (Chung and Yao, SIAM
J. Numer. Anal. 14, 1977), so E is invertible modulo every p > D and the
test decides what the rank of M decides.

In three or more variables the Macaulay test takes that rank.  In two it
takes none: ``binary_minors_coprime`` evaluates the minors at n + 1
points, interpolates them and folds their gcd, which decides exactly what
full rank in degree 2n - 1 decides (the argument is in its docstring), so
a certificate still names that degree and re-checks as a rank.  On a line
of a larger pencil it proves that the minors share no factor
(``variety._cauchy_binet_certificate``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import isqrt
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .scalars import ExactComplex

RANK_PRIME = 1_000_000_009  # = 1 (mod 4); (p - 1)^2 still fits an int64


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
        return (a + b * s) * _inverse(d, p) % p
    c = complex(c)  # a float's denominator is a power of two, and p is odd
    (a, d), (b, e) = c.real.as_integer_ratio(), c.imag.as_integer_ratio()
    return (a * _inverse(d, p) + b * s * _inverse(e, p)) % p


def restrict_mod_p(forms: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    """A reduced (n, t, m) pencil on the span of the k points b_j, a (k, m)
    array: the (n, t, k) pencil whose entry c (a linear form's coefficient
    vector) is (c . b_j mod p)_j, which reads c(sum_j y_j b_j) at y."""
    return (forms[:, :, None, :] * basis % p).sum(axis=3) % p


@lru_cache(maxsize=None)
def _laplace_plan(n: int, t: int) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each size 2 .. n, over the column subsets of that size in
    lexicographic order: each subset's columns c, the index of the subset
    less c among the subsets one size smaller, and the expansion's signs
    (+1, -1, ...)."""
    index = {(c,): c for c in range(t)}
    plan = []
    for size in range(2, n + 1):
        subsets = list(combinations(range(t), size))
        less = [[index[cs[:j] + cs[j + 1:]] for j in range(size)] for cs in subsets]
        plan.append((*(np.array(a, dtype=np.intp).reshape(-1, size) for a in (subsets, less)),
                     (-1) ** np.arange(size)))
        index = {cs: j for j, cs in enumerate(subsets)}
    return plan


def maximal_minors_mod_p(values: np.ndarray, p: int) -> np.ndarray:
    """The n x n minors modulo p of an (n, t, P) array of residues, an n x t
    matrix at each of P points: a (C(t, n), P) array, column subsets in
    lexicographic order.  Laplace expansion along the first row, a minor
    of the lower rows built once per column subset (_laplace_plan): one
    gather, product and alternating sum per size, at every point at once."""
    level = values[-1]
    for top, (columns, less, signs) in zip(values[-2::-1], _laplace_plan(*values.shape[:2])):
        level = signs @ (top[columns] * level[less] % p) % p
    return level


def minor_values(forms: np.ndarray, points: np.ndarray, p: int) -> np.ndarray:
    """The n x n minors modulo p of a reduced (n, t, m) pencil at each of
    the (P, m) points, a (C(t, n), P) array: the pencil restricted to the
    points (restrict_mod_p), then the kernel (maximal_minors_mod_p)."""
    return maximal_minors_mod_p(restrict_mod_p(forms, points, p), p)


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


def binary_minors_coprime(forms: np.ndarray, n: int, p: int) -> bool:
    """True when the n x n minors of a reduced binary pencil (an (n, t, 2)
    array of forms c_0 x + c_1 y, each entry its coefficient pair) have
    no common zero on P^1 over the algebraic closure of F_p (p > n).

    Each minor f is a binary form of degree n (or zero), so it is decided
    from n + 1 values: f(1, s) for s = 0..n from minor_values, interpolated.
    A common zero (1 : s_0) is a root of the gcd of the f(1, s), and the
    zero at infinity (0 : 1) is where every coefficient of s^n, f(0, 1),
    vanishes.  So the minors have no common zero exactly when their gcd is
    constant and some minor keeps its s^n coefficient; the fold stops as
    soon as both hold.

    That is what full column rank of the degree-(2n - 1) Macaulay matrix
    of the minors decides (macaulay_full_rank).  A common zero is a zero
    of every row, so it leaves the rank short.  With no common zero, two
    combinations g_1, g_2 of the minors (over F_p-bar, which is infinite)
    are coprime; their Sylvester matrix is their degree-(2n - 1) Macaulay
    matrix and is nonsingular, so x^(2n-1) and y^(2n-1) and every form of
    that degree lie in the span of the rows, and the rank over F_p-bar,
    the same as over F_p, is full."""
    g: List[int] = []
    infinity = False
    for minor in minor_values(forms, np.arange(n + 1)[:, None] ** [0, 1], p).tolist():  # (1, s)
        f = interpolate_mod_p(minor, p)
        infinity = infinity or f[-1] != 0
        g = gcd_mod_p(g, f, p)
        if infinity and len(g) == 1:
            return True
    return False


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank modulo p of an integer matrix, by dense Gaussian elimination on
    int64 (a residue less a product of two residues fits, p < 2^31.5); 0
    for a matrix with no rows."""
    a = np.array(rows, dtype=np.int64, ndmin=2) % p
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
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), -1, p) % p
        a[rank + 1:, c:] = (a[rank + 1:, c:] - np.outer(a[rank + 1:, c], a[rank, c:])) % p
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _exponents(k: int, degree: int) -> np.ndarray:
    """The exponent vectors, as rows, of the monomials of degree `degree` in k variables."""
    return np.array([[c.count(i) for i in range(k)]
                     for c in combinations_with_replacement(range(k), degree)])


def macaulay_full_rank(forms: np.ndarray, n: int, degree: int, p: int) -> bool:
    """True when the degree-`degree` Macaulay matrix of the n x n minors of
    a reduced (n, t, k) pencil has full column rank modulo p, which proves
    the minors have no common projective zero over Q(i)-bar.  It is read
    at the lattice points q of that degree (module docstring), the exponents
    of its monomials: row x^a * g is q^a g(q), with q^a <= degree^(degree - n)."""
    points = _exponents(forms.shape[2], degree)
    monos = (points[:, None, :] ** _exponents(forms.shape[2], degree - n)).prod(axis=2) % p
    rows = (minor_values(forms, points, p)[:, None, :] * monos.T % p).reshape(-1, len(points))
    return len(rows) >= len(points) and rank_mod_p(rows, p) == len(points)

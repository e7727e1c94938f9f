"""Retired polynomial code, kept verbatim, and how tests compare with it.

* ``symbolic_det``, ``minors`` (cofactor, then Bareiss or subset
  expansion) and ``restrict_to_line``: retired by commit e526729 ("Build
  every symbolic determinant from one memoized Laplace expansion").
* ``laplace_symbolic_det`` and ``laplace_minors`` (then ``symbolic_det``
  and ``minors``): the Laplace expansion on ``Poly`` entries, retired by
  commit 03ad1ce ("One Laplace kernel on raw term dicts").
* ``entry_polys`` and ``pencil_minors``: a pencil as ``Poly`` entries of
  either kind, and its minors; retired by commit c20cc03.
* ``evaluate``: ``Poly.evaluate`` with its complex branch (5ae5d46).
* ``homogenize`` was never package code.
"""

from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from detvar.errors import ArityMismatch, BadOrder, NonSquare, ZeroDirection
from detvar.multipoly import Poly, _is_zero_coeff
from detvar.scalars import EC_ONE, EC_ZERO, ExactComplex


# -- Cofactor, Bareiss and subset-expansion minors (verbatim) -----------------

def _det_cofactor(rows: List[List[Poly]]) -> Poly:
    n = len(rows)
    nvars = rows[0][0].nvars
    kind = rows[0][0].kind
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = Poly.zero(nvars, kind)
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        sub = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = rows[0][j] * _det_cofactor(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _det_bareiss_poly(rows: List[List[Poly]]) -> Poly:
    """Fraction-free elimination over the polynomial ring.  Every division
    performed is exact (Bareiss identity), so exact_div never fails on
    valid input."""
    n = len(rows)
    nvars = rows[0][0].nvars
    a = [row[:] for row in rows]
    one = Poly.const(nvars, 1)
    sign = 1
    prev = one
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if pivot is None:
                return Poly.zero(nvars)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num if prev is one else num.exact_div(prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def _det_subset_expansion(rows: List[List[Poly]]) -> Poly:
    """Division-free determinant by dynamic programming over column subsets
    (used on the approx pathway, where exact division is unavailable)."""
    n = len(rows)
    nvars = rows[0][0].nvars
    kind = rows[0][0].kind
    # state: mask of used columns -> minor of the first popcount(mask) rows
    states = {0: Poly.const(nvars, 1, kind)}
    for i in range(n):
        nxt: Dict[int, Poly] = {}
        for mask, minor in states.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = rows[i][j]
                if entry.is_zero():
                    continue
                term = minor * entry
                # one inversion per earlier row whose column lies right of j
                if bin(mask >> j).count("1") & 1:
                    term = -term
                key = mask | bit
                nxt[key] = (nxt[key] + term) if key in nxt else term
        states = nxt
    full = (1 << n) - 1
    return states.get(full, Poly.zero(nvars, kind))


def symbolic_det(rows: List[List[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    Cofactor expansion up to 4x4; fraction-free elimination from 5x5 on
    (subset expansion instead when the entries are approximate).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare("symbolic_det needs a square matrix")
    if n == 0:
        raise NonSquare("empty matrix")
    nv = rows[0][0].nvars
    kd = rows[0][0].kind
    for r in rows:
        for p in r:
            if p.nvars != nv or p.kind != kd:
                raise ArityMismatch("entries must share nvars and kind")
    if n <= 4:
        return _det_cofactor(rows)
    if kd == "exact":
        return _det_bareiss_poly(rows)
    return _det_subset_expansion(rows)


def minors(rows: List[List[Poly]], k: int) -> List[Poly]:
    """All k x k minors, in lexicographic row-subset then column-subset order."""
    from itertools import combinations

    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if k > min(nr, nc) or k < 1:
        raise BadOrder(f"cannot take {k}x{k} minors of a {nr}x{nc} matrix")
    out = []
    for rsub in combinations(range(nr), k):
        for csub in combinations(range(nc), k):
            sub = [[rows[i][j] for j in csub] for i in rsub]
            out.append(symbolic_det(sub))
    return out


def restrict_to_line(p: Poly, base: Sequence, direction: Sequence) -> Poly:
    """The univariate polynomial s -> p(base + s*direction).

    Exact when p, base and direction are all exact.
    """
    if len(base) != p.nvars or len(direction) != p.nvars:
        raise ArityMismatch("point arity mismatch")
    exact = p.kind == "exact" and all(isinstance(x, ExactComplex) for x in base) \
        and all(isinstance(x, ExactComplex) for x in direction)
    kind = "exact" if exact else "approx"
    if exact:
        dirv = list(direction)
        basev = list(base)
        zero, one = EC_ZERO, EC_ONE
    else:
        dirv = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in direction]
        basev = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in base]
        zero, one = 0j, 1 + 0j
    if all(_is_zero_coeff(d, kind) for d in dirv):
        raise ZeroDirection("restriction direction is zero")

    def convolve(a: List, b: List) -> List:
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    # per-variable (base_i + s*dir_i)^k, cached
    cache: Dict[Tuple[int, int], List] = {}

    def lin_pow(i: int, k: int) -> List:
        key = (i, k)
        if key not in cache:
            acc = [one]
            for _ in range(k):
                acc = convolve(acc, [basev[i], dirv[i]])
            cache[key] = acc
        return cache[key]

    coeffs: List = [zero]
    for e, c in p.terms.items():
        cv = c.to_complex() if (not exact and isinstance(c, ExactComplex)) else c
        term = [cv]
        for i, k in enumerate(e):
            if k:
                term = convolve(term, lin_pow(i, k))
        if len(term) > len(coeffs):
            coeffs = coeffs + [zero] * (len(term) - len(coeffs))
        for idx, v in enumerate(term):
            coeffs[idx] = coeffs[idx] + v
    return Poly.univariate(coeffs, kind)


def entry_polys(pencil) -> List[List[Poly]]:
    """PencilMatrix.entry_polys, verbatim from when it served float
    pencils too: each entry a linear Poly of the pencil's kind."""
    units = [tuple(int(i == j) for j in range(pencil.m)) for i in range(pencil.m)]
    return [[Poly(pencil.m, dict(zip(units, e)), pencil.kind) for e in row]
            for row in pencil.coeffs.tolist()]


def pencil_minors(pencil) -> List[Poly]:
    """The maximal minors of a pencil of either kind: for a float pencil,
    what a float variety's generators were when it still expanded them."""
    return minors(entry_polys(pencil), pencil.n)


# -- The Poly-level Laplace expansion (verbatim) ------------------------------

def _laplace(rows: List[List[Poly]], rs: Tuple[int, ...], cs: Tuple[int, ...],
             memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly]) -> Poly:
    if len(cs) == 1:
        return rows[rs[0]][cs[0]]
    key = (rs, cs)
    det = memo.get(key)
    if det is not None:
        return det
    top = rows[rs[0]]
    det = Poly.zero(top[cs[0]].nvars, top[cs[0]].kind)
    for j, c in enumerate(cs):
        if top[c].is_zero():
            continue
        term = top[c] * _laplace(rows, rs[1:], cs[:j] + cs[j + 1:], memo)
        det = det + term if j % 2 == 0 else det - term
    memo[key] = det
    return det


def laplace_symbolic_det(rows: List[List[Poly]]) -> Poly:
    n = len(rows)
    return _laplace(rows, tuple(range(n)), tuple(range(n)), {})


def laplace_minors(rows: List[List[Poly]], k: int) -> List[Poly]:
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly] = {}
    return [_laplace(rows, rsub, csub, memo)
            for rsub in combinations(range(nr), k)
            for csub in combinations(range(nc), k)]


# -- Poly.evaluate (verbatim) -------------------------------------------------

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


# -- Helpers of the tests that compare with these -----------------------------

def homogenize(p):
    """The homogenization of a polynomial in two variables, in three."""
    d = p.degree()
    return Poly(3, {(e[0], e[1], d - e[0] - e[1]): c for e, c in p.terms.items()})


def coeff_bits(c):
    """An exact coefficient's canonical ints, or a float one's bits."""
    if isinstance(c, ExactComplex):
        return c.fields
    return (c.real.hex(), c.imag.hex())


def assert_identical(got: Poly, ref: Poly):
    """Equal, with the same terms in the same order and bit-equal floats."""
    assert (got.nvars, got.kind) == (ref.nvars, ref.kind)
    assert got == ref
    assert list(got.terms) == list(ref.terms)
    assert [coeff_bits(c) for c in got.terms.values()] \
        == [coeff_bits(c) for c in ref.terms.values()]

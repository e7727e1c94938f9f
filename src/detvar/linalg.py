"""Exact matrices over Q(i), and the Hermitian eigenproblems of complex arrays.

An exact matrix is a read-only numpy object array of ``ExactComplex``
entries (``exact_matrix``); a float matrix (a density, a local unitary,
a partial trace, an eigenvector block) is a complex array.  numpy forms
products, Kronecker products and conjugate transposes of either kind,
exactly on an exact one, and ``complex(z)`` (``ExactComplex.to_complex``)
rounds an exact entry wherever a float is read (``as_array``).  Exact
determinants and ranks read the pivots of one Gaussian elimination
(``_eliminate``), and the exact PSD test its own Hermitian pivots; the
Hermitian eigenproblems go to LAPACK through ``numpy.linalg.eigh``.

Basis convention, fixed once: the bipartite basis is
|11>,...,|1n>,...,|m1>,...,|mn> row-major, so the block rho_ij of an
mn x mn matrix occupies rows i*n..(i+1)*n-1 and columns j*n..(j+1)*n-1
(0-based i, j).
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NonSquare, NotHermitian
from .scalars import DEFAULT_TOL, EC_ONE, EC_ZERO, ExactComplex, Tolerance


def exact_matrix(rows) -> np.ndarray:
    """A read-only object array of ExactComplex from a list of rows (or a
    2-D array); ints and Fractions are coerced (ExactComplex.coerce), a
    float raises TypeError and ragged rows DimensionMismatch."""
    rows = list(rows)
    cols = len(rows[0]) if rows else 0
    out = np.empty((len(rows), cols), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != cols:
            raise DimensionMismatch("ragged rows")
        out[i] = [ExactComplex.coerce(x) for x in row]
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Exact elimination
# ---------------------------------------------------------------------------

def _eliminate(m: np.ndarray) -> Tuple[List[ExactComplex], int]:
    """Gaussian elimination of an exact matrix with exact pivot tests: the
    pivots, one per column that has one, and the sign of the row swaps."""
    rows, cols = m.shape
    a = m.tolist()
    pivots: List[ExactComplex] = []
    sign = 1
    for col in range(cols):
        row = len(pivots)
        if row == rows:
            break
        pivot = next((r for r in range(row, rows) if not a[r][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != row:
            a[row], a[pivot] = a[pivot], a[row]
            sign = -sign
        inv = a[row][col].inverse()
        for r in range(row + 1, rows):
            if not a[r][col].is_zero():
                factor = a[r][col] * inv
                for c in range(col + 1, cols):
                    a[r][c] = a[r][c] - factor * a[row][c]
        pivots.append(a[row][col])
    return pivots, sign


def det_exact(m: np.ndarray) -> ExactComplex:
    """Exact determinant of an exact matrix: the signed product of its
    pivots (_eliminate), 0 when a column has none."""
    rows, cols = m.shape
    if rows != cols:
        raise NonSquare(f"determinant of {rows}x{cols} matrix")
    pivots, sign = _eliminate(m)
    if len(pivots) < rows:
        return EC_ZERO
    d = prod(pivots, start=EC_ONE)
    return d if sign == 1 else -d


def rank_exact(m: np.ndarray) -> int:
    """Exact rank of an exact matrix: its number of pivots (_eliminate)."""
    return len(_eliminate(m)[0])


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition
# ---------------------------------------------------------------------------

class EigenResult(NamedTuple):
    """Spectral decomposition; eigenvalues real, sorted descending.

    ``residual`` is max_k ||M u_k - lambda_k u_k||, reported so callers can
    gate on the 1e-8*||M|| reconstruction requirement.
    """

    eigenvalues: List[float]
    eigenvectors: np.ndarray  # columns, in the order of the eigenvalues
    residual: float


class Decomposition:
    """A Hermitian array A decomposed apart from any tolerance (eigh_stack):
    (A + A^H) / 2, its eigenvalues descending and eigenvectors as columns in
    that order, and the defect max|A - A^H| and scale max(||A||, 1) that
    a tolerance bounds by abs_eps + rel_eps * scale, or NotHermitian."""

    def __init__(self, matrix, values, vectors, defect: float, scale: float):
        self.matrix, self.values, self.vectors = matrix, values, vectors
        self.defect, self.scale = defect, scale

    def eigenvalues(self, tol: Tolerance = DEFAULT_TOL) -> List[float]:
        if self.defect > tol.abs_eps + tol.rel_eps * self.scale:
            raise NotHermitian(f"Hermitian defect {self.defect:.3e} exceeds tolerance")
        return self.values.tolist()

    def eigen(self, tol: Tolerance = DEFAULT_TOL) -> EigenResult:
        self.eigenvalues(tol)
        return self._eigen

    @cached_property
    def _eigen(self) -> EigenResult:
        a, eigs, v = self.matrix, self.values, self.vectors
        residual = float(np.max(np.linalg.norm(a @ v - v * eigs, axis=0), initial=0.0))
        return EigenResult(eigs.tolist(), v, residual)


def eigh_stack(mats: Sequence[np.ndarray]) -> List[Decomposition]:
    """Hermitian arrays of one shape, checked square and finite, then
    symmetrized and decomposed by LAPACK in one stacked ``eigh``, which
    gives each the bits of a call of its own."""
    a = np.asarray(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise NonSquare("eigendecomposition of non-square matrix")
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has a non-finite entry")
    ah = a.conj().swapaxes(1, 2)
    defects = np.max(np.abs(a - ah), axis=(1, 2), initial=0.0).tolist()
    sym = (a + ah) / 2.0
    eigs, v = np.linalg.eigh(sym)
    return [Decomposition(sym[k], eigs[k, ::-1], v[k, :, ::-1], defects[k],
                          max(float(np.linalg.norm(a[k])), 1.0)) for k in range(len(a))]


def hermitian_eigen(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> EigenResult:
    """Full spectral decomposition of a Hermitian array (eigh_stack)."""
    return eigh_stack([m])[0].eigen(tol)


def spectral_cutoff(eigenvalues: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> float:
    """Eigenvalues within eig_cutoff * max(max|lambda|, 1) of zero are
    numerically zero."""
    return tol.eig_cutoff * max(max((abs(x) for x in eigenvalues), default=0.0), 1.0)


def psd_check(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no eigenvalue of the Hermitian array m lies below
    -spectral_cutoff.  An exact m is decided exactly, by Hermitian
    elimination: a negative pivot, or a zero one with a nonzero row, proves
    it is not PSD; a positive one d leaves C - b b^H / d, PSD iff m is."""
    if m.dtype != object:
        eigs = eigh_stack([m])[0].eigenvalues(tol)
        return not eigs or min(eigs) >= -spectral_cutoff(eigs, tol)
    a = m.copy()
    for k in range(len(a)):
        d = a[k, k]
        if d.re < 0 or (not d and any(a[k, k + 1:])):
            return False
        if d:
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / d, a[k, k + 1:])
    return True


def as_array(m: np.ndarray) -> np.ndarray:
    """A float matrix as given, or an exact one rounded entry by entry
    (complex(z), which is ExactComplex.to_complex): where a matrix of
    either kind is read as floats."""
    return m.astype(complex) if m.dtype == object else m


# ---------------------------------------------------------------------------
# Bipartite block operations, on exact and float matrices alike
# ---------------------------------------------------------------------------

def _blocks(rho: np.ndarray, m: int, n: int) -> np.ndarray:
    """rho as (m, n, m, n) blocks, [i, r, j, c] = (rho_ij)[r, c]."""
    if rho.shape != (m * n, m * n):
        raise DimensionMismatch(
            f"expected {m * n}x{m * n} matrix for an {m}x{n} system, "
            f"got {'x'.join(map(str, rho.shape))}")
    return rho.reshape(m, n, m, n)


def partial_transpose(rho: np.ndarray, m: int, n: int) -> np.ndarray:
    """Transpose on subsystem A: the blocked view (rho_ij) becomes (rho_ji)."""
    return _blocks(rho, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)


def partial_trace(rho: np.ndarray, m: int, n: int, side: str) -> np.ndarray:
    """Trace out one subsystem, summed block after block (exact on an
    exact rho).

    side="B": m x m matrix with entries trace(rho_ij).
    side="A": n x n sum of the diagonal blocks rho_ii.
    """
    blocks = _blocks(rho, m, n)
    if side == "B":
        return sum(blocks[:, r, :, r] for r in range(n))
    if side == "A":
        return sum(blocks[i, :, i, :] for i in range(m))
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")

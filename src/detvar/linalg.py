"""Dense matrices over exact or approximate complex scalars.

The same ``Matrix`` container carries both pathways, tagged by ``kind``:
``"exact"`` entries are ``ExactComplex``, ``"approx"`` entries are python
``complex``.  Exact determinants and ranks use fraction-free (Bareiss)
elimination; Hermitian eigenproblems, which only the approximate pathway
needs, go to LAPACK through ``numpy.linalg.eigh``.

Basis convention, fixed once: the bipartite basis is
|11>,...,|1n>,...,|m1>,...,|mn> row-major, so the block rho_ij of an
mn x mn matrix occupies rows i*n..(i+1)*n-1 and columns j*n..(j+1)*n-1
(0-based i, j).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NonSquare, NotHermitian
from .scalars import DEFAULT_TOL, EC_ONE, EC_ZERO, ExactComplex, Tolerance


class Matrix:
    """Immutable dense matrix; entries row-major, kind uniform."""

    __slots__ = ("rows", "cols", "kind", "data", "_eigen")

    def __init__(self, rows: int, cols: int, data: Sequence, kind: str):
        if kind not in ("exact", "approx"):
            raise ValueError(f"bad kind {kind!r}")
        if len(data) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", tuple(data))
        object.__setattr__(self, "_eigen", None)  # (tol, EigenResult) of eigen()

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # the default slot-state restore would call the raising __setattr__
        return (Matrix, (self.rows, self.cols, self.data, self.kind))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def exact(rows_of_entries) -> "Matrix":
        """Build an exact matrix from a list of rows; entries are coerced."""
        r = len(rows_of_entries)
        c = len(rows_of_entries[0]) if r else 0
        flat = []
        for row in rows_of_entries:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            flat.extend(ExactComplex.coerce(x) for x in row)
        return Matrix(r, c, flat, "exact")

    @staticmethod
    def approx(array_like) -> "Matrix":
        a = np.asarray(array_like, dtype=complex)
        if a.ndim != 2:
            raise DimensionMismatch("approx matrix needs a 2-d array")
        return Matrix(a.shape[0], a.shape[1], a.ravel().tolist(), "approx")

    @staticmethod
    def zeros(rows: int, cols: int, kind: str = "exact") -> "Matrix":
        fill = EC_ZERO if kind == "exact" else 0j
        return Matrix(rows, cols, [fill] * (rows * cols), kind)

    @staticmethod
    def identity(n: int, kind: str = "exact") -> "Matrix":
        one = EC_ONE if kind == "exact" else 1 + 0j
        zero = EC_ZERO if kind == "exact" else 0j
        return Matrix(n, n, [one if i == j else zero for i in range(n) for j in range(n)], kind)

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def to_numpy(self) -> np.ndarray:
        if self.kind == "approx":
            return np.array(self.data, dtype=complex).reshape(self.rows, self.cols)
        return np.array([z.to_complex() for z in self.data],
                        dtype=complex).reshape(self.rows, self.cols)

    def to_approx(self) -> "Matrix":
        if self.kind == "approx":
            return self
        return Matrix(self.rows, self.cols, [z.to_complex() for z in self.data], "approx")

    def eigen(self, tol: Tolerance = DEFAULT_TOL) -> "EigenResult":
        """``hermitian_eigen(self.to_approx(), tol)``, decomposed once per
        tolerance: a density is checked PSD, split into its spectral
        ensemble and asked for its spectrum from one decomposition."""
        if self._eigen is None or self._eigen[0] != tol:
            object.__setattr__(self, "_eigen", (tol, hermitian_eigen(self.to_approx(), tol)))
        return self._eigen[1]

    # -- algebra -----------------------------------------------------------

    def _zero(self):
        return EC_ZERO if self.kind == "exact" else 0j

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.data, other.data)], self.kind)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.data, other.data)], self.kind)

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, [x * c for x in self.data], self.kind)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.kind != other.kind:
            raise DimensionMismatch("mixed exact/approx product; convert first")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = self._zero()
                for k in range(self.cols):
                    acc = acc + ri[k] * other.data[k * other.cols + j]
                out.append(acc)
        return Matrix(self.rows, other.cols, out, self.kind)

    def conj_transpose(self) -> "Matrix":
        out = [self[j, i].conjugate() for i in range(self.cols) for j in range(self.rows)]
        return Matrix(self.cols, self.rows, out, self.kind)

    def trace(self):
        if self.rows != self.cols:
            raise NonSquare("trace of non-square matrix")
        acc = self._zero()
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def _check_same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols) or self.kind != other.kind:
            raise DimensionMismatch("shape or kind mismatch")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.kind, self.data) == \
               (other.rows, other.cols, other.kind, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.kind, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.kind})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; follows the row-major bipartite basis convention."""
    if a.kind != b.kind:
        raise DimensionMismatch("mixed exact/approx Kronecker product")
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = []
    for i in range(rows):
        ia, ib = divmod(i, b.rows)
        for j in range(cols):
            ja, jb = divmod(j, b.cols)
            out.append(a[ia, ja] * b[ib, jb])
    return Matrix(rows, cols, out, a.kind)


# ---------------------------------------------------------------------------
# Exact elimination
# ---------------------------------------------------------------------------

def det_exact(m: Matrix) -> ExactComplex:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Intermediate entries stay exact division results, which bounds the
    coefficient blowup compared to naive fraction elimination.
    """
    if m.rows != m.cols:
        raise NonSquare(f"determinant of {m.rows}x{m.cols} matrix")
    if m.kind != "exact":
        raise TypeError("det_exact needs an exact matrix")
    n = m.rows
    if n == 0:
        return EC_ONE
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = EC_ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if pivot_row is None:
                return ExactComplex(0)
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = EC_ZERO
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def rank_exact(m: Matrix) -> int:
    """Exact rank by Gaussian elimination with exact pivot tests."""
    if m.kind != "exact":
        raise TypeError("rank_exact needs an exact matrix")
    a = [list(m.row(i)) for i in range(m.rows)]
    rank = 0
    row = 0
    for col in range(m.cols):
        pivot = next((r for r in range(row, m.rows) if not a[r][col].is_zero()), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = a[row][col].inverse()
        for r in range(row + 1, m.rows):
            if not a[r][col].is_zero():
                factor = a[r][col] * inv
                for c in range(col, m.cols):
                    a[r][c] = a[r][c] - factor * a[row][c]
        rank += 1
        row += 1
        if row == m.rows:
            break
    return rank


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition
# ---------------------------------------------------------------------------

class EigenResult(NamedTuple):
    """Spectral decomposition; eigenvalues real, sorted descending.

    ``residual`` is max_k ||M u_k - lambda_k u_k||, reported so callers can
    gate on the 1e-8*||M|| reconstruction requirement.
    """

    eigenvalues: List[float]
    eigenvectors: Matrix
    residual: float


def _eigh(m: Matrix, tol: Tolerance) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, eigenvalues descending, eigenvectors as columns in that order)
    of a Hermitian matrix by LAPACK (``eigh``), A being the matrix checked
    finite and Hermitian within tol, then symmetrized: the one
    decomposition behind hermitian_eigen and hermitian_eigenvalues."""
    if m.rows != m.cols:
        raise NonSquare("eigendecomposition of non-square matrix")
    a = m.to_numpy()
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has a non-finite entry")
    scale = max(float(np.linalg.norm(a)), 1.0)
    herm_defect = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    if herm_defect > tol.abs_eps + tol.rel_eps * scale:
        raise NotHermitian(f"Hermitian defect {herm_defect:.3e} exceeds tolerance")
    a = (a + a.conj().T) / 2.0
    eigs, v = np.linalg.eigh(a)
    return a, eigs[::-1], v[:, ::-1]


def hermitian_eigen(m: Matrix, tol: Tolerance = DEFAULT_TOL) -> EigenResult:
    """Full spectral decomposition of a Hermitian matrix (_eigh), with its
    eigenvectors as a Matrix and the reconstruction residual."""
    a, eigs, v = _eigh(m, tol)
    residual = float(np.max(np.linalg.norm(a @ v - v * eigs, axis=0), initial=0.0))
    return EigenResult([float(x) for x in eigs], Matrix.approx(v), residual)


def hermitian_eigenvalues(m: Matrix, tol: Tolerance = DEFAULT_TOL) -> List[float]:
    """The eigenvalues of hermitian_eigen(m, tol), bit for bit, descending:
    the same checks and the same decomposition (_eigh), with no
    eigenvector Matrix and no residual built."""
    return [float(x) for x in _eigh(m, tol)[1]]


def spectral_cutoff(eigenvalues: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> float:
    """Eigenvalues within eig_cutoff * max(max|lambda|, 1) of zero are
    numerically zero."""
    return tol.eig_cutoff * max(max((abs(x) for x in eigenvalues), default=0.0), 1.0)


def psd_check(m: Matrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no eigenvalue lies below -spectral_cutoff."""
    eigs = m.eigen(tol).eigenvalues
    return not eigs or min(eigs) >= -spectral_cutoff(eigs, tol)


# ---------------------------------------------------------------------------
# Bipartite block operations
# ---------------------------------------------------------------------------

def _check_bipartite(rho: Matrix, m: int, n: int):
    if rho.rows != m * n or rho.cols != m * n:
        raise DimensionMismatch(
            f"expected {m * n}x{m * n} matrix for an {m}x{n} system, got {rho.rows}x{rho.cols}"
        )


def block(rho: Matrix, m: int, n: int, i: int, j: int) -> Matrix:
    """The n x n block rho_ij (1-based subsystem-A indices i, j)."""
    _check_bipartite(rho, m, n)
    from .errors import IndexOutOfRange
    if not (1 <= i <= m and 1 <= j <= m):
        raise IndexOutOfRange(f"block index ({i},{j}) outside 1..{m}")
    i0, j0 = (i - 1) * n, (j - 1) * n
    out = [rho[i0 + r, j0 + c] for r in range(n) for c in range(n)]
    return Matrix(n, n, out, rho.kind)


def partial_transpose(rho: Matrix, m: int, n: int) -> Matrix:
    """Transpose on subsystem A: the blocked view (rho_ij) becomes (rho_ji)."""
    _check_bipartite(rho, m, n)
    out = [None] * (m * n * m * n)
    mn = m * n
    for i in range(m):
        for j in range(m):
            for r in range(n):
                for c in range(n):
                    out[(i * n + r) * mn + (j * n + c)] = rho[j * n + r, i * n + c]
    return Matrix(mn, mn, out, rho.kind)


def partial_trace(rho: Matrix, m: int, n: int, side: str) -> Matrix:
    """Trace out one subsystem.

    side="B": m x m matrix with entries trace(rho_ij).
    side="A": n x n sum of the diagonal blocks rho_ii.
    """
    _check_bipartite(rho, m, n)
    zero = EC_ZERO if rho.kind == "exact" else 0j
    if side == "B":
        out = []
        for i in range(m):
            for j in range(m):
                acc = zero
                for r in range(n):
                    acc = acc + rho[i * n + r, j * n + r]
                out.append(acc)
        return Matrix(m, m, out, rho.kind)
    if side == "A":
        out = [zero] * (n * n)
        for i in range(m):
            for r in range(n):
                for c in range(n):
                    out[r * n + c] = out[r * n + c] + rho[i * n + r, i * n + c]
        return Matrix(n, n, out, rho.kind)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")

"""Dense matrices over Q(i), and the Hermitian eigenproblems of complex arrays.

``Matrix`` holds ``ExactComplex`` entries only.  Exact determinants and
ranks use fraction-free (Bareiss) elimination.  Every float matrix (a
density, a local unitary, a partial trace, an eigenvector block) is a
complex ``numpy`` array; its Hermitian eigenproblems go to LAPACK
through ``numpy.linalg.eigh``.

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
    """Immutable dense matrix of ExactComplex entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence):
        if len(data) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # the default slot-state restore would call the raising __setattr__
        return (Matrix, (self.rows, self.cols, self.data))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def exact(rows_of_entries) -> "Matrix":
        """Build a matrix from a list of rows; entries are coerced."""
        r = len(rows_of_entries)
        c = len(rows_of_entries[0]) if r else 0
        flat = []
        for row in rows_of_entries:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            flat.extend(ExactComplex.coerce(x) for x in row)
        return Matrix(r, c, flat)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [EC_ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [EC_ONE if i == j else EC_ZERO for i in range(n) for j in range(n)])

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int):
        return self.data[i * self.cols:(i + 1) * self.cols]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.rows, self.cols

    def to_numpy(self) -> np.ndarray:
        """The entries rounded to a complex array, each one correctly."""
        return np.array([z.to_complex() for z in self.data],
                        dtype=complex).reshape(self.rows, self.cols)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, [x * c for x in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = EC_ZERO
                for k in range(self.cols):
                    acc = acc + ri[k] * other.data[k * other.cols + j]
                out.append(acc)
        return Matrix(self.rows, other.cols, out)

    def conj_transpose(self) -> "Matrix":
        out = [self[j, i].conjugate() for i in range(self.cols) for j in range(self.rows)]
        return Matrix(self.cols, self.rows, out)

    def trace(self):
        if self.rows != self.cols:
            raise NonSquare("trace of non-square matrix")
        acc = EC_ZERO
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def _check_same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; follows the row-major bipartite basis convention."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = []
    for i in range(rows):
        ia, ib = divmod(i, b.rows)
        for j in range(cols):
            ja, jb = divmod(j, b.cols)
            out.append(a[ia, ja] * b[ib, jb])
    return Matrix(rows, cols, out)


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
    eigenvectors: np.ndarray  # columns, in the order of the eigenvalues
    residual: float


def _eigh(m: np.ndarray, tol: Tolerance) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, eigenvalues descending, eigenvectors as columns in that order)
    of a Hermitian complex array by LAPACK (``eigh``), A being the array
    checked finite and Hermitian within tol, then symmetrized: the one
    decomposition behind hermitian_eigen and hermitian_eigenvalues."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare("eigendecomposition of non-square matrix")
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has a non-finite entry")
    scale = max(float(np.linalg.norm(a)), 1.0)
    herm_defect = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    if herm_defect > tol.abs_eps + tol.rel_eps * scale:
        raise NotHermitian(f"Hermitian defect {herm_defect:.3e} exceeds tolerance")
    a = (a + a.conj().T) / 2.0
    eigs, v = np.linalg.eigh(a)
    return a, eigs[::-1], v[:, ::-1]


def hermitian_eigen(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> EigenResult:
    """Full spectral decomposition of a Hermitian array (_eigh), with its
    eigenvectors and the reconstruction residual."""
    a, eigs, v = _eigh(m, tol)
    residual = float(np.max(np.linalg.norm(a @ v - v * eigs, axis=0), initial=0.0))
    return EigenResult([float(x) for x in eigs], v, residual)


def hermitian_eigenvalues(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> List[float]:
    """The eigenvalues of hermitian_eigen(m, tol), bit for bit, descending:
    the same checks and the same decomposition (_eigh), with no residual
    computed."""
    return [float(x) for x in _eigh(m, tol)[1]]


def spectral_cutoff(eigenvalues: Sequence[float], tol: Tolerance = DEFAULT_TOL) -> float:
    """Eigenvalues within eig_cutoff * max(max|lambda|, 1) of zero are
    numerically zero."""
    return tol.eig_cutoff * max(max((abs(x) for x in eigenvalues), default=0.0), 1.0)


def psd_check(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff no eigenvalue of the Hermitian array m lies below
    -spectral_cutoff."""
    eigs = hermitian_eigenvalues(m, tol)
    return not eigs or min(eigs) >= -spectral_cutoff(eigs, tol)


def as_array(m) -> np.ndarray:
    """A float matrix as given, or an exact Matrix rounded (to_numpy):
    where a matrix of either kind is read as floats."""
    return m.to_numpy() if isinstance(m, Matrix) else m


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
    return Matrix(n, n, out)


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
    return Matrix(mn, mn, out)


def partial_trace(rho: Matrix, m: int, n: int, side: str) -> Matrix:
    """Trace out one subsystem, exactly.

    side="B": m x m matrix with entries trace(rho_ij).
    side="A": n x n sum of the diagonal blocks rho_ii.
    """
    _check_bipartite(rho, m, n)
    if side == "B":
        out = []
        for i in range(m):
            for j in range(m):
                acc = EC_ZERO
                for r in range(n):
                    acc = acc + rho[i * n + r, j * n + r]
                out.append(acc)
        return Matrix(m, m, out)
    if side == "A":
        out = [EC_ZERO] * (n * n)
        for i in range(m):
            for r in range(n):
                for c in range(n):
                    out[r * n + c] = out[r * n + c] + rho[i * n + r, i * n + c]
        return Matrix(n, n, out)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")

"""Retired matrix containers, kept verbatim, and bit comparisons.

* ``ApproxMatrix`` and ``to_approx``, with ``approx_partial_transpose`` and
  ``approx_partial_trace`` (then without ``approx_``): the float
  ``linalg.Matrix``, retired by commit f6bedd7.
* ``Matrix``, ``partial_transpose``, ``partial_trace`` and ``to_matrix``:
  the exact ``linalg.Matrix``, retired by commit e001f2b ("One matrix
  container").
* ``unit_scaled``: ``states.unit_scaled``, retired by commit e94fcaa.
* ``_hadamard_ratio``, with the list-returning ``_row_norms`` it read: the
  per-matrix Hermitian residual of ``variety``, retired when the stacked
  ``variety._hadamard_ratios`` took over every float Hadamard ratio.
* ``_row_form``: ``variety._row_form`` as it was before it went through
  ``variety._normalize_floats``, whose scaling its body repeated.
* ``one_point_at_a_time``: the oracles read one point per call, as the
  sampler and the covariance check read them before each sampler draw and
  each covariance side went to one ``Variety.hermitian_residuals`` and
  one ``Variety.pencil_residuals`` call.
"""

import math
from math import sqrt
from typing import List, Sequence, Tuple

import numpy as np

from detvar.errors import DimensionMismatch, NonSquare
from detvar.multipoly import LinearForm
from detvar.scalars import EC_ONE, EC_ZERO, ExactComplex
from detvar.variety import Variety


# -- The float Matrix (verbatim) ----------------------------------------------

class ApproxMatrix:
    """A Matrix of kind "approx": python complex entries, row-major."""

    def __init__(self, rows, cols, data):
        self.rows, self.cols, self.data = rows, cols, tuple(data)

    @staticmethod
    def approx(array_like) -> "ApproxMatrix":
        a = np.asarray(array_like, dtype=complex)
        return ApproxMatrix(a.shape[0], a.shape[1], a.ravel().tolist())

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def to_numpy(self) -> np.ndarray:
        return np.array(self.data, dtype=complex).reshape(self.rows, self.cols)

    def __matmul__(self, other: "ApproxMatrix") -> "ApproxMatrix":
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = 0j
                for k in range(self.cols):
                    acc = acc + ri[k] * other.data[k * other.cols + j]
                out.append(acc)
        return ApproxMatrix(self.rows, other.cols, out)

    def conj_transpose(self) -> "ApproxMatrix":
        out = [self[j, i].conjugate() for i in range(self.cols) for j in range(self.rows)]
        return ApproxMatrix(self.cols, self.rows, out)


def to_approx(x) -> ApproxMatrix:
    """Matrix.to_approx of an exact matrix (an object array, once an exact
    Matrix); Matrix.approx of a complex array."""
    if x.dtype == object:
        return ApproxMatrix(x.shape[0], x.shape[1], [z.to_complex() for z in x.ravel()])
    return ApproxMatrix.approx(x)


def approx_partial_transpose(rho: ApproxMatrix, m: int, n: int) -> ApproxMatrix:
    out = [None] * (m * n * m * n)
    mn = m * n
    for i in range(m):
        for j in range(m):
            for r in range(n):
                for c in range(n):
                    out[(i * n + r) * mn + (j * n + c)] = rho[j * n + r, i * n + c]
    return ApproxMatrix(mn, mn, out)


def approx_partial_trace(rho: ApproxMatrix, m: int, n: int, side: str) -> ApproxMatrix:
    zero = 0j
    if side == "B":
        out = []
        for i in range(m):
            for j in range(m):
                acc = zero
                for r in range(n):
                    acc = acc + rho[i * n + r, j * n + r]
                out.append(acc)
        return ApproxMatrix(m, m, out)
    if side == "A":
        out = [zero] * (n * n)
        for i in range(m):
            for r in range(n):
                for c in range(n):
                    out[r * n + c] = out[r * n + c] + rho[i * n + r, i * n + c]
        return ApproxMatrix(n, n, out)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


# -- The exact Matrix (verbatim) ----------------------------------------------

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


def _check_bipartite(rho: Matrix, m: int, n: int):
    if rho.rows != m * n or rho.cols != m * n:
        raise DimensionMismatch(
            f"expected {m * n}x{m * n} matrix for an {m}x{n} system, got {rho.rows}x{rho.cols}"
        )


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


def to_matrix(a: np.ndarray) -> Matrix:
    """The reference Matrix of an exact (object) array."""
    return Matrix(a.shape[0], a.shape[1], a.ravel().tolist())


# -- states.unit_scaled (verbatim), and bit comparisons -----------------------

def unit_scaled(v):
    """The ray v as floats times 2**-e, e the binary exponent of its
    largest real or imaginary part, which then lies in [1/2, 1).  Scaling
    by a power of two is exact, so every ratio built from the ray keeps
    its bits, while its products (minors, outer products, norms) no
    longer underflow or overflow."""
    zs = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in v]
    e = math.frexp(max(max(abs(z.real), abs(z.imag)) for z in zs))[1]
    return [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in zs]


# -- The per-matrix Hadamard ratio (verbatim) ----------------------------------

def _row_norms(rows: np.ndarray) -> List[float]:
    """float(np.linalg.norm(row)) of each row of a complex 2-D array, bit
    for bit: numpy's own formula for a complex vector, sqrt(re . re +
    im . im), on the same strided views, with no call through norm."""
    return [sqrt(re.dot(re) + im.dot(im)) for re, im in zip(rows.real, rows.imag)]


def _hadamard_ratio(arr: np.ndarray) -> float:
    """|det arr| over the product of its row norms (_row_norms), each at
    least 1e-300.  Where that product underflows, a zero row reads 0.0 and
    other rows are first scaled to unit max modulus, which leaves the
    ratio as it was and keeps det and bound in range."""
    det = complex(np.linalg.det(arr))
    bound = 1.0
    for norm in _row_norms(arr):
        bound *= max(norm, 1e-300)
    if bound != 0.0:
        return abs(det) / bound
    peaks = np.abs(arr).max(axis=1, keepdims=True)
    if not peaks.all():
        return 0.0
    # divided as real pairs: numpy's complex division overflows on a subnormal
    return _hadamard_ratio((arr.view(float) / peaks).view(complex))


def bits(a) -> list:
    return [(float(z.real).hex(), float(z.imag).hex()) for z in np.ravel(a)]


def _row_form(row: np.ndarray) -> LinearForm:
    """A row of T as a form whose first largest coefficient is 1."""
    coeffs = row.tolist()
    top = max(range(len(coeffs)), key=lambda i: abs(coeffs[i]))
    inv = 1.0 / coeffs[top]
    return LinearForm([x * inv for x in coeffs], 0j, normalize=False)


def one_point_at_a_time(mp) -> None:
    """Patch (with the pytest monkeypatch `mp`) Variety.hermitian_residuals
    and Variety.pencil_residuals to read a stack one point per call."""
    herm, pencil = Variety.hermitian_residuals, Variety.pencil_residuals
    mp.setattr(Variety, "hermitian_residuals",
               lambda self, pts: np.array([herm(self, [p])[0] for p in pts]))
    mp.setattr(Variety, "pencil_residuals",
               lambda self, pts: np.array([pencil(self, [p])[0] for p in pts]))

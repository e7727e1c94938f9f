"""The float matrix pathway against the code it replaced.

Float densities, local unitaries and eigenvectors were once
``linalg.Matrix`` objects of kind "approx", a tuple of python complex
walked by python loops.  This file keeps, verbatim, that float Matrix
(``ApproxMatrix``: the constructor from an array, indexing, product and
conjugate transpose), the ``kron``, ``partial_trace`` and
``partial_transpose`` that ran on it, and the float path of
``apply_local_unitary``.  The partial traces of a float density, now
summed on complex arrays, must equal theirs in every bit, on 600 states of
shapes up to 5x5.  A transformed ensemble or density agrees with theirs to
1e-13 relative: numpy's matrix product sums in its own order, and only
the covariance residuals read that product.
"""

import random

import numpy as np
import pytest

from detvar.scalars import ExactComplex
from detvar.states import (
    BipartiteState,
    LocalUnitaryPair,
    apply_local_unitary,
    random_local_unitary,
    random_mixed,
    random_separable,
)


# ---------------------------------------------------------------------------
# The reference (the old code, verbatim)
# ---------------------------------------------------------------------------

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


def kron(a: ApproxMatrix, b: ApproxMatrix) -> ApproxMatrix:
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = []
    for i in range(rows):
        ia, ib = divmod(i, b.rows)
        for j in range(cols):
            ja, jb = divmod(j, b.cols)
            out.append(a[ia, ja] * b[ib, jb])
    return ApproxMatrix(rows, cols, out)


def partial_transpose(rho: ApproxMatrix, m: int, n: int) -> ApproxMatrix:
    out = [None] * (m * n * m * n)
    mn = m * n
    for i in range(m):
        for j in range(m):
            for r in range(n):
                for c in range(n):
                    out[(i * n + r) * mn + (j * n + c)] = rho[j * n + r, i * n + c]
    return ApproxMatrix(mn, mn, out)


def partial_trace(rho: ApproxMatrix, m: int, n: int, side: str) -> ApproxMatrix:
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


def apply_local_unitary_float(s: BipartiteState, u: LocalUnitaryPair):
    """(ensemble, density) of apply_local_unitary on its float path."""
    t = kron(to_approx(u.u_a), to_approx(u.u_b))
    ens = None
    if s.ensemble is not None:
        tm = t
        ens = []
        for w, v in s.ensemble:
            v = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in v]
            w = float(w)
            ens.append((w, (tm @ ApproxMatrix(len(v), 1, v)).data))
    dens = None
    if s.density is not None:
        rho = to_approx(s.density)
        dens = t @ rho @ t.conj_transpose()
    return ens, dens


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def bits(a) -> list:
    return [(float(z.real).hex(), float(z.imag).hex()) for z in np.ravel(a)]


def float_states(count: int, seed: int):
    """Float states of every shape up to 5x5: ensembles, their swaps, and
    densities alone."""
    rng = random.Random(seed)
    shapes = [(m, n) for m in range(1, 6) for n in range(1, 6)]
    for k in range(count):
        m, n = shapes[k % len(shapes)]
        s = random_mixed(m, n, rng.randint(1, m * n), seed=rng.randrange(10**6))
        yield [s, s.swapped(), BipartiteState(m, n, density=s.density_matrix())][k % 3]


def test_float_partial_traces_are_those_of_the_float_matrix():
    for s in float_states(600, seed=33):
        _, tr_b, tr_a = s._float_images()
        rho = to_approx(s.density_matrix())
        assert bits(tr_b) == bits(partial_trace(rho, s.m, s.n, "B").to_numpy())
        assert bits(tr_a) == bits(partial_trace(rho, s.m, s.n, "A").to_numpy())


def test_float_partial_transpose_is_that_of_the_float_matrix():
    for s in float_states(100, seed=34):
        m, n = s.m, s.n
        got = s._float_images()[0].reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, -1)
        want = partial_transpose(to_approx(s.density_matrix()), m, n).to_numpy()
        assert bits(got) == bits(want)


def _close(got, want):
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("given", ["ensemble", "density", "exact ensemble"])
def test_transformed_states_agree_with_the_float_matrix_product(given):
    rng = random.Random(given)
    for k in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        seed = rng.randrange(10**6)
        if given == "exact ensemble":
            s = random_separable(m, n, rng.randint(1, 4), seed=seed)
        else:
            s = random_mixed(m, n, rng.randint(1, m * n), seed=seed)
            if given == "density":
                s = BipartiteState(m, n, density=s.density_matrix())
        u = random_local_unitary(m, n, seed=seed + 1)
        got = apply_local_unitary(s, u)
        ens, dens = apply_local_unitary_float(s, u)
        if ens is None:
            assert got.ensemble is None
        else:
            assert [w for w, _ in got.ensemble] == [w for w, _ in ens]
            for (_, v), (_, ref) in zip(got.ensemble, ens, strict=True):
                _close(v, ref)
        if dens is None:
            assert got.density is None
        else:
            assert isinstance(got.density, np.ndarray)
            _close(got.density, dens.to_numpy())

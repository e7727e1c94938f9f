"""The float matrix pathway against the code it replaced.

Float densities, local unitaries and eigenvectors were once
``linalg.Matrix`` objects of kind "approx", kept in ``oracles.arrays``
(``ApproxMatrix``) with the partial traces and transpose that ran on them.
This file keeps, verbatim, their ``kron`` and the float path of
``apply_local_unitary``.  The partial traces of a float density, now summed
on complex arrays, must equal theirs in every bit, on 600 states of shapes
up to 5x5.  A transformed ensemble or density agrees with theirs to 1e-13
relative: numpy's matrix product sums in its own order, and only the
covariance residuals read that product.
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
from oracles.arrays import (ApproxMatrix, approx_partial_trace, approx_partial_transpose, bits,
                            to_approx)


# ---------------------------------------------------------------------------
# The reference (the old code, verbatim)
# ---------------------------------------------------------------------------

def kron(a: ApproxMatrix, b: ApproxMatrix) -> ApproxMatrix:
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = []
    for i in range(rows):
        ia, ib = divmod(i, b.rows)
        for j in range(cols):
            ja, jb = divmod(j, b.cols)
            out.append(a[ia, ja] * b[ib, jb])
    return ApproxMatrix(rows, cols, out)


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
        _, tr_b, tr_a = s.float_images
        rho = to_approx(s.density_matrix())
        assert bits(tr_b) == bits(approx_partial_trace(rho, s.m, s.n, "B").to_numpy())
        assert bits(tr_a) == bits(approx_partial_trace(rho, s.m, s.n, "A").to_numpy())


def test_float_partial_transpose_is_that_of_the_float_matrix():
    for s in float_states(100, seed=34):
        m, n = s.m, s.n
        got = s.float_images[0].reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, -1)
        want = approx_partial_transpose(to_approx(s.density_matrix()), m, n).to_numpy()
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

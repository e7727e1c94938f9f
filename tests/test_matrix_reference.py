"""Exact matrices as numpy object arrays against the ``Matrix`` they replaced.

Exact matrices were once ``linalg.Matrix``, a tuple of ``ExactComplex``
with its own product, Kronecker product, conjugate transpose, trace and
partial operations.  That ``Matrix``, with ``partial_transpose`` and
``partial_trace`` (and ``_check_bipartite``), is kept in ``oracles.arrays``,
where other reference modules build their exact oracles on it.  This file
keeps, verbatim, its ``kron``, ``det_exact``, ``rank_exact`` and ``block``.
The one edit: ``block`` imported ``IndexOutOfRange`` from ``detvar.errors``,
which no longer has it, so the class is defined here.

The read-only object arrays that replace it must agree with it field for
field (every entry the same canonical ``(a, b, d)``): on the catalog
states (the cyclic family at t^3 = 8, 27 and -27, the 4x6 PPT state and the
maximally mixed 2x3 state), for the density, its partial traces and
partial transpose, blocks, swap, exact rank, float images and an exact
local unitary; and on drawn exact matrices for products, sums, Kronecker
products, conjugate transposes, traces, partial traces and transposes,
``det_exact`` and ``rank_exact``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detvar import catalog, linalg
from detvar.errors import DetvarError, DimensionMismatch, NonSquare
from detvar.scalars import EC_ONE, EC_ZERO, ExactComplex
from detvar.states import BipartiteState, LocalUnitaryPair, apply_local_unitary
from oracles.arrays import (Matrix, _check_bipartite, bits, partial_trace, partial_transpose,
                            to_matrix)

EC = ExactComplex


class IndexOutOfRange(DetvarError):
    pass


# ---------------------------------------------------------------------------
# The reference (the old code, verbatim)
# ---------------------------------------------------------------------------

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


def block(rho: Matrix, m: int, n: int, i: int, j: int) -> Matrix:
    """The n x n block rho_ij (1-based subsystem-A indices i, j)."""
    _check_bipartite(rho, m, n)
    if not (1 <= i <= m and 1 <= j <= m):
        raise IndexOutOfRange(f"block index ({i},{j}) outside 1..{m}")
    i0, j0 = (i - 1) * n, (j - 1) * n
    out = [rho[i0 + r, j0 + c] for r in range(n) for c in range(n)]
    return Matrix(n, n, out)


# ---------------------------------------------------------------------------
# Between the two containers
# ---------------------------------------------------------------------------

def assert_same(got: np.ndarray, want: Matrix):
    """got, an exact array, is want field for field."""
    assert got.dtype == object and got.shape == want.shape
    assert [x.fields for x in got.ravel()] == [x.fields for x in want.data]


def reference_density(s: BipartiteState) -> Matrix:
    """sum_l p_l v_l v_l^dagger / ||v_l||^2, on Matrix."""
    mn = s.m * s.n
    acc = Matrix.zeros(mn, mn)
    for w, v in s.ensemble_terms():
        col = Matrix(mn, 1, v)
        nsq = (col.conj_transpose() @ col)[0, 0]
        acc = acc + (col @ col.conj_transpose()).scale(EC(w) / nsq)
    return acc


def swap_permutation(m: int, n: int) -> Matrix:
    """P with P[(j, i), (i, j)] = 1: P rho P^dagger exchanges the subsystems."""
    mn = m * n
    data = [EC_ZERO] * (mn * mn)
    for i in range(m):
        for j in range(n):
            data[(j * m + i) * mn + (i * n + j)] = EC_ONE
    return Matrix(mn, mn, data)


def shift(k: int, phase: ExactComplex) -> Matrix:
    """The cyclic shift on C^k with its first column times phase: exactly
    unitary for |phase| = 1."""
    data = [EC_ZERO] * (k * k)
    for j in range(k):
        data[((j + 1) % k) * k + j] = phase if j == 0 else EC_ONE
    return Matrix(k, k, data)


CATALOG = {
    "cyclic t^3=8": lambda: catalog.cyclic_cubic_state(EC(8)),
    "cyclic t^3=27": lambda: catalog.cyclic_cubic_state(EC(27)),
    "cyclic t^3=-27": lambda: catalog.cyclic_cubic_state(EC(-27)),
    "ppt 4x6": catalog.ppt_4x6_state,
    "maximally mixed 2x3": lambda: catalog.maximally_mixed(2, 3),
}


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_density_and_its_operations_match_the_matrix(name):
    s = CATALOG[name]()
    m, n = s.m, s.n
    rho, ref = s.density_matrix(), reference_density(s)
    assert not rho.flags.writeable
    assert_same(rho, ref)
    for side in "BA":
        assert_same(linalg.partial_trace(rho, m, n, side), partial_trace(ref, m, n, side))
    assert_same(linalg.partial_transpose(rho, m, n), partial_transpose(ref, m, n))
    for i in range(m):
        for j in range(m):
            assert_same(rho[i * n:(i + 1) * n, j * n:(j + 1) * n], block(ref, m, n, i + 1, j + 1))
    assert linalg.rank_exact(rho) == rank_exact(ref)
    assert linalg.det_exact(rho).fields == det_exact(ref).fields
    given_density = BipartiteState(m, n, density=rho)
    p = swap_permutation(m, n)
    assert_same(given_density.swapped().density, p @ ref @ p.conj_transpose())
    images = given_density.float_images
    wants = (ref, partial_trace(ref, m, n, "B"), partial_trace(ref, m, n, "A"))
    for got, want in zip(images, wants, strict=True):
        assert bits(got) == bits(want.to_numpy())


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_exact_local_unitary_matches_the_matrix(name):
    s = CATALOG[name]()
    m, n = s.m, s.n
    u_a, u_b = shift(m, EC(0, 1)), shift(n, EC(Fraction(3, 5), Fraction(-4, 5)))
    pair = LocalUnitaryPair(linalg.exact_matrix([u_a.row(i) for i in range(m)]),
                            linalg.exact_matrix([u_b.row(i) for i in range(n)]))
    t = kron(u_a, u_b)
    assert_same(pair.joint(), t)
    moved = apply_local_unitary(s, pair)
    for (w, v), (w_ref, v_ref) in zip(moved.ensemble, s.ensemble, strict=True):
        assert w == w_ref
        assert [x.fields for x in v] == [x.fields for x in (t @ Matrix(len(v_ref), 1, v_ref)).data]
    ref = reference_density(s)
    moved = apply_local_unitary(BipartiteState(m, n, density=s.density_matrix()), pair)
    assert_same(moved.density, t @ ref @ t.conj_transpose())


# ---------------------------------------------------------------------------
# Drawn exact matrices
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=100)

_ENTRIES = st.one_of(st.just(EC(0)), st.builds(
    lambda a, b, d: EC(Fraction(a, d), Fraction(b, d)),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3)))


def _rows(r: int, c: int):
    return st.lists(st.lists(_ENTRIES, min_size=c, max_size=c), min_size=r, max_size=r)


@SETTINGS
@given(st.data())
def test_drawn_products_sums_and_transposes_match_the_matrix(data):
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    a_rows, b_rows = data.draw(_rows(r, k)), data.draw(_rows(k, c))
    a, b = linalg.exact_matrix(a_rows), linalg.exact_matrix(b_rows)
    ref_a, ref_b = Matrix.exact(a_rows), Matrix.exact(b_rows)
    assert_same(a, ref_a)
    assert_same(a @ b, ref_a @ ref_b)
    assert_same(np.kron(a, b), kron(ref_a, ref_b))
    assert_same(a.conj().T, ref_a.conj_transpose())
    twin = linalg.exact_matrix(data.draw(_rows(r, k)))
    assert_same(a + twin, ref_a + to_matrix(twin))
    assert_same(a - twin, ref_a - to_matrix(twin))
    square = a @ a.conj().T
    assert square.trace().fields == (ref_a @ ref_a.conj_transpose()).trace().fields


@SETTINGS
@given(st.data())
def test_drawn_partial_operations_match_the_matrix(data):
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rows = data.draw(_rows(m * n, m * n))
    rho, ref = linalg.exact_matrix(rows), Matrix.exact(rows)
    for side in "BA":
        assert_same(linalg.partial_trace(rho, m, n, side), partial_trace(ref, m, n, side))
    assert_same(linalg.partial_transpose(rho, m, n), partial_transpose(ref, m, n))


@SETTINGS
@given(st.data())
def test_drawn_determinants_and_ranks_match_the_matrix(data):
    # a product through an inner dimension k below r and c has rank <= k
    r, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 5))
    left, right = data.draw(_rows(r, k)), data.draw(_rows(k, c))
    product = (Matrix.exact(left) @ Matrix.exact(right)).data
    for mat in (left, [product[i * c:(i + 1) * c] for i in range(r)]):
        a, ref = linalg.exact_matrix(mat), Matrix.exact(mat)
        assert linalg.rank_exact(a) == rank_exact(ref)
        if a.shape[0] == a.shape[1]:
            assert linalg.det_exact(a).fields == det_exact(ref).fields
        else:
            with pytest.raises(NonSquare):
                linalg.det_exact(a)


def test_the_partial_operations_refuse_the_wrong_shape():
    rho = linalg.exact_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    for op in (lambda: linalg.partial_transpose(rho, 2, 2),
               lambda: linalg.partial_trace(rho, 1, 2, "A")):
        with pytest.raises(DimensionMismatch):
            op()
    with pytest.raises(ValueError):
        linalg.partial_trace(rho, 3, 1, "C")

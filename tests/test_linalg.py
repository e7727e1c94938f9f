import random
from fractions import Fraction

import numpy as np
import pytest

from detvar.catalog import ppt_4x6_blocks, ppt_4x6_state
from detvar.errors import DimensionMismatch, NonSquare, NotHermitian
from detvar.linalg import (
    as_array,
    det_exact,
    exact_matrix,
    hermitian_eigen,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    psd_check,
    rank_exact,
    spectral_cutoff,
)
from detvar.scalars import ExactComplex, Tolerance


def bell_projector():
    half = Fraction(1, 2)
    rows = [[0] * 4 for _ in range(4)]
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        rows[i][j] = half
    return exact_matrix(rows)


def test_det_identity():
    assert det_exact(exact_matrix(np.identity(4, dtype=int).tolist())) == ExactComplex(1)


def test_det_pencil_value_at_ones():
    # [[8, 1, 1], [1, 1, 1], [1, 1, 1]] is the cubic pencil at t=2, r=(1,1,1)
    m = exact_matrix([[8, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert det_exact(m).is_zero()


def test_det_repeated_row():
    m = exact_matrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert det_exact(m).is_zero()


def test_det_cofactor_agreement_random():
    rng = random.Random(7)

    def cofactor(m):
        rows, cols = m.shape
        if rows == 1:
            return m[0, 0]
        acc = ExactComplex(0)
        for j in range(cols):
            sub = exact_matrix([[m[i, c] for c in range(cols) if c != j]
                                for i in range(1, rows)])
            term = m[0, j] * cofactor(sub)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    for _ in range(25):
        m = exact_matrix([[ExactComplex(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                           for _ in range(3)] for _ in range(3)])
        assert det_exact(m) == cofactor(m)


def test_det_nonsquare():
    with pytest.raises(NonSquare):
        det_exact(exact_matrix([[1, 2, 3], [4, 5, 6]]))


def test_rank_cases():
    assert rank_exact(exact_matrix([[0] * 5] * 3)) == 0
    outer = exact_matrix([[2, 4], [3, 6]])
    assert rank_exact(outer) == 1
    blocks = ppt_4x6_blocks()
    stacked = exact_matrix([[blocks[i][r, c] for c in range(7)]
                            for i in range(4) for r in range(6)])
    assert stacked.shape[0] == 24 and rank_exact(stacked) == 7


def test_eigen_diag():
    res = hermitian_eigen(np.asarray([[2, 0], [0, 1]], dtype=complex))
    assert res.eigenvalues == [2.0, 1.0]
    assert res.residual < 1e-12


def test_eigen_rejects_non_hermitian():
    nan, inf = float("nan"), float("inf")
    for bad in ([[0, 1], [0, 0]], [[1, nan], [nan, 1]], [[inf, 0], [0, 1]],
                [[1, inf], [0, 1]]):
        with pytest.raises(NotHermitian):
            hermitian_eigen(np.asarray(bad, dtype=complex))


def test_eigenvalues_alone_are_those_of_the_full_decomposition():
    # the same checks and the same eigh call: bit-equal lists, and the
    # same NotHermitian (or NonSquare) error with the same message
    rng = np.random.default_rng(7)
    for n in range(2, 25):
        for scale in (1e-8, 1.0, 1e6):
            a = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            for mat in (a + a.conj().T, a @ a.conj().T, (a + a.conj().T) + 1e-14 * a):
                m = np.asarray(mat, dtype=complex)
                assert hermitian_eigenvalues(m) == hermitian_eigen(m).eigenvalues
    nan = float("nan")
    bad = [[[0, 1], [0, 0]], [[1, nan], [nan, 1]], [[1, 2j], [2j, 1]],
           rng.normal(size=(5, 5)).tolist(), [[1, 2, 3], [2, 1, 0]]]
    for rows in bad:
        errors = []
        for f in (hermitian_eigen, hermitian_eigenvalues):
            with pytest.raises((NotHermitian, NonSquare)) as info:
                f(np.asarray(rows, dtype=complex))
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("eigen", [hermitian_eigen, hermitian_eigenvalues],
                         ids=["hermitian_eigen", "hermitian_eigenvalues"])
def test_rel_eps_scales_the_hermitian_defect_bound(eigen):
    # the defect bound is abs_eps + rel_eps * ||A|| with rel_eps = abs_eps:
    # at ||A|| ~ 1.4e6 the default bound is ~1.4e-3, Tolerance(1e-12)'s
    # ~1.4e-6 and Tolerance(1e-7)'s ~0.14, so the scaled term decides
    def skewed(defect):
        return np.asarray([[1e6, 0], [defect, 1e6]], dtype=complex)
    eigen(skewed(1e-4))
    with pytest.raises(NotHermitian):
        eigen(skewed(1e-4), Tolerance(1e-12))
    with pytest.raises(NotHermitian):
        eigen(skewed(1e-2))
    eigen(skewed(1e-2), Tolerance(1e-7))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_eigen_huge_finite_entries():
    # the Frobenius norm in the tolerance overflows to Inf; the matrix is finite
    res = hermitian_eigen(np.asarray([[1e200, 1], [1, 1]], dtype=complex))
    assert res.eigenvalues == [1e200, 1.0]


def test_eigen_rank3_projector_spectrum():
    # orthonormal three-term ensemble: eigenvalues 1/3 (x3) then zeros
    from detvar.catalog import cyclic_cubic_state
    rho = cyclic_cubic_state(ExactComplex(8)).density_matrix()
    res = hermitian_eigen(as_array(rho))
    expect = [1 / 3] * 3 + [0.0] * 6
    assert max(abs(a - b) for a, b in zip(res.eigenvalues, expect)) < 1e-12


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(5)
    for n in (4, 9, 16, 24):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2
        m = np.asarray(h, dtype=complex)
        res = hermitian_eigen(m)
        u = res.eigenvectors
        lam = np.diag(res.eigenvalues)
        err = np.linalg.norm(u @ lam @ u.conj().T - h)
        assert err <= 1e-8 * np.linalg.norm(h)
        assert res.residual <= 1e-8 * np.linalg.norm(h)


def test_partial_transpose_bell():
    pt = partial_transpose(bell_projector(), 2, 2)
    eigs = hermitian_eigen(as_array(pt)).eigenvalues
    assert abs(min(eigs) + 0.5) < 1e-12
    assert not psd_check(as_array(pt))


def test_partial_transpose_involution_and_fixed_points():
    rho = ppt_4x6_state().density_matrix()
    pt = partial_transpose(rho, 4, 6)
    assert np.array_equal(pt, rho)  # the construction is symmetric under it
    assert np.array_equal(partial_transpose(pt, 4, 6), rho)
    mixed = exact_matrix((np.identity(6, dtype=int) * Fraction(1, 6)).tolist())
    assert np.array_equal(partial_transpose(mixed, 2, 3), mixed)


def test_partial_trace_bell():
    trb = partial_trace(bell_projector(), 2, 2, "B")
    assert np.array_equal(trb, exact_matrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]))


def test_partial_trace_product_state():
    pa = exact_matrix([[1, 0], [0, 0]])
    pb = exact_matrix([[Fraction(1, 2), Fraction(1, 2)],
                       [Fraction(1, 2), Fraction(1, 2)]])
    rho = np.kron(pa, pb)
    assert np.array_equal(partial_trace(rho, 2, 2, "B"), pa)
    assert np.array_equal(partial_trace(rho, 2, 2, "A"), pb)


def test_partial_trace_preserves_trace():
    rng = random.Random(2)
    ent = [[ExactComplex(Fraction(rng.randint(-3, 3), 2)) for _ in range(6)]
           for _ in range(6)]
    m = exact_matrix(ent)
    assert partial_trace(m, 2, 3, "B").trace() == m.trace()
    assert partial_trace(m, 2, 3, "A").trace() == m.trace()


def test_psd_gram_and_zero():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert psd_check(np.asarray(a @ a.conj().T, dtype=complex))
    assert psd_check(np.zeros((3, 3), dtype=complex))


def test_psd_check_decides_an_exact_matrix_exactly():
    # Gram matrices B B^H are PSD, and singular below full rank; shifted by
    # -e I they are not, however small e is, and their negations are not
    rng = random.Random(4)
    shift = exact_matrix((np.identity(4, dtype=int) * Fraction(1, 10**12)).tolist())
    for rank in (1, 2, 3, 4):
        b = exact_matrix([[ExactComplex(rng.randint(-3, 3), rng.randint(-3, 3))
                           for _ in range(rank)] for _ in range(4)])
        gram = b @ b.conj().T
        assert psd_check(gram) and not psd_check(-gram)
        if rank < 4:
            assert not psd_check(gram - shift)
    assert psd_check(exact_matrix([[0, 0], [0, 0]]))


def test_psd_cutoff_scales_with_the_spectrum():
    # negative eigenvalues within eig_cutoff * max(max|lambda|, 1) are zero
    assert spectral_cutoff([]) == spectral_cutoff([0.5, -0.25]) == 1e-10
    assert spectral_cutoff([-4.0, 2.0]) == 4e-10
    assert psd_check(np.asarray([[1, 0], [0, -0.5e-10]], dtype=complex))
    assert not psd_check(np.asarray([[1, 0], [0, -2e-10]], dtype=complex))
    assert psd_check(np.asarray([[8, 0], [0, -5e-10]], dtype=complex))


def test_exact_matrix_coerces_and_is_read_only():
    m = exact_matrix([[1, Fraction(1, 2)], [ExactComplex(0, 1), 0]])
    assert m.dtype == object and m.shape == (2, 2) and not m.flags.writeable
    assert all(type(x) is ExactComplex for x in m.ravel())
    assert m[0, 1] == ExactComplex(Fraction(1, 2)) and m[1, 0] == ExactComplex(0, 1)
    with pytest.raises(ValueError):
        m[0, 0] = ExactComplex(2)
    assert exact_matrix([]).shape == (0, 0)


def test_exact_matrix_refuses_floats_and_ragged_rows():
    for bad in ([[1, 0.5]], [[1, 0], [0, 1j]], [[np.float64(1.0)]]):
        with pytest.raises(TypeError):
            exact_matrix(bad)
    with pytest.raises(DimensionMismatch):
        exact_matrix([[1, 0], [0]])
    with pytest.raises(DimensionMismatch):
        exact_matrix([[1], [0, 1]])


def test_as_array_rounds_each_entry_as_to_complex():
    m = exact_matrix([[ExactComplex(Fraction(1, 3), Fraction(-2, 7)), 1],
                      [ExactComplex(Fraction(-1, 10**400), Fraction(10**300, 3)), 0]])
    got = as_array(m)
    assert got.dtype == complex
    assert [(z.real.hex(), z.imag.hex()) for z in got.ravel().tolist()] == \
        [(z.real.hex(), z.imag.hex()) for z in (x.to_complex() for x in m.ravel())]
    floats = np.eye(2, dtype=complex)
    assert as_array(floats) is floats

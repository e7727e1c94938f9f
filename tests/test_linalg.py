import random
from fractions import Fraction

import numpy as np
import pytest

from detvar.catalog import ppt_4x6_blocks, ppt_4x6_state
from detvar.errors import NonSquare, NotHermitian
from detvar.linalg import (
    Matrix,
    det_exact,
    hermitian_eigen,
    kron,
    partial_trace,
    partial_transpose,
    psd_check,
    rank_exact,
    spectral_cutoff,
)
from detvar.scalars import ExactComplex


def bell_projector():
    half = Fraction(1, 2)
    rows = [[0] * 4 for _ in range(4)]
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        rows[i][j] = half
    return Matrix.exact(rows)


def test_det_identity():
    assert det_exact(Matrix.identity(4)) == ExactComplex(1)


def test_det_pencil_value_at_ones():
    # [[8, 1, 1], [1, 1, 1], [1, 1, 1]] is the cubic pencil at t=2, r=(1,1,1)
    m = Matrix.exact([[8, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert det_exact(m).is_zero()


def test_det_repeated_row():
    m = Matrix.exact([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert det_exact(m).is_zero()


def test_det_cofactor_agreement_random():
    rng = random.Random(7)

    def cofactor(m):
        if m.rows == 1:
            return m[0, 0]
        acc = ExactComplex(0)
        for j in range(m.cols):
            sub = Matrix.exact([[m[i, c] for c in range(m.cols) if c != j]
                                for i in range(1, m.rows)])
            term = m[0, j] * cofactor(sub)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    for _ in range(25):
        m = Matrix.exact([[ExactComplex(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                           for _ in range(3)] for _ in range(3)])
        assert det_exact(m) == cofactor(m)


def test_det_nonsquare():
    with pytest.raises(NonSquare):
        det_exact(Matrix.exact([[1, 2, 3], [4, 5, 6]]))


def test_rank_cases():
    assert rank_exact(Matrix.zeros(3, 5)) == 0
    outer = Matrix.exact([[2, 4], [3, 6]])
    assert rank_exact(outer) == 1
    blocks = ppt_4x6_blocks()
    stacked = Matrix.exact([[blocks[i][r, c] for c in range(7)]
                            for i in range(4) for r in range(6)])
    assert stacked.rows == 24 and rank_exact(stacked) == 7


def test_eigen_diag():
    res = hermitian_eigen(Matrix.approx([[2, 0], [0, 1]]))
    assert res.eigenvalues == [2.0, 1.0]
    assert res.residual < 1e-12


def test_eigen_rejects_non_hermitian():
    nan, inf = float("nan"), float("inf")
    for bad in ([[0, 1], [0, 0]], [[1, nan], [nan, 1]], [[inf, 0], [0, 1]],
                [[1, inf], [0, 1]]):
        with pytest.raises(NotHermitian):
            hermitian_eigen(Matrix.approx(bad))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_eigen_huge_finite_entries():
    # the Frobenius norm in the tolerance overflows to Inf; the matrix is finite
    res = hermitian_eigen(Matrix.approx([[1e200, 1], [1, 1]]))
    assert res.eigenvalues == [1e200, 1.0]


def test_eigen_rank3_projector_spectrum():
    # orthonormal three-term ensemble: eigenvalues 1/3 (x3) then zeros
    from detvar.catalog import cyclic_cubic_state
    rho = cyclic_cubic_state(ExactComplex(8)).density_matrix()
    res = hermitian_eigen(rho.to_approx())
    expect = [1 / 3] * 3 + [0.0] * 6
    assert max(abs(a - b) for a, b in zip(res.eigenvalues, expect)) < 1e-12


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(5)
    for n in (4, 9, 16, 24):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2
        m = Matrix.approx(h)
        res = hermitian_eigen(m)
        u = res.eigenvectors.to_numpy()
        lam = np.diag(res.eigenvalues)
        err = np.linalg.norm(u @ lam @ u.conj().T - h)
        assert err <= 1e-8 * np.linalg.norm(h)
        assert res.residual <= 1e-8 * np.linalg.norm(h)


def test_partial_transpose_bell():
    pt = partial_transpose(bell_projector(), 2, 2)
    eigs = hermitian_eigen(pt.to_approx()).eigenvalues
    assert abs(min(eigs) + 0.5) < 1e-12
    assert not psd_check(pt)


def test_partial_transpose_involution_and_fixed_points():
    rho = ppt_4x6_state().density_matrix()
    pt = partial_transpose(rho, 4, 6)
    assert pt == rho  # the construction is symmetric under it
    assert partial_transpose(pt, 4, 6) == rho
    mixed = Matrix.identity(6).scale(ExactComplex(Fraction(1, 6)))
    assert partial_transpose(mixed, 2, 3) == mixed


def test_partial_trace_bell():
    trb = partial_trace(bell_projector(), 2, 2, "B")
    assert trb == Matrix.exact([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])


def test_partial_trace_product_state():
    pa = Matrix.exact([[1, 0], [0, 0]])
    pb = Matrix.exact([[Fraction(1, 2), Fraction(1, 2)],
                       [Fraction(1, 2), Fraction(1, 2)]])
    rho = kron(pa, pb)
    assert partial_trace(rho, 2, 2, "B") == pa
    assert partial_trace(rho, 2, 2, "A") == pb


def test_partial_trace_preserves_trace():
    rng = random.Random(2)
    ent = [[ExactComplex(Fraction(rng.randint(-3, 3), 2)) for _ in range(6)]
           for _ in range(6)]
    m = Matrix.exact(ent)
    assert partial_trace(m, 2, 3, "B").trace() == m.trace()
    assert partial_trace(m, 2, 3, "A").trace() == m.trace()


def test_psd_gram_and_zero():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert psd_check(Matrix.approx(a @ a.conj().T))
    assert psd_check(Matrix.zeros(3, 3, "approx"))


def test_psd_cutoff_scales_with_the_spectrum():
    # negative eigenvalues within eig_cutoff * max(max|lambda|, 1) are zero
    assert spectral_cutoff([]) == spectral_cutoff([0.5, -0.25]) == 1e-10
    assert spectral_cutoff([-4.0, 2.0]) == 4e-10
    assert psd_check(Matrix.approx([[1, 0], [0, -0.5e-10]]))
    assert not psd_check(Matrix.approx([[1, 0], [0, -2e-10]]))
    assert psd_check(Matrix.approx([[8, 0], [0, -5e-10]]))

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from detvar.catalog import cyclic_cubic_state, maximally_mixed, ppt_4x6_blocks, ppt_4x6_state
from detvar.errors import BadDims, MissingEnsemble, NotAState, NotHermitian, StateFileError
from detvar.linalg import as_array, exact_matrix, hermitian_eigen
from detvar.scalars import ExactComplex
from detvar.statefile import parse_state
from detvar.states import (
    BipartiteState,
    LocalUnitaryPair,
    apply_local_unitary,
    density_from_ensemble,
    ensemble_from_density,
    entropy_and_spectra,
    ppt_check,
    random_local_unitary,
    random_mixed,
    random_separable,
)

EC = ExactComplex
F = Fraction


def block(rho, n, i, j):
    """The n x n block rho_ij (1-based i, j) of an mn x mn matrix."""
    return rho[(i - 1) * n:i * n, (j - 1) * n:j * n]


def bell_state():
    v = (EC(1), EC(0), EC(0), EC(1))  # ray of (|11> + |22>)/sqrt(2)
    return BipartiteState(2, 2, ensemble=[(F(1), v)])


def test_single_vector_projector():
    s = BipartiteState(2, 2, ensemble=[(F(1), (EC(0), EC(1), EC(0), EC(0)))])
    rho = density_from_ensemble(s)
    entries = [[0] * 4 for _ in range(4)]
    entries[1][1] = EC(1)
    assert rho.dtype == object and np.array_equal(rho, exact_matrix(entries))


def test_family_state_trace_exact():
    rho = cyclic_cubic_state(EC(8)).density_matrix()
    assert rho.trace() == EC(1)


def test_density_matches_projector_sum():
    rng = random.Random(6)
    for _ in range(50):
        m, n = rng.choice([(2, 2), (2, 3), (3, 3)])
        terms = rng.randint(1, 4)
        raw = [rng.randint(1, 5) for _ in range(terms)]
        total = sum(raw)
        ens = []
        for t in range(terms):
            vec = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m * n)]
            ens.append((raw[t] / total, tuple(vec)))
        s = BipartiteState(m, n, ensemble=ens)
        rho = density_from_ensemble(s)
        direct = np.zeros((m * n, m * n), dtype=complex)
        for w, v in ens:
            vec = np.array(v)
            direct += w * np.outer(vec, vec.conj()) / np.vdot(vec, vec).real
        assert np.max(np.abs(rho - direct)) < 1e-12
        assert abs(np.trace(rho) - 1) < 1e-12


def test_ensemble_from_density_maximally_mixed():
    rho = np.eye(6, dtype=complex) / 6
    s = ensemble_from_density(rho, 2, 3)
    assert len(s.ensemble) == 6
    assert all(abs(w - 1 / 6) < 1e-12 for w, _ in s.ensemble)


def test_ensemble_from_density_ranks():
    s3 = ppt_4x6_state()
    rec = ensemble_from_density(as_array(s3.density_matrix()), 4, 6)
    assert len(rec.ensemble) == 7
    fam = cyclic_cubic_state(EC(8))
    rec2 = ensemble_from_density(as_array(fam.density_matrix()), 3, 3)
    assert len(rec2.ensemble) == 3
    assert all(abs(w - 1 / 3) < 1e-10 for w, _ in rec2.ensemble)


def test_ensemble_from_density_rejects_nonstate():
    bad = np.asarray(np.diag([0.7, 0.6, -0.3]), dtype=complex)
    with pytest.raises(NotAState):
        ensemble_from_density(bad, 1, 3)


def test_round_trip_reproduces_density():
    rng = random.Random(10)
    for k in range(20):
        m, n = rng.choice([(2, 2), (2, 3), (3, 3)])
        s = random_mixed(m, n, rank=rng.randint(1, m * n), seed=500 + k)
        rho = s.density_matrix()
        rec = ensemble_from_density(np.asarray(rho, dtype=complex), m, n)
        back = density_from_ensemble(rec)
        assert np.max(np.abs(back - rho)) <= 1e-8 * np.linalg.norm(rho)


def test_block_access():
    mixed = maximally_mixed(2, 2).density_matrix()
    z = block(mixed, 2, 1, 2)
    assert all(x.is_zero() for x in z.ravel())
    s3 = ppt_4x6_state()
    rho = s3.density_matrix()
    blocks = ppt_4x6_blocks()
    d = sum((blk[r, c].norm_sq() for blk in blocks for r in range(6) for c in range(7)),
            F(0))
    for i in range(1, 5):
        for j in range(1, 5):
            bij = block(rho, 6, i, j)
            prod = blocks[i - 1] @ blocks[j - 1].conj().T
            assert np.array_equal(bij, prod * EC(F(1, 1) / d))
            # Hermitian pairing of opposite blocks
            assert np.array_equal(bij.conj().T, block(rho, 6, j, i))


def test_diagonal_blocks_are_psd():
    from detvar.linalg import psd_check
    s = ppt_4x6_state()
    rho = s.density_matrix()
    for i in range(1, 5):
        assert psd_check(as_array(block(rho, 6, i, i)))


def test_apply_identity_pair():
    s = cyclic_cubic_state(EC(8))
    out = apply_local_unitary(s, LocalUnitaryPair.identity(3, 3))
    assert np.array_equal(out.density_matrix(), s.density_matrix())


def test_unitary_preserves_spectra_and_ppt():
    rng = random.Random(14)
    for k in range(20):
        m, n = rng.choice([(2, 2), (2, 3), (3, 3)])
        s = random_mixed(m, n, rank=rng.randint(1, m * n), seed=900 + k)
        u = random_local_unitary(m, n, seed=901 + k)
        t = apply_local_unitary(s, u)
        before = hermitian_eigen(s.density_matrix()).eigenvalues
        after = hermitian_eigen(t.density_matrix()).eigenvalues
        assert max(abs(a - b) for a, b in zip(before, after)) < 1e-9
        assert ppt_check(s) == ppt_check(t)


def test_ppt_verdicts():
    assert ppt_check(maximally_mixed(3, 3))
    assert ppt_check(ppt_4x6_state())
    assert not ppt_check(bell_state())


def test_entropy_values():
    rep = entropy_and_spectra(maximally_mixed(3, 3))
    assert abs(rep.entropy - math.log(9)) < 1e-10
    assert abs(rep.entropy_reduced_a - math.log(3)) < 1e-10
    # pure product state: all three entropies vanish
    prod = BipartiteState(2, 2, ensemble=[(F(1), (EC(1), EC(0), EC(0), EC(0)))])
    rep2 = entropy_and_spectra(prod)
    assert abs(rep2.entropy) < 1e-10
    assert abs(rep2.entropy_reduced_a) < 1e-10
    assert abs(rep2.entropy_reduced_b) < 1e-10


def test_entropies_are_never_negative():
    # an eigenvalue rounded to 1 + 2^-52 gives -lam log lam < 0; the
    # entropy is floored at +0.0, which a pure spectrum gives as it is
    assert entropy_and_spectra(random_mixed(3, 1, 1, seed=1)).entropy_reduced_b == 0.0
    rng = np.random.default_rng(52)
    zero = 0
    for k in range(300):
        m, n = (int(d) for d in rng.integers(2, 5, size=2))
        a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (m, n))
        rep = entropy_and_spectra(BipartiteState(m, n, ensemble=[(1.0, tuple(np.kron(a, b)))]))
        values = (rep.entropy, rep.entropy_reduced_a, rep.entropy_reduced_b)
        assert min(values) >= 0.0, (k, values)
        zero += values.count(0.0)
    assert zero > 0
    assert math.copysign(1.0, entropy_and_spectra(bell_state()).entropy) == 1.0


def test_family_members_share_spectra():
    a = entropy_and_spectra(cyclic_cubic_state(EC(27)))
    b = entropy_and_spectra(cyclic_cubic_state(EC(-27)))
    for xs, ys in ((a.spectrum, b.spectrum),
                   (a.reduced_a_spectrum, b.reduced_a_spectrum),
                   (a.reduced_b_spectrum, b.reduced_b_spectrum)):
        assert max(abs(x - y) for x, y in zip(xs, ys)) < 1e-10


def test_generators_determinism_and_validity():
    s1 = random_separable(3, 3, 4, seed=77)
    s2 = random_separable(3, 3, 4, seed=77)
    assert [(w, v) for w, v in s1.ensemble] == [(w, v) for w, v in s2.ensemble]
    assert s1.exact_ensemble
    assert ppt_check(s1)  # separable states are always PPT

    u = random_local_unitary(3, 3, seed=7)
    gram = u.u_a.conj().T @ u.u_a
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    m1 = random_mixed(2, 3, rank=4, seed=3)
    m2 = random_mixed(2, 3, rank=4, seed=3)
    assert np.max(np.abs(m1.density_matrix() - m2.density_matrix())) == 0.0


def test_boolean_weight_is_not_a_state():
    # isinstance(True, int) holds, so True would pass for the exact weight 1
    with pytest.raises(NotAState, match="ensemble weight 1 is a boolean"):
        BipartiteState(2, 2, ensemble=[(F(1, 2), (EC(1), EC(0), EC(0), EC(0))),
                                       (True, (EC(1), EC(0), EC(0), EC(1)))])
    with pytest.raises(NotAState, match="ensemble weight 0 is a boolean"):
        BipartiteState(2, 2, ensemble=[(True, (EC(1), EC(0), EC(0), EC(1)))])


@pytest.mark.parametrize("kwargs, message", [
    ({"ensemble": [(1.0, (1.0, 0.0, 0.0))]}, "ensemble vector 0 has length 3, expected 4"),
    ({"ensemble": [(1.0, (1.0, 0.0, 0.0, 0.0))],
      "density": np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)}, "ensemble and density disagree"),
], ids=["vector of the wrong length", "disagreeing density"])
def test_a_float_ensemble_that_is_no_state_is_refused(kwargs, message):
    with pytest.raises(NotAState, match=message):
        BipartiteState(2, 2, **kwargs)


def test_bad_dims_and_missing_ensemble():
    with pytest.raises(BadDims):
        random_mixed(0, 2, 1, seed=1)
    rho = np.eye(4, dtype=complex) * 0.25
    s = BipartiteState(2, 2, density=rho)
    with pytest.raises(MissingEnsemble):
        s.ensemble_terms()


def test_swapped_state_consistency():
    s = random_mixed(2, 3, rank=3, seed=55)
    sw = s.swapped()
    assert (sw.m, sw.n) == (3, 2)
    rho = s.density_matrix().reshape(2, 3, 2, 3)
    rho_sw = sw.density_matrix().reshape(3, 2, 3, 2)
    assert np.max(np.abs(rho_sw - rho.transpose(1, 0, 3, 2))) < 1e-12


def test_pure_state_entropies_are_positive_zero():
    product = BipartiteState(2, 2, ensemble=[(F(1), (EC(0), EC(1), EC(0), EC(0)))])
    for s in (BipartiteState(1, 1, ensemble=[(1.0, (1j,))]), product, product.swapped()):
        rep = entropy_and_spectra(s)
        for e in (rep.entropy, rep.entropy_reduced_a, rep.entropy_reduced_b):
            assert e == 0.0 and math.copysign(1.0, e) == 1.0


def test_a_float_density_is_a_read_only_copy():
    rho = np.eye(4, dtype=complex) / 4
    s = BipartiteState(2, 2, density=rho)
    rho[0, 0] = 5.0
    assert s.density_matrix()[0, 0] == 0.25
    with pytest.raises(ValueError):
        s.density_matrix()[0, 0] = 5.0


def test_an_exact_density_is_a_read_only_copy():
    given = np.array(cyclic_cubic_state(EC(8)).density_matrix())  # writeable
    s = BipartiteState(3, 3, density=given)
    rho = s.density_matrix()
    assert rho is not given and rho.dtype == object and not rho.flags.writeable
    want = given[0, 0]
    given[0, 0] = EC(5)
    assert rho[0, 0] == want == EC(F(32, 99))
    with pytest.raises(ValueError):
        rho[0, 0] = EC(5)


def _exact_density_doc(rows):
    """A state file on 1 x len(rows) with an exact real density."""
    return {"m": 1, "n": len(rows),
            "density": [[{"re": str(F(x)), "im": "0"} for x in row] for row in rows]}


def test_an_exact_density_has_trace_exactly_one():
    # within the float tolerance of 1, but not 1: refused, as an exact
    # ensemble whose weights sum to 1000001/1000000 is
    off = F(2000001, 2000000)
    for doc, field in ((_exact_density_doc([[off, 0], [0, 0]]), "density"),
                       ({"m": 1, "n": 2, "ensemble": [
                           {"weight": "1/2", "vector": [{"re": "1", "im": "0"},
                                                        {"re": "0", "im": "0"}]},
                           {"weight": "500001/1000000", "vector": [{"re": "0", "im": "0"},
                                                                   {"re": "1", "im": "0"}]}]},
                        "ensemble")):
        with pytest.raises(StateFileError) as info:
            parse_state(doc)
        assert info.value.field == field and "not 1" in str(info.value)
    with pytest.raises(NotAState, match="2000001/2000000"):
        BipartiteState(1, 2, density=exact_matrix([[off, 0], [0, 0]]))
    # the same density as floats is within tolerance
    BipartiteState(1, 2, density=np.array([[float(off), 0], [0, 0]], dtype=complex))


def test_an_exact_density_is_hermitian_exactly():
    tiny = F(1, 10**10)
    rows = [[F(1, 2), tiny], [0, F(1, 2)]]
    with pytest.raises(StateFileError) as info:
        parse_state(_exact_density_doc(rows))
    assert info.value.field == "density" and "not Hermitian" in str(info.value)
    with pytest.raises(NotHermitian):
        BipartiteState(1, 2, density=exact_matrix(rows))
    # as floats, a defect of 1e-10 is within tolerance
    BipartiteState(1, 2, density=np.array(rows, dtype=float).astype(complex))


def test_an_exact_density_is_positive_semidefinite_exactly():
    # eigenvalues 1 + e and -e: as floats, -e is within the spectral cutoff,
    # but an exact density is decided by Hermitian elimination, exactly
    e = F(1, 10**11)
    for rows in ([[1 + e, 0], [0, -e]],   # a negative pivot
                 [[0, e], [e, 1]]):       # a zero pivot with a nonzero row
        with pytest.raises(StateFileError) as info:
            parse_state(_exact_density_doc(rows))
        assert info.value.field == "density" and "semidefinite" in str(info.value)
        with pytest.raises(NotAState, match="semidefinite"):
            BipartiteState(1, 2, density=exact_matrix(rows))
        BipartiteState(1, 2, density=np.array(rows, dtype=float).astype(complex))
    # exactly PSD: a pure state (singular), the maximally mixed 2x3, and a
    # singular density whose zero pivot has a zero row
    pure = bell_state().density_matrix()
    assert pure.dtype == object
    for m, n, rho in ((2, 2, pure), (2, 3, maximally_mixed(2, 3).density_matrix()),
                      (1, 3, exact_matrix([[F(1, 2), 0, F(1, 2)], [0, 0, 0],
                                           [F(1, 2), 0, F(1, 2)]]))):
        assert BipartiteState(m, n, density=rho).density_matrix() is not None


def test_an_exact_ensemble_and_exact_density_agree_exactly():
    ensemble = [(1, (EC(1), EC(0)))]
    near = exact_matrix([[1 - F(1, 10**9), 0], [0, F(1, 10**9)]])
    with pytest.raises(NotAState, match="disagree"):
        BipartiteState(1, 2, ensemble=ensemble, density=near)
    BipartiteState(1, 2, ensemble=ensemble, density=exact_matrix([[1, 0], [0, 0]]))
    # a float density within tolerance of the exact ensemble's still agrees
    BipartiteState(1, 2, ensemble=ensemble, density=as_array(near))


def test_an_exact_entry_beyond_the_float_range_in_a_float_density_is_a_file_error():
    huge = {"re": str(10**400), "im": "0"}
    with pytest.raises(StateFileError) as info:
        parse_state({"m": 1, "n": 2, "density": [[huge, 0.0], [0.0, 0.5]]})
    assert info.value.field == "density" and "too large" in str(info.value)

import random
from fractions import Fraction

import numpy as np
import pytest

from detvar.catalog import cyclic_cubic_state, maximally_mixed, ppt_4x6_state, printed_pencil_4x6
from detvar.errors import MissingEnsemble, SamplingExhausted, SingularPoint
from detvar.linalg import Matrix
from detvar.multipoly import Poly
from detvar.scalars import DEFAULT_TOL, ExactComplex
from detvar.states import (
    BipartiteState,
    LocalUnitaryPair,
    ensemble_from_density,
    random_local_unitary,
    random_mixed,
    random_separable,
    random_unitary,
)
from detvar.variety import (
    linearity_decide,
    membership,
    nonlinearity_witness,
    pencil_matrix,
    project_normalize,
    sample_points,
    tangent_form,
    variety_generators,
    variety_of_state,
    verify_lu_covariance,
)

EC = ExactComplex
F = Fraction


def family_variety(t_cubed):
    return variety_of_state(cyclic_cubic_state(EC(t_cubed)))


def test_pencil_matches_family_matrix():
    pen = pencil_matrix(cyclic_cubic_state(EC(8)))
    polys = pen.entry_polys()
    r1, r2, r3 = (Poly.variable(i, 3) for i in range(3))
    expect = [[r1.scale(EC(8)), r3, r2], [r2, r1, r3], [r3, r2, r1]]
    assert polys == expect


def test_pencil_4x6_matches_printed():
    pen = pencil_matrix(ppt_4x6_state())
    scale = None
    polys = pen.entry_polys()
    printed = printed_pencil_4x6()
    assert polys == printed


def test_pencil_requires_ensemble():
    rho = Matrix.identity(4, "approx").scale(0.25)
    s = BipartiteState(2, 2, density=rho)
    with pytest.raises(MissingEnsemble):
        pencil_matrix(s)


def test_side_b_swaps_roles():
    s = random_separable(2, 3, 3, seed=44)
    pen_b = pencil_matrix(s, side="B")
    assert pen_b.n == 2 and pen_b.m == 3 and pen_b.t == 3
    v = variety_generators(pen_b)
    assert all(g.is_zero() or g.degree() == 2 for g in v.generators)


def test_single_product_term_gives_full():
    s = random_separable(2, 2, 1, seed=9)
    v = variety_of_state(s)
    assert v.structural == "Full"
    verdict = linearity_decide(v)
    assert verdict.tag == "Full" and verdict.conclusion == "inconclusive"


def test_maximally_mixed_empty():
    v = variety_of_state(maximally_mixed(3, 3))
    assert v.structural == "Empty"
    verdict = linearity_decide(v)
    assert verdict.tag == "Empty" and verdict.conclusion == "inconclusive"
    with pytest.raises(SamplingExhausted):
        sample_points(v, 1, seed=1)


def test_family_generator_counts():
    v = family_variety(8)
    assert len(v.generators) == 1 and v.generators[0].degree() == 3
    v3 = variety_of_state(ppt_4x6_state())
    assert len(v3.generators) == 7
    assert all(g.degree() == 6 for g in v3.essential_generators)


def test_membership_exact_points():
    v = family_variety(8)
    assert membership(v, [EC(0), EC(1), EC(-1)])
    assert membership(v, [EC(1), EC(1), EC(1)])  # 8 + 1 + 1 - 10 = 0
    assert not membership(v, [EC(1), EC(2), EC(3)])


def test_membership_is_projective():
    rng = random.Random(3)
    v = family_variety(-27)
    for _ in range(20):
        pt = [EC(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        if all(x.is_zero() for x in pt):
            continue
        c = EC(rng.randint(1, 7), rng.randint(-3, 3))
        scaled = [x * c for x in pt]
        assert membership(v, pt) == membership(v, scaled)


def test_generator_euler_identity_exact():
    # every minor is homogeneous of the pencil degree: Euler holds exactly
    for v in (family_variety(8), variety_of_state(random_separable(3, 3, 4, seed=2))):
        n = v.n
        for g in v.essential_generators:
            euler = Poly.zero(g.nvars)
            for i in range(g.nvars):
                euler = euler + Poly.variable(i, g.nvars) * g.derivative(i)
            assert euler == g.scale(n)


def test_sample_points_family():
    v = family_variety(8)
    pts = sample_points(v, 50, seed=11)
    assert len(pts) == 50
    for p in pts:
        assert membership(v, p)
        assert max(abs(z) for z in p) == pytest.approx(1.0)


def test_tangent_form_on_hyperplane_union():
    # separable square case: the determinant splits into linear forms and
    # the tangent at a smooth point is the factor vanishing there
    s = random_separable(3, 3, 3, seed=5)
    v = variety_of_state(s)
    fl = linearity_decide(v)
    assert fl.tag == "LinearUnion"
    pts = sample_points(v, 5, seed=8)
    for p in pts:
        tf = tangent_form(v, p)
        vals = [abs(complex(f.to_poly(3, "approx").evaluate(list(p))))
                for f in fl.forms]
        k = int(np.argmin(vals))
        factor = fl.forms[k]
        fv = np.array([complex(c.to_complex()) for c in factor.coefficients])
        tv = np.array([complex(c) for c in tf.coefficients])
        cross = np.abs(np.outer(fv, tv) - np.outer(tv, fv)).max()
        assert cross < 1e-6 * np.linalg.norm(fv) * np.linalg.norm(tv)


def test_tangent_form_singular_point():
    # a doubled product direction makes every point of that plane singular
    rng = random.Random(1)
    a = [EC(1), EC(2), EC(-1)]
    b1 = [EC(1), EC(0), EC(1)]
    b2 = [EC(0), EC(1), EC(1)]
    vecs = []
    for bb in (b1, b1, b2):  # repeated a-direction doubles the factor
        vecs.append(tuple(a[i] * bb[j] for i in range(3) for j in range(3)))
    ens = [(F(1, 3), v) for v in vecs]
    s = BipartiteState(3, 3, ensemble=ens)
    v = variety_of_state(s)
    # a point with a . r = 0 lies on the doubled hyperplane
    pt = (EC(2), EC(-1), EC(0))
    assert membership(v, pt)
    with pytest.raises(SingularPoint):
        tangent_form(v, pt)


def test_family_witness_and_residual_certificate():
    v = family_variety(8)
    verdict = linearity_decide(v, seed=42)
    assert verdict.tag == "NonlinearWitness"
    assert verdict.conclusion == "entangled"
    assert verdict.residual > 10 * DEFAULT_TOL.abs_eps
    # witness data re-checks from the serialized probe alone
    recheck = v.hermitian_residual(verdict.probe)
    assert abs(recheck - verdict.residual) < 1e-12


def test_separable_states_never_witness():
    for seed, (m, n, s) in enumerate([(2, 2, 2), (2, 3, 3), (3, 3, 3),
                                      (2, 2, 3), (3, 3, 4)]):
        st = random_separable(m, n, s, seed=100 + seed)
        verdict = linearity_decide(variety_of_state(st), seed=7)
        assert verdict.tag != "NonlinearWitness", (m, n, s)


def test_hyperplane_union_no_witness_many_samples():
    st = random_separable(3, 3, 3, seed=321)
    v = variety_of_state(st)
    verdict = nonlinearity_witness(v, samples=200, seed=13)
    assert verdict.tag != "NonlinearWitness"


def _shared_direction_state(n_terms, shared_count, seed):
    rng = random.Random(seed)

    def rvec(d):
        return [EC(F(rng.randint(-4, 4), rng.randint(1, 2)),
                   F(rng.randint(-4, 4), rng.randint(1, 2))) for _ in range(d)]

    shared = rvec(3)
    ens = []
    for k in range(n_terms):
        a = shared if k < shared_count else rvec(3)
        b = rvec(3)
        ens.append((F(1, n_terms), tuple(a[i] * b[j]
                                         for i in range(3) for j in range(3))))
    return BipartiteState(3, 3, ensemble=ens)


def test_repeated_direction_separable_peels_and_stays_silent():
    # a repeated product direction puts a whole hyperplane inside the
    # variety (and doubles factors, which caps sampling accuracy at
    # sqrt(eps)); the exact peel must still keep the verdict witness-free
    from detvar.variety import _analysis_system
    from detvar.scalars import DEFAULT_TOL
    st = _shared_direction_state(4, 2, seed=8)
    v = variety_of_state(st)
    forms, agens = _analysis_system(v, DEFAULT_TOL)
    assert len(forms) >= 1
    verdict = linearity_decide(v, seed=7)
    assert verdict.tag != "NonlinearWitness"


def test_fully_shared_direction_certifies_linear_union():
    st = _shared_direction_state(3, 3, seed=8)
    verdict = linearity_decide(variety_of_state(st), seed=7)
    assert verdict.tag == "LinearUnion"


def test_membership_inconsistency_is_detected():
    from detvar.errors import InconsistentRepresentations
    v = family_variety(8)
    # corrupt the generator list: the Hermitian oracle will disagree
    wrong = Poly.variable(0, 3) ** 3
    broken = type(v)(v.side, v.m, v.n, [wrong], v.pencil, v.state, v.mode,
                     None)
    with pytest.raises(InconsistentRepresentations):
        # (1,1,1) is on the true variety but not on the corrupted generator
        membership(broken, [EC(1), EC(1), EC(1)])


def test_covariance_identity_and_random():
    s = random_mixed(3, 3, rank=3, seed=71)
    assert verify_lu_covariance(s, LocalUnitaryPair.identity(3, 3), samples=3, seed=1)
    u = random_local_unitary(3, 3, seed=72)
    res = verify_lu_covariance(s, u, samples=4, seed=42)
    assert res and res.max_residual < 1e-8


def test_covariance_negative_control():
    rng = random.Random(15)
    bad = Matrix.approx(np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
         for _ in range(3)]))
    pair = LocalUnitaryPair(bad, random_unitary(3, rng), validate=False)
    s = random_mixed(3, 3, rank=3, seed=16)
    assert not verify_lu_covariance(s, pair, samples=4, seed=42)


def test_project_normalize_rules():
    p = project_normalize((0.5j, -2.0 + 0j, 1.0 + 0j))
    assert p[1] == 1.0 + 0j  # max modulus wins
    q = project_normalize((EC(2), EC(-2), EC(1)))
    assert q[0] == EC(1)  # ties break at the lowest index


def _line_times_conic_state():
    # one product ray a (x) b plus two entangled Gaussian-rational rays: the
    # determinant is (a . r) times an irreducible conic
    a = [EC(1), EC(2, 1), EC(-1)]
    b = [EC(1), EC(0), EC(1)]
    e1 = (EC(1), EC(0, 1), EC(0), EC(2), EC(-1), EC(1, 1), EC(0), EC(1), EC(3))
    e2 = (EC(0), EC(1), EC(-2, 1), EC(1), EC(1), EC(0), EC(3, -1), EC(0), EC(1))
    prod = tuple(a[i] * b[k] for i in range(3) for k in range(3))
    ens = [(F(1, 3), prod), (F(1, 3), e1), (F(1, 3), e2)]
    return a, BipartiteState(3, 3, ensemble=ens)


@pytest.mark.parametrize("seed", [42, 7, 1])
def test_partial_split_witness_lies_on_the_residual(seed):
    from detvar.report import verdict_to_json
    a, st = _line_times_conic_state()
    v = variety_of_state(st)
    verdict = linearity_decide(v, seed=seed)
    assert verdict.tag == "NonlinearWitness"
    fl = verdict.factor_list
    assert len(fl.linear_factors) == 1 and fl.residual.degree() == 2
    form = fl.linear_factors[0].coefficients
    assert all(form[i] * a[0] == a[i] * form[0] for i in range(3))
    residual = fl.residual.to_approx()
    assert abs(complex(residual.evaluate(verdict.point))) \
        <= DEFAULT_TOL.abs_eps * residual.evaluation_scale(verdict.point)
    probe = [complex(re, im) for re, im in verdict_to_json(verdict)["witness"]["probe"]]
    assert abs(v.hermitian_residual(probe) - verdict.residual) <= 1e-12


def test_tangent_form_on_a_peeled_hyperplane():
    # (1, 0, 1) lies on the line a . r = 0 and off the conic: the tangent
    # there is the line itself, not the conic's gradient
    a, st = _line_times_conic_state()
    tf = tangent_form(variety_of_state(st), (EC(1), EC(0), EC(1)))
    av = np.array([x.to_complex() for x in a])
    tv = np.array([complex(c) for c in tf.coefficients])
    assert np.abs(np.outer(av, tv) - np.outer(tv, av)).max() < 1e-9 * np.linalg.norm(tv)


@pytest.mark.parametrize("make_state", [lambda: _line_times_conic_state()[1],
                                        lambda: cyclic_cubic_state(EC(8)),
                                        lambda: random_separable(3, 3, 3, seed=5)])
def test_linear_factorization_runs_once_per_hypersurface_analysis(monkeypatch, make_state):
    import detvar.variety as variety_mod
    calls = []
    real = variety_mod.linear_factorization

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(variety_mod, "linear_factorization", counting)
    linearity_decide(variety_of_state(make_state()), seed=7)
    assert len(calls) == 1


def test_unexpected_root_finder_errors_propagate(monkeypatch):
    import detvar.variety as variety_mod

    def broken(*args, **kwargs):
        raise TypeError("bug inside the root finder")

    monkeypatch.setattr(variety_mod, "univariate_roots", broken)
    with pytest.raises(TypeError):
        sample_points(family_variety(8), 3, seed=1)


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 4, 4)])
@pytest.mark.parametrize("seed", [5, 23])
def test_density_variety_does_not_depend_on_the_eigenbasis(shape, seed):
    # V_A depends only on the range of rho, so the spectral ensemble of a
    # delivered density cuts out the variety of any ensemble spanning it
    m, n, r = shape
    given = random_mixed(m, n, r, seed=seed)
    spectral = ensemble_from_density(given.density_matrix(), m, n)
    assert len(spectral.ensemble) == r
    v_given, v_spectral = variety_of_state(given), variety_of_state(spectral)
    for v_from, v_to in ((v_given, v_spectral), (v_spectral, v_given)):
        for pt in sample_points(v_from, 4, seed):
            assert v_to.generator_residual(pt) <= DEFAULT_TOL.abs_eps

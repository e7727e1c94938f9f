import itertools
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from detvar.catalog import cyclic_cubic_state, maximally_mixed, ppt_4x6_state, printed_pencil_4x6
from detvar.errors import ArityMismatch, MissingEnsemble, SamplingExhausted, SingularPoint
from detvar.linalg import exact_matrix
from detvar.modp import binary_minors_coprime, macaulay_full_rank
from detvar.multipoly import Poly
from detvar.report import analyze_state
from detvar.scalars import DEFAULT_TOL, ExactComplex
from detvar.states import (
    BipartiteState,
    LocalUnitaryPair,
    apply_local_unitary,
    ensemble_from_density,
    random_local_unitary,
    random_mixed,
    random_separable,
    random_unitary,
)
from detvar.variety import (
    Variety,
    _best_probe,
    _hadamard_ratios,
    _witness_search,
    linearity_decide,
    membership,
    pencil_matrix,
    project_normalize,
    sample_points,
    tangent_form,
    variety_of_state,
    verify_lu_covariance,
)
# the per-matrix ratio the stacked one replaced, and the row norms it read
from oracles.arrays import _hadamard_ratio, _row_norms as _retired_row_norms
from oracles.modp import _minors_mod_p, dict_macaulay_full_rank
from oracles.polys import evaluate  # the float evaluation Poly.evaluate had
from shared_states import factored_state, shared_direction_state

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
    rho = np.eye(4, dtype=complex) * 0.25
    s = BipartiteState(2, 2, density=rho)
    with pytest.raises(MissingEnsemble):
        pencil_matrix(s)


def test_side_b_swaps_roles():
    s = random_separable(2, 3, 3, seed=44)
    pen_b = pencil_matrix(s, side="B")
    assert pen_b.n == 2 and pen_b.m == 3 and pen_b.t == 3
    v = Variety(pen_b)
    assert all(g.is_zero() or g.degree() == 2 for g in v.generators)


def test_an_unknown_side_is_refused():
    # any side but "A" was read as B, and the report kept the name given
    s = random_separable(2, 3, 3, seed=44)
    with pytest.raises(ValueError, match="side must be 'A' or 'B', got 'b'"):
        variety_of_state(s, "b")
    with pytest.raises(ValueError, match="side must be 'A' or 'B', got 'Q'"):
        analyze_state(s, side="Q")


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
        vals = [abs(evaluate(f.to_poly(3, "approx"), list(p))) for f in fl.forms]
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
    verdict = _witness_search(v, 200, 13, DEFAULT_TOL)
    assert verdict.tag != "NonlinearWitness"


def test_repeated_direction_separable_peels_and_stays_silent():
    # a repeated product direction puts a whole hyperplane inside the
    # variety (and doubles factors, which caps sampling accuracy at
    # sqrt(eps)); the exact peel must still keep the verdict witness-free
    from detvar.variety import _analysis_system
    from detvar.scalars import DEFAULT_TOL
    st = shared_direction_state(4, 2, seed=8)
    v = variety_of_state(st)
    forms, agens, _ = _analysis_system(v)
    assert len(forms) >= 1
    verdict = linearity_decide(v, seed=7)
    assert verdict.tag != "NonlinearWitness"


def test_fully_shared_direction_certifies_linear_union():
    st = shared_direction_state(3, 3, seed=8)
    verdict = linearity_decide(variety_of_state(st), seed=7)
    assert verdict.tag == "LinearUnion"


@pytest.mark.parametrize("shape", [(3, 2, 3), (4, 3, 4), (4, 4, 5)],
                         ids=["3x2 r3", "4x3 r4", "4x4 r5"])
def test_minors_sharing_every_row_form_certify_their_common_split(shape):
    # side A of a state whose pencil row i is forms[i](r) * w_i: every minor
    # is a constant times the product of the n forms.  Several minors, so
    # the verdict is their common split, with no hypersurface factor list
    m, n, t = shape
    rng = random.Random(f"common split {shape}")
    forms = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n)]
    state = factored_state(forms, rows=tuple(range(n)), seed=3, shape=shape)
    v = variety_of_state(state, "A")
    verdict = linearity_decide(v, seed=42)
    assert verdict.tag == "LinearUnion" and len(v.essential_generators) > 1
    report = analyze_state(state)["verdict"]
    assert len(report["linear_forms"]) == n and "factorization" not in report
    product = Poly.const(m, EC(1))
    for f in verdict.forms:
        product = product * f.to_poly(m)
    key = next(iter(product.terms))
    for g in v.essential_generators:
        c = g.coeff(key) / product.coeff(key)
        assert not c.is_zero() and g == product.scale(c)


def test_membership_inconsistency_is_detected():
    from detvar.errors import InconsistentRepresentations
    v = family_variety(8)
    # give the pencil another state's coefficients: the Hermitian oracle will disagree
    wrong = pencil_matrix(random_separable(3, 3, 3, seed=0))
    p = v.pencil
    broken = type(v)(type(p)(p.side, wrong.coeffs, p.state))
    with pytest.raises(InconsistentRepresentations):
        # (1,1,1) is on the true variety but not on the corrupted pencil's
        membership(broken, [EC(1), EC(1), EC(1)])


@pytest.mark.parametrize("make", [lambda: random_mixed(3, 3, 3, seed=0),
                                  lambda: cyclic_cubic_state(EC(8))], ids=["float", "exact"])
def test_a_point_of_the_wrong_length_is_refused(make):
    v = variety_of_state(make())
    point = list(sample_points(v, 1, seed=3)[0])
    assert membership(v, point)
    zero = EC(0) if v.mode == "exact" else 0j
    for wrong in (point + [zero] * 3, point + point, point[:2], point[:1], []):
        with pytest.raises(ArityMismatch):
            membership(v, wrong)
        with pytest.raises(ArityMismatch):
            tangent_form(v, wrong)
    exact_point = [EC(0), EC(1), EC(-1)]
    with pytest.raises(ArityMismatch):
        membership(v, exact_point + [EC(1)])
    with pytest.raises(ArityMismatch):
        membership(v, exact_point[:2])


def test_a_request_for_no_points_is_refused():
    # refused before any verdict: on a float V and an exact one that are
    # sampled, and on V's that one sample would give an early verdict
    for state, tag in [(random_mixed(3, 3, 3, seed=0), "NonlinearWitness"),
                       (cyclic_cubic_state(EC(8)), "NonlinearWitness"),
                       (random_separable(4, 3, 5, seed=1), "Finite"),
                       (random_separable(4, 4, 7, seed=2), "Empty"),
                       (shared_direction_state(3, 3, seed=8), "LinearUnion"),
                       (random_separable(3, 3, 2, seed=0), "Full")]:
        v = variety_of_state(state)
        for count in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                sample_points(v, count, 1)
            with pytest.raises(ValueError, match="at least 1"):
                linearity_decide(v, samples=count)
        assert linearity_decide(v, samples=1, seed=7).tag == tag


def test_covariance_identity_and_random():
    s = random_mixed(3, 3, rank=3, seed=71)
    assert verify_lu_covariance(s, LocalUnitaryPair.identity(3, 3), samples=3, seed=1)
    u = random_local_unitary(3, 3, seed=72)
    res = verify_lu_covariance(s, u, samples=4, seed=42)
    assert res and res.max_residual < 1e-8


def test_covariance_negative_control():
    rng = random.Random(15)
    bad = np.asarray([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
                      for _ in range(3)], dtype=complex)
    pair = LocalUnitaryPair(bad, random_unitary(3, rng), validate=False)
    s = random_mixed(3, 3, rank=3, seed=16)
    assert not verify_lu_covariance(s, pair, samples=4, seed=42)


@pytest.mark.parametrize("shape", [(3, 3, 5), (2, 2, 3), (2, 5, 6)])
@pytest.mark.parametrize("seed", [0, 1])
def test_covariance_of_empty_varieties_holds_without_sampling(monkeypatch, shape, seed):
    # t - n + 1 > m - 1: the Macaulay test proves both V empty, so nothing
    # is sampled and covariance holds vacuously
    import detvar.variety as variety_mod

    def refuse(*args, **kwargs):
        raise AssertionError("an empty V was sampled")

    monkeypatch.setattr(variety_mod, "sample_points", refuse)
    s = random_mixed(*shape, seed=seed)
    u = random_local_unitary(shape[0], shape[1], seed=seed + 100)
    res = verify_lu_covariance(s, u, samples=3, seed=42)
    assert res.ok and res.checked == 0


def _shared_factor_state(n, seed):
    """A 2 x n state on n + 1 exact rays, two of them a (x) b_1 and
    a (x) b_2 for a = (1, 2): both pencil columns vanish at x = (2, -1),
    where the n - 1 others leave every n x n minor zero."""
    rng = random.Random(seed)

    def ray(size):
        return [EC(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(size)]

    rays = [tuple(EC(a) * x for a in (1, 2) for x in b) for b in (ray(n), ray(n))]
    rays += [tuple(ray(2 * n)) for _ in range(n - 1)]
    return BipartiteState(2, n, ensemble=[(F(1, n + 1), r) for r in rays])


@pytest.mark.parametrize("n", [5, 6])
def test_binary_empty_test_in_degree_2n_minus_1_decides_as_degree_n_plus_1(n):
    # m = 2: the Empty test of verify_lu_covariance decides binary minors
    # by a gcd (binary_minors_coprime) and records degree 2n - 1, above the
    # n + 1 .. n + 3 tried in more variables once n >= 5; all three decide
    # alike, on an empty V and on one with a point, on values at lattice
    # points as on the symbolic minors

    finite = _shared_factor_state(n, seed=n)
    assert membership(variety_of_state(finite), [EC(2), EC(-1)])
    for s, full in ((random_mixed(2, n, n + 1, seed=n), True), (finite, False)):
        v = variety_of_state(s)
        p, forms = v.pencil.mod_p
        gens = _minors_mod_p(forms.tolist(), p)
        assert dict_macaulay_full_rank(gens, 2, 2 * n - 1, p) is full
        assert dict_macaulay_full_rank(gens, 2, n + 1, p) is full
        assert macaulay_full_rank(forms, n, 2 * n - 1, p) is full
        assert macaulay_full_rank(forms, n, n + 1, p) is full
        assert binary_minors_coprime(forms, n, p) is full


def test_covariance_fails_when_one_side_is_empty():
    # a map on side B with a zero row zeroes a row of the transformed
    # pencil, so V is all of CP^2 there, while the original V is empty
    rng = random.Random(4)
    singular = np.asarray(np.diag([1.0 + 0j, 1.0 + 0j, 0j]), dtype=complex)
    pair = LocalUnitaryPair(random_unitary(3, rng), singular, validate=False)
    res = verify_lu_covariance(random_mixed(3, 3, 5, seed=0), pair, samples=3, seed=42)
    assert not res.ok


def test_covariance_does_not_take_noise_minors_for_an_empty_side():
    # side-B rows r1, r2, r1 + r2: the transformed pencil has rank <= 2, so
    # its V is all of CP^2, while the original V is empty; the float minors
    # of the transformed side are rounding noise and prove nothing
    rank_two = np.asarray([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=complex)
    pair = LocalUnitaryPair(np.identity(3, dtype=complex), rank_two, validate=False)
    res = verify_lu_covariance(random_mixed(3, 3, 5, seed=0), pair)
    assert not res.ok


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (4, 3)])
def test_covariance_holds_on_two_empty_sides_one_of_them_structural(m, n):
    # Example 1 of the paper: the minors of the maximally mixed state are
    # monomials that leave no point, so its V is structurally Empty; the
    # Macaulay test proves the V of its float image empty too
    s = maximally_mixed(m, n)
    assert variety_of_state(s).structural == "Empty"
    res = verify_lu_covariance(s, random_local_unitary(m, n, seed=1))
    assert res.ok and res.checked == 0


@pytest.mark.parametrize("make", [
    lambda: random_mixed(3, 3, 2, seed=0),
    lambda: _rank_two_side_b(random_separable(3, 3, 5, seed=3)),
], ids=["t < n", "exactly rank 2"])
def test_covariance_holds_on_two_full_sides(make):
    # t < n leaves V all of CP^{m-1} on both sides; an exact pencil of rank
    # below n has a structurally Full V, and its float image a pencil of
    # numerical rank below n, all of CP^{m-1} to working precision
    s = make()
    assert variety_of_state(s).structural == "Full"
    res = verify_lu_covariance(s, random_local_unitary(3, 3, seed=1))
    assert res.ok and res.checked == 0


def _rank_two_side_b(s):
    rows = [[EC(x) for x in row] for row in ([1, 0, 0], [0, 1, 0], [1, 1, 0])]
    pair = LocalUnitaryPair(exact_matrix(np.identity(3, dtype=int).tolist()), exact_matrix(rows),
                            validate=False)
    return apply_local_unitary(s, pair)


def test_float_v_of_low_numerical_rank_is_sampled_and_covariant():
    # side-B rows r1, r2, r1 + r2 on the state itself: every point of CP^2
    # is on V to working precision, so the sampler draws random points and
    # the Hermitian oracle accepts them, and covariance is measured on both
    # sides (sampling exhausted after 500 line draws before)
    rank_two = np.asarray([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=complex)
    pair = LocalUnitaryPair(np.identity(3, dtype=complex), rank_two, validate=False)
    state = apply_local_unitary(random_mixed(3, 3, 5, seed=0), pair)
    v = variety_of_state(state)
    pts = sample_points(v, 5, 42)
    assert len(pts) == 5
    assert all(v.hermitian_residual(p) <= 0.1 * DEFAULT_TOL.abs_eps for p in pts)
    res = verify_lu_covariance(state, random_local_unitary(3, 3, seed=1), samples=3)
    assert res.ok and res.checked > 0


def _unit(i, dim=3):
    return [EC(int(j == i)) for j in range(dim)]


def _product(a, b):
    return tuple(x * y for x in a for y in b)


def test_hermitian_residual_when_its_bound_underflows():
    # a_u (x) e_1 with a_u = e_1, e_2, e_1 + e_2 + e_3: M(r) has two zero
    # rows, so the bound (1e-300)^2 underflows to 0.0 (ZeroDivisionError
    # before); M(r) is singular and r is on V, on both float and exact points
    rays = [_unit(0), _unit(1), [EC(1)] * 3]
    s = BipartiteState(3, 3, ensemble=[(F(1, 3), _product(a, _unit(0))) for a in rays],
                       validate=False)
    v = variety_of_state(s)
    assert v.hermitian_residual((1, 0.5j, 0.25)) == 0.0
    assert v.hermitian_residual((EC(1), EC(0, F(1, 2)), EC(F(1, 4)))) == 0.0
    # M(r) = diag(|r_i|^2) / 3 is nonsingular, with rows small enough that
    # the product of their norms, or det itself, underflows, or large
    # enough that a row norm overflows: the ratio of a diagonal matrix is 1
    diag = BipartiteState(3, 3, ensemble=[(F(1, 3), _product(_unit(i), _unit(i)))
                                          for i in range(3)])
    vd = variety_of_state(diag)
    for point in [(1e-100, 1e-100, 1e50), (1e-100, 1e-100, 1e-100), (1e-160, 1, 1e-160),
                  (1e100, 1, 1), (1e60, 1e60, 1e60)]:
        assert vd.hermitian_residual(point) == pytest.approx(1.0, rel=1e-12)
    assert vd.hermitian_residual((1, 2, 3)) == 1.0


def best_probe(mats, threshold):
    """_best_probe on the stack's ratios, as the witness search reads them."""
    return _best_probe(_hadamard_ratios(mats), threshold)


def loop_best(mats, threshold):
    """Every retired per-matrix ratio in index order, each strict improvement
    kept."""
    best = None
    for k, mat in enumerate(mats):
        res = _hadamard_ratio(mat)
        if res > threshold and (best is None or res > best[1]):
            best = (k, res)
    return best


def test_best_probe_selection_rule():
    rng = np.random.default_rng(4)
    a, b = (rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)))
    ra, rb = _hadamard_ratio(a), _hadamard_ratio(b)
    lo, hi = (a, b) if ra < rb else (b, a)
    r_hi = max(ra, rb)
    # duplicates: a tie goes to the first index
    assert best_probe(np.array([lo, hi, hi, lo]), 0.0) == (1, r_hi)
    # every probe below threshold
    assert best_probe(np.array([lo, hi, hi]), r_hi) is None
    # 1 ulp above threshold wins; at threshold it does not
    assert best_probe(np.array([lo, hi]), float(np.nextafter(r_hi, 0.0))) == (1, r_hi)
    assert best_probe(np.array([hi]), r_hi) is None
    # a NaN probe never wins, not even alone
    nan = np.full((4, 4), np.nan + 0j)
    with np.errstate(invalid="ignore"):
        assert best_probe(np.array([nan, lo, nan]), 0.0) == (1, min(ra, rb))
        assert best_probe(np.array([nan]), 0.0) is None
    # no probe at all, or every one put on V by the pencil (masked to NaN,
    # as the witness search masks them): nothing is selected
    assert _hadamard_ratios(np.zeros((0, 4, 4), dtype=complex)).shape == (0,)
    assert best_probe(np.zeros((0, 4, 4), dtype=complex), -1.0) is None
    ratios = _hadamard_ratios(np.array([lo, hi]))
    assert _best_probe(np.where([False, False], ratios, np.nan), -1.0) is None
    assert _best_probe(np.where([True, False], ratios, np.nan), 0.0) == (0, min(ra, rb))
    # near ties: scaled copies, ulp-sized nudges
    for trial in range(200):
        base = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        picks = rng.integers(0, 3, size=12)
        scales = 2.0 ** rng.integers(-40, 40, size=12) * (1 + rng.integers(-3, 4, size=12) * 2e-16)
        mats = base[picks] * scales[:, None, None]
        threshold = float(np.sort([_hadamard_ratio(m) for m in mats])[trial % 12])
        assert best_probe(mats, threshold) == loop_best(mats, threshold)


def rescaled_retired_ratio(mat) -> float:
    """The retired _hadamard_ratio, with a bound that overflows to inf met
    as one that underflows to 0: a zero row reads 0.0, and other rows are
    first scaled to unit max modulus."""
    bound = 1.0
    for norm in _retired_row_norms(mat):
        bound *= max(norm, 1e-300)
    if bound != np.inf:
        return _hadamard_ratio(mat)
    peaks = np.abs(mat).max(axis=1, keepdims=True)
    if not peaks.all():
        return 0.0
    return _hadamard_ratio((mat.view(float) / peaks).view(complex))


@pytest.mark.parametrize("n", range(1, 7))
def test_the_ratios_are_the_retired_ratio_bit_for_bit(n):
    """Each of _hadamard_ratios(mats) is the retired _hadamard_ratio(mat),
    rescaled where its bound overflows (rescaled_retired_ratio), on stacks
    that mix rows at scales 1e-200 to 1e200 (bounds and dets that overflow
    to inf or underflow to 0), zero rows, subnormal rows and NaN matrices."""
    rng = np.random.default_rng(n)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    bounds = []
    for _ in range(100):
        mats = gaussian(12, n, n) * 10.0 ** rng.integers(-200, 201, size=(12, n, 1))
        rows = rng.integers(0, 6, size=(12, n))
        mats[rows == 0] = 0
        mats[rows == 1] = gaussian(int((rows == 1).sum()), n) * 1e-310
        mats[rng.random(12) < 0.05] = np.nan
        # the retired ratio's det warns on NaN and extreme matrices, and its
        # dot on overflow; the stacked ratio needs no errstate around it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = [rescaled_retired_ratio(mat).hex() for mat in mats]
        assert [x.hex() for x in _hadamard_ratios(mats).tolist()] == want
        with np.errstate(over="ignore", invalid="ignore"):
            bounds += np.prod(np.maximum(np.linalg.norm(mats, axis=2), 1e-300), axis=1).tolist()
    # every case is met: a bound that underflows, one that overflows, NaN
    bounds = np.array(bounds)
    assert (bounds == 0).any() == (n > 1) and np.isinf(bounds).any() and np.isnan(bounds).any()


def _det_warns(mats) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        np.linalg.det(mats)
    return bool(caught)


def test_the_oracle_raises_no_warning_on_extreme_rows():
    """Under the suite's -W error::RuntimeWarning, with no errstate or
    warning filter around the call, neither _hadamard_ratios nor the
    oracle that reads it raises on stacks whose rows are scaled by 1e200,
    1e-200, 1e-310, 1 or 0, where np.linalg.det alone warns on some."""
    rng = np.random.default_rng(52)
    scales = np.array([1e200, 1e-200, 1e-310, 1.0, 0.0])
    warned = 0
    for _ in range(2000):
        n, b = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        mats = (rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))) \
            * rng.choice(scales, size=(b, n, 1))
        _hadamard_ratios(mats)
        warned += _det_warns(mats)
    assert warned > 0
    # M(r) = diag(|r_i|^2) / 3 (the diagonal state below): rows at |r_i|^2
    diag = BipartiteState(3, 3, ensemble=[(F(1, 3), _product(_unit(i), _unit(i)))
                                          for i in range(3)])
    vd = variety_of_state(diag)
    coords = [1e100, 1e-100, 1e-155, 1.0, 0.0]
    points = [p for p in itertools.product(coords, repeat=3) if any(p)]
    vd.hermitian_residuals(points)
    assert _det_warns(vd.hermitian_stack(points))


def test_best_probe_on_underflowing_bounds():
    # the states of test_hermitian_residual_when_its_bound_underflows: zero
    # rows, and rows whose bound or det underflows, take the exact ratio
    rays = [_unit(0), _unit(1), [EC(1)] * 3]
    s = BipartiteState(3, 3, ensemble=[(F(1, 3), _product(a, _unit(0))) for a in rays],
                       validate=False)
    v = variety_of_state(s)
    assert best_probe(v.hermitian_stack([(1, 0.5j, 0.25)]), -1.0) == (0, 0.0)
    diag = BipartiteState(3, 3, ensemble=[(F(1, 3), _product(_unit(i), _unit(i)))
                                          for i in range(3)])
    vd = variety_of_state(diag)
    points = [(1e-100, 1e-100, 1e50), (1e-100, 1e-100, 1e-100), (1e-160, 1, 1e-160), (1, 2, 3)]
    mats = vd.hermitian_stack(points)
    for k, point in enumerate(points):
        assert best_probe(mats[k:k + 1], 0.5) == (0, vd.hermitian_residual(point))
    assert best_probe(mats, 0.5) == loop_best(mats, 0.5)


def test_project_normalize_rules():
    p = project_normalize((0.5j, -2.0 + 0j, 1.0 + 0j))
    assert p[1] == 1.0 + 0j  # max modulus wins
    q = project_normalize((EC(2), EC(-2), EC(1)))
    assert q[0] == EC(1)  # ties break at the lowest index
    # the max-modulus coordinate keeps its index; on a float point it
    # becomes 1 only to within a few ulp (x * (1 / x) is rounded twice),
    # on an exact point exactly 1
    rng = random.Random(5)
    off_one = 0
    for _ in range(2000):
        pt = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        pivot = max(range(4), key=lambda i: (abs(pt[i]), -i))
        q = project_normalize(pt)
        assert max(range(4), key=lambda i: (abs(q[i]), -i)) == pivot
        assert abs(q[pivot] - 1) <= 4 * np.finfo(float).eps
        off_one += q[pivot] != 1
    assert off_one > 0
    for _ in range(200):
        pt = [EC(F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5)))
              for _ in range(3)]
        if any(not x.is_zero() for x in pt):
            pivot = max(range(3), key=lambda i: (pt[i].norm_sq(), -i))
            assert project_normalize(pt)[pivot] == EC(1)


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
    assert abs(evaluate(residual, verdict.point)) \
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
    v = variety_of_state(make_state())
    assert linearity_decide(v, seed=7).factor_list is not None
    # a separable square pencil's factor list is read off its product
    # columns, with no call; any other hypersurface is factored once
    assert len(calls) == (v.split is None)


@pytest.mark.parametrize("make_variety, finder", [
    (lambda: family_variety(8), "_line_roots"),                        # t = n
    (lambda: variety_of_state(ppt_4x6_state()), "_incidence_point"),  # t > n
])
def test_unexpected_root_finder_errors_propagate(monkeypatch, make_variety, finder):
    # an exact V is sampled on its pencil: a bug in its root finder must
    # surface, not read as an unlucky draw
    import detvar.variety as variety_mod

    def broken(*args, **kwargs):
        raise TypeError("bug inside the root finder")

    v = make_variety()
    assert v.mode == "exact"
    monkeypatch.setattr(variety_mod, finder, broken)
    with pytest.raises(TypeError):
        sample_points(v, 3, seed=1)


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


def test_float_verdict_does_not_depend_on_ray_scale():
    # unscaled, the minors of rays times 1e-120 underflow to zero ("Full")
    # and those of rays times 1e120 overflow (sampling exhausted)
    rng = random.Random(1)
    rays = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(9)] for _ in range(3)]
    verdicts = []
    for scale in (1.0, 1e-120, 1e120):
        st = BipartiteState(3, 3, ensemble=[(1 / 3, [z * scale for z in ray]) for ray in rays])
        verdicts.append(linearity_decide(variety_of_state(st), seed=42))
    assert [v.tag for v in verdicts] == ["NonlinearWitness"] * 3
    first = verdicts[0]
    for v in verdicts[1:]:
        assert abs(v.residual - first.residual) <= 1e-9 * first.residual
        assert max(abs(a - b) for a, b in zip(v.point, first.point)) <= 1e-9

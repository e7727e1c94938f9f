"""Acceptance criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` (or `-s` for the PASS lines).
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from detvar.catalog import (
    chart_reduction,
    cyclic_cubic_state,
    maximally_mixed,
    ppt_4x6_state,
    printed_pencil_4x6,
)
from detvar.factorization import linear_factorization
from detvar.linalg import partial_transpose
from detvar.moduli import HesseCubic, lu_compare, moduli_value
from detvar.multipoly import Poly
from detvar.report import analyze_state, chart_reduction_report, render_json, verdict_to_json
from detvar.scalars import DEFAULT_TOL, ExactComplex
from detvar.statefile import load_state
from detvar.states import (
    LocalUnitaryPair,
    density_from_ensemble,
    ensemble_from_density,
    entropy_and_spectra,
    random_local_unitary,
    random_mixed,
    random_separable,
    random_unitary,
)
from detvar.variety import (
    linearity_decide,
    membership,
    sample_points,
    variety_of_state,
    verify_lu_covariance,
)
from pinned import GOLDEN

EC = ExactComplex
F = Fraction

WITNESS_THRESHOLD = 10 * DEFAULT_TOL.abs_eps  # 1e-8 with the default policy


def family_cubic_poly(t3: F) -> Poly:
    r1, r2, r3 = (Poly.variable(i, 3) for i in range(3))
    return (r1 ** 3).scale(EC(t3)) + r2 ** 3 + r3 ** 3 \
        - (r1 * r2 * r3).scale(EC(t3 + 2))


@pytest.fixture(scope="module")
def family_varieties():
    return {t3: variety_of_state(cyclic_cubic_state(EC(t3)))
            for t3 in (F(8), F(-27), F(27))}


@pytest.fixture(scope="module")
def ppt_state():
    return ppt_4x6_state()


@pytest.fixture(scope="module")
def ppt_variety(ppt_state):
    return variety_of_state(ppt_state)


def test_criterion_1_maximally_mixed_empty():
    report = analyze_state(maximally_mixed(3, 3), input_digest="builtin")
    assert report["verdict"]["tag"] == "Empty"
    assert report["conclusion"] == "inconclusive"
    assert report["mode"] == "exact"
    print("[criterion 1] PASS: maximally mixed 3x3 -> Empty, inconclusive (exact)")


def test_criterion_2_family_generator_symbolic(family_varieties):
    for t3, v in family_varieties.items():
        gens = v.essential_generators
        assert len(gens) == 1
        g = gens[0]
        expect = family_cubic_poly(t3)
        # equality up to an exact nonzero scalar, coefficient by coefficient
        lead_e, lead_c = expect.leading()
        scalar = g.coeff(lead_e) / lead_c
        assert not scalar.is_zero()
        assert g == expect.scale(scalar)
    print("[criterion 2] PASS: single generator equals the printed cubic for "
          "t^3 in {8, -27, 27}")


def test_criterion_3_family_witness_recheck(family_varieties):
    v = family_varieties[F(8)]
    verdict = linearity_decide(v, seed=42)
    assert verdict.tag == "NonlinearWitness"
    assert verdict.residual > WITNESS_THRESHOLD
    # re-check strictly from the serialized report data
    serialized = json.loads(render_json(verdict_to_json(verdict)))
    probe = tuple(complex(re, im) for re, im in serialized["witness"]["probe"])
    assert v.hermitian_residual(probe) == serialized["witness"]["hermitian_residual"]
    print(f"[criterion 3] PASS: t=2 witness residual {verdict.residual:.3e} "
          f"> {WITNESS_THRESHOLD:.0e}, serialized re-check agrees bit for bit")


@pytest.mark.parametrize("side", "AB")
def test_criterion_3_golden_witness_recheck(side):
    """Every golden state's witness on either side, re-checked from its
    serialized report: the single-point residual is the probe's own bits."""
    rechecked = []
    for path in sorted(GOLDEN.glob("*.state.json")):
        state = load_state(str(path))
        report = json.loads(render_json(analyze_state(state, side=side, seed=42)))
        witness = report["verdict"].get("witness")
        if witness is None:
            continue
        work = state if state.ensemble is not None else state.spectral()
        probe = tuple(complex(re, im) for re, im in witness["probe"])
        assert variety_of_state(work, side).hermitian_residual(probe) == \
            witness["hermitian_residual"], path.name
        rechecked.append(path.name)
    assert len(rechecked) == 7
    print(f"[criterion 3] PASS: {len(rechecked)} golden witnesses on side {side} "
          f"re-check bit for bit")


def test_criterion_4_moduli_vs_spectra():
    cmp = lu_compare(F(27), F(-27))
    assert cmp.left.value is not None and cmp.right.value is not None
    assert cmp.left.value != cmp.right.value
    assert cmp.verdict == "DistinguishedInequivalent"
    # same lambda^3 inputs as exact fractions
    assert moduli_value(HesseCubic(EC(F(24389, 27)), "")).value == cmp.left.value
    assert moduli_value(HesseCubic(EC(F(15625, 27)), "")).value == cmp.right.value

    a = entropy_and_spectra(cyclic_cubic_state(EC(27)))
    b = entropy_and_spectra(cyclic_cubic_state(EC(-27)))
    for xs, ys in ((a.spectrum, b.spectrum),
                   (a.reduced_a_spectrum, b.reduced_a_spectrum),
                   (a.reduced_b_spectrum, b.reduced_b_spectrum)):
        assert max(abs(x - y) for x, y in zip(xs, ys)) <= 1e-10
    for ea, eb in ((a.entropy, b.entropy),
                   (a.entropy_reduced_a, b.entropy_reduced_a),
                   (a.entropy_reduced_b, b.entropy_reduced_b)):
        assert abs(ea - eb) <= 1e-10
    print("[criterion 4] PASS: exact moduli distinguish t=3w from s=-3; "
          "spectra and entropies agree to 1e-10")


def test_criterion_5_chart_reduction(ppt_state):
    rho = ppt_state.density_matrix()
    # (a) partial transpose fixes rho exactly
    assert np.array_equal(partial_transpose(rho, 4, 6), rho)
    cr = chart_reduction(ppt_state)
    # (b) recomputed pencil matches the printed matrix entrywise
    assert cr.pencil_matches_printed
    assert cr.pencil == printed_pencil_4x6()
    # (c) the linear factor divides the recomputed f2 exactly
    assert cr.linear_factor * cr.f2_quotient == cr.f2
    # (d) f1 restricted to the carved plane is exactly +-g as printed
    assert cr.g_sign in (1, -1)
    assert cr.g == (cr.printed if cr.g_sign == 1 else -cr.printed)
    # (e) g carries no Gaussian-rational linear factor: certified irreducible
    assert cr.g_factors == []
    assert cr.g_irreducible
    report = chart_reduction_report(cr)
    assert report["conclusion"] == "entangled"
    # the printed-quadratic deviation is documented, never a failure
    assert not cr.quotient_matches_printed
    kinds = {c["kind"] for c in report["caveats"]}
    assert "printed-quadratic-discrepancy" in kinds
    print("[criterion 5] PASS: 4x6 reduction exact (PT fixed, pencil, "
          "divisibility, +-g, irreducibility); printed-f2 deviation logged")


def test_criterion_6_covariance_property():
    worst = 0.0
    for k in range(50):
        s = random_mixed(3, 3, rank=3, seed=42 + 1000 * k)
        u = random_local_unitary(3, 3, seed=42 + 1000 * k + 7)
        res = verify_lu_covariance(s, u, samples=3, seed=42)
        assert res.checked > 0
        assert res.max_residual < 1e-8, (k, res.max_residual)
        worst = max(worst, res.max_residual)
    # negative control: a non-unitary map must fail at least once
    rng = random.Random(42)
    failures = 0
    for k in range(3):
        bad = np.asarray([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
                          for _ in range(3)], dtype=complex)
        pair = LocalUnitaryPair(bad, random_unitary(3, rng), validate=False)
        s = random_mixed(3, 3, rank=3, seed=4242 + k)
        if not verify_lu_covariance(s, pair, samples=3, seed=42):
            failures += 1
    assert failures >= 1
    print(f"[criterion 6] PASS: 50/50 covariance trials, worst residual "
          f"{worst:.3e} < 1e-8; negative control failed {failures}/3")


def test_criterion_7_separable_linearity_property():
    # the square configs in m >= 4 split a determinant in four or five
    # variables
    configs = [(2, 2, 2), (2, 3, 3), (3, 3, 3), (2, 2, 3), (2, 3, 4),
               (3, 3, 4), (3, 3, 5), (4, 4, 4), (4, 3, 3), (5, 3, 3), (4, 2, 2), (5, 4, 4)]
    runs = 3 * len(configs)
    witnesses = 0
    square_checked = 0
    for k in range(runs):
        m, n, terms = configs[k % len(configs)]
        st = random_separable(m, n, terms, seed=42 + 97 * k)
        v = variety_of_state(st)
        verdict = linearity_decide(v, seed=42)
        if verdict.tag == "NonlinearWitness":
            witnesses += 1
        if terms == n and len(v.essential_generators) == 1:
            # square hypersurface case: exact full split that re-multiplies
            fl = linear_factorization(v.essential_generators[0])
            assert fl.residual is None
            assert len(fl.linear_factors) == n
            assert fl.remultiply(m) == v.essential_generators[0]
            if m >= 3:  # in CP^1, V is Finite before anything is peeled
                assert verdict.tag == "LinearUnion" and verdict.factor_list == fl
            square_checked += 1
    assert witnesses == 0
    assert square_checked >= 20
    print(f"[criterion 7] PASS: {runs} separable states, 0 witnesses; "
          f"{square_checked} square cases split and re-multiplied exactly")


def test_criterion_8_membership_oracle_equivalence(family_varieties, ppt_variety):
    rng = random.Random(42)
    checked = 0

    def random_exact_point(m):
        while True:
            pt = [EC(F(rng.randint(-9, 9), rng.randint(1, 3)),
                     F(rng.randint(-9, 9), rng.randint(1, 3))) for _ in range(m)]
            if any(not x.is_zero() for x in pt):
                return pt

    agree = 0
    # exact pathway: random points on the family and 4x6 varieties
    for v in list(family_varieties.values()):
        for _ in range(170):
            membership(v, random_exact_point(3))  # raises on disagreement
            agree += 1
    for _ in range(160):
        membership(ppt_variety, random_exact_point(4))
        agree += 1
    # the empty variety: both oracles refuse every point
    v_empty = variety_of_state(maximally_mixed(3, 3))
    for _ in range(80):
        assert not membership(v_empty, random_exact_point(3))
        agree += 1
    # approx pathway: on-variety samples plus jittered off-variety points
    for t3, v in family_varieties.items():
        pts = sample_points(v, 50, seed=int(t3) % 97 + 3)
        for p in pts:
            assert membership(v, p)
            agree += 1
        for p in pts:
            q = tuple(z + 0.05 * complex(rng.gauss(0, 1), rng.gauss(0, 1))
                      for z in p)
            membership(v, q)
            agree += 1
    assert agree >= 1000
    print(f"[criterion 8] PASS: {agree} points checked by both membership "
          f"oracles with zero disagreements")


def test_criterion_9_round_trips(family_varieties, ppt_variety):
    # ensemble -> density -> ensemble within 1e-8 * ||rho||
    rng = random.Random(42)
    for k in range(20):
        m, n = rng.choice([(2, 2), (2, 3), (3, 3)])
        s = random_mixed(m, n, rank=rng.randint(1, m * n), seed=4200 + k)
        rho = s.density_matrix()
        rec = ensemble_from_density(np.asarray(rho, dtype=complex), m, n)
        back = density_from_ensemble(rec)
        assert np.max(np.abs(back - rho)) <= 1e-8 * np.linalg.norm(rho)

    # partial transpose is an exact involution
    for st in (ppt_4x6_state(), cyclic_cubic_state(EC(8)), maximally_mixed(2, 3)):
        rho = st.density_matrix()
        assert np.array_equal(partial_transpose(partial_transpose(rho, st.m, st.n), st.m, st.n),
                              rho)

    # Euler homogeneity holds exactly for every generated minor
    all_varieties = list(family_varieties.values()) + [
        ppt_variety, variety_of_state(random_separable(3, 3, 4, seed=77))]
    minors_checked = 0
    for v in all_varieties:
        for g in v.essential_generators:
            euler = Poly.zero(g.nvars)
            for i in range(g.nvars):
                euler = euler + Poly.variable(i, g.nvars) * g.derivative(i)
            assert euler == g.scale(v.n)
            minors_checked += 1
    assert minors_checked >= 10
    print(f"[criterion 9] PASS: 20 density round-trips within 1e-8; partial "
          f"transpose involution exact; Euler identity exact on "
          f"{minors_checked} minors")

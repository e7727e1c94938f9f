"""The sampler and the pencil oracle read the pencil N(r) = sum_i r_i A_i.

Every variety is sampled on its pencil, an exact one on its float image:
for t = n the roots of det N on a line are eigenvalues of the n x n pencil
restricted to it, and for t > n points come from Gauss-Newton on the
incidence system y^T N(r) = 0.  A float variety expands no symbolic minor,
and its generator oracle is sigma_n(N(r)) / (||A|| ||r||).  An exact
variety keeps its exact peel, and its samples keep off the peeled
hyperplanes.  These tests pin the eigenvalue roots against the roots of
the expanded determinant, the pencil oracle against the compiled minors it
replaces, an exact analysis that runs no Newton on minors, the rule that
a witness needs both oracles to put its probe off V, and one tangent
computation per sampled point.
"""

import dataclasses
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import detvar.variety as variety_mod
from detvar.catalog import cyclic_cubic_state, ppt_4x6_state
from detvar.multipoly import CompiledSystem, univariate_roots
from detvar.scalars import DEFAULT_TOL, ExactComplex
from detvar.states import BipartiteState, random_mixed
from detvar.variety import (
    PEELED_MARGIN,
    WITNESS_FACTOR,
    Variety,
    _analysis_system,
    _incidence_point,
    _line_roots,
    _random_approx_point,
    _tangent_data,
    _witness_search_at,
    linearity_decide,
    membership,
    project_normalize,
    sample_points,
    variety_of_state,
)
from oracles.polys import pencil_minors, restrict_to_line

# univariate_roots accepts a relative residual of abs_eps; at the default
# 1e-9 that admits a root up to about 4e-8 off, so the reference roots are
# held to a tighter bar
TIGHT = dataclasses.replace(DEFAULT_TOL, abs_eps=1e-13)


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4), (3, 4, 4), (4, 3, 3), (2, 3, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_eigenvalue_line_roots_match_aberth_roots(shape, seed):
    v = variety_of_state(random_mixed(*shape, seed=seed), "A")
    assert v.pencil.t == v.n
    det = pencil_minors(v.pencil)[0]
    rng = random.Random(f"line-roots:{seed}")
    for _ in range(10):
        base, direction = _random_approx_point(rng, v.m), _random_approx_point(rng, v.m)
        got = _line_roots(v, np.array(base), np.array(direction)).tolist()
        want = univariate_roots(restrict_to_line(det, base, direction), TIGHT)
        assert len(got) == len(want) == v.n
        for z in sorted(got, key=abs):
            k = min(range(len(want)), key=lambda i: abs(want[i] - z))
            assert abs(want.pop(k) - z) <= 1e-8 * max(1.0, abs(z))


def test_line_roots_skip_a_singular_direction():
    v = variety_of_state(random_mixed(3, 3, 3, seed=1))
    assert _line_roots(v, np.ones(3, dtype=complex), np.zeros(3, dtype=complex)) is None


@pytest.mark.parametrize("shape, side", [((3, 4, 4), "B"), ((4, 3, 4), "A"), ((4, 4, 5), "A"),
                                         ((4, 4, 5), "B"), ((3, 4, 5), "A"), ((3, 4, 5), "B")])
def test_incidence_gauss_newton_reaches_v(shape, side):
    v = variety_of_state(random_mixed(*shape, seed=2), side)
    assert v.pencil.t > v.n
    rng = random.Random(5)
    for _ in range(10):
        r = _incidence_point(v, np.array(_random_approx_point(rng, v.m)), DEFAULT_TOL)
        assert r is not None
        assert v.generator_residual(r) <= 0.05 * DEFAULT_TOL.abs_eps


CROSS_CASES = [(3, 3, 3), (3, 4, 4), (4, 4, 4), (4, 4, 5)]


@pytest.mark.parametrize("shape", CROSS_CASES)
@pytest.mark.parametrize("side", "AB")
def test_pencil_oracle_agrees_with_the_minors(shape, side):
    """At sampled points (on V) and at tangent probes at radius 0.1 (off V
    on these entangled states), the pencil oracle and the residual of the
    compiled minors, built here, agree on membership."""
    v = variety_of_state(random_mixed(*shape, seed=3), side)
    system = CompiledSystem([g for g in pencil_minors(v.pencil) if not g.is_zero()], v.m)
    rng = random.Random(11)
    eps = DEFAULT_TOL.abs_eps
    probes = 0
    for p in sample_points(v, 6, seed=9):
        assert v.generator_residual(p) <= eps and system.residual(p) <= eps
        data = _tangent_data(v, p)
        if data is None or not data[1]:
            continue
        for _ in range(5):
            g = sum(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * d for d in data[1])
            q = project_normalize((np.array(p) + 0.1 * g / np.linalg.norm(g)).tolist())
            assert (v.generator_residual(q) <= eps) == (system.residual(q) <= eps)
            assert membership(v, q) == (system.residual(q) <= eps)
            probes += 1
    assert probes > 0


@pytest.mark.parametrize("shape", [(2, 3, 3), (3, 3, 3), (3, 4, 4), (4, 4, 5)])
@pytest.mark.parametrize("side", "AB")
def test_sampling_a_float_variety_builds_no_minor(shape, side):
    v = variety_of_state(random_mixed(*shape, seed=4), side)
    for p in sample_points(v, 3, seed=1):
        assert membership(v, p)
    assert v._generators is None


def _pencil_says_on_v(monkeypatch, where):
    """Make the pencil oracle read 0 at the points `where` accepts."""
    real = Variety.pencil_residuals

    def patched(self, points):
        out = real(self, points)
        pts = np.array(points, dtype=complex).reshape(len(out), -1)
        out[[where(tuple(q)) for q in pts.tolist()]] = 0.0
        return out

    monkeypatch.setattr(Variety, "pencil_residuals", patched)


def test_no_witness_when_only_the_hermitian_oracle_leaves_v(monkeypatch):
    state = random_mixed(3, 3, 3, seed=1)
    assert linearity_decide(variety_of_state(state), seed=42).tag == "NonlinearWitness"
    # the sampled points are on V for both oracles, and every probe is on V
    # for the pencil alone: no probe is a witness
    _pencil_says_on_v(monkeypatch, lambda q: True)
    verdict = linearity_decide(variety_of_state(state), seed=42)
    assert verdict.tag == "Inconclusive"
    assert verdict.reason == "no witness found in 12 samples"


def test_the_witness_is_the_best_probe_both_oracles_put_off_v(monkeypatch):
    v = variety_of_state(random_mixed(3, 4, 4, seed=1))
    point = sample_points(v, 1, seed=7)[0]
    first = _witness_search_at(v, point, random.Random(3), DEFAULT_TOL)
    assert first is not None
    _pencil_says_on_v(monkeypatch, lambda q: q == first[0])
    second = _witness_search_at(v, point, random.Random(3), DEFAULT_TOL)
    assert second is not None and second[0] != first[0]
    assert WITNESS_FACTOR * DEFAULT_TOL.abs_eps < second[1] <= first[1]
    assert v.generator_residual(second[0]) > WITNESS_FACTOR * DEFAULT_TOL.abs_eps


def _gaussian_state(m, n, rank, seed):
    """Exact rank-`rank` ensemble of rays with entries in {-3..3} + {-3..3}i
    and weights k / sum k, as in the Gaussian-rational golden states."""
    rng = random.Random(seed)
    raw = [rng.randint(1, 9) for _ in range(rank)]
    ensemble = []
    for w in raw:
        ray = [ExactComplex(0)]
        while all(x.is_zero() for x in ray):
            ray = [ExactComplex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(m * n)]
        ensemble.append((Fraction(w, sum(raw)), tuple(ray)))
    return BipartiteState(m, n, ensemble=ensemble)


EXACT_CASES = ([(f"gaussian {m}x{n} r{r} seed {seed}",
                 lambda m=m, n=n, r=r, seed=seed: _gaussian_state(m, n, r, seed), side,
                 "NonlinearWitness")
                for m, n, r in [(3, 3, 3), (3, 4, 4), (4, 4, 4), (4, 4, 5)]
                for seed in range(4) for side in "AB"]
               + [(f"cyclic t^3 = {t3}", lambda t3=t3: cyclic_cubic_state(ExactComplex(t3)),
                   side, "NonlinearWitness") for t3 in (8, -27) for side in "AB"]
               + [("ppt 4x6", ppt_4x6_state, "A", "Inconclusive")])


@pytest.mark.parametrize("label, make_state, side, tag", EXACT_CASES,
                         ids=[f"{c[0]} {c[2]}" for c in EXACT_CASES])
def test_an_exact_analysis_samples_on_the_pencil(monkeypatch, label, make_state, side, tag):
    """With Newton on minors, Aberth roots and plane slices made to fail,
    an exact analysis keeps its verdict: it samples on its pencil.  Every
    point it probes keeps off each hyperplane its peel certified."""
    def refuse(*args, **kwargs):
        raise AssertionError("an exact analysis runs the minors' sampler")

    for name in ("_newton_polish", "univariate_roots", "_plane_slice_candidates"):
        monkeypatch.setattr(variety_mod, name, refuse)
    probed = []
    real_search = variety_mod._witness_search_at

    def recording(v, point, rng, tol):
        probed.append(point)
        return real_search(v, point, rng, tol)

    monkeypatch.setattr(variety_mod, "_witness_search_at", recording)
    v = variety_of_state(make_state(), side)
    assert v.mode == "exact"
    verdict = linearity_decide(v, seed=42)
    assert verdict.tag == tag
    assert probed
    forms = _analysis_system(v)[0]
    if label == "ppt 4x6":
        assert forms
        assert re.fullmatch(r"no witness found in 12 samples; \d+ on peeled hyperplanes; "
                            r"\d+ not probed \(not smooth\)", verdict.reason)
    for form in forms:
        normal = np.array([c.to_complex() for c in form.coefficients])
        for p in probed:
            distance = abs(normal @ np.array(p)) / (np.linalg.norm(normal) * np.linalg.norm(p))
            assert distance >= PEELED_MARGIN


TANGENT_CASES = [
    ("float 3x4 r4 seed 3", lambda: random_mixed(3, 4, 4, seed=3), 27, "NonlinearWitness"),
    ("gaussian 3x4 r4 seed 10", lambda: _gaussian_state(3, 4, 4, 10), 42, "NonlinearWitness"),
    ("ppt 4x6", ppt_4x6_state, 42, "Inconclusive"),
]


@pytest.mark.parametrize("label, make_state, seed, tag", TANGENT_CASES,
                         ids=[c[0] for c in TANGENT_CASES])
def test_each_sampled_point_costs_one_tangent_computation(monkeypatch, label, make_state,
                                                          seed, tag):
    """One _tangent_data per sampled point decides whether it is smooth and
    gives its probe directions, and a witness's tangent form, with no
    second computation.  In each case some point is probed without giving a
    witness, and on the ppt 4x6 state some are not probed (not smooth):
    exactly those where _tangent_data finds no tangent data."""
    sampled, smooth = [], []
    real_stream, real_tangent_data = variety_mod._point_stream, variety_mod._tangent_data

    def recording_stream(*args):
        for p, on_peeled in real_stream(*args):
            sampled.append(p)
            yield p, on_peeled

    def counting(v, point):
        data = real_tangent_data(v, point)
        smooth.append(data is not None)
        return data

    monkeypatch.setattr(variety_mod, "_point_stream", recording_stream)
    monkeypatch.setattr(variety_mod, "_tangent_data", counting)
    verdict = linearity_decide(variety_of_state(make_state()), seed=seed)
    assert verdict.tag == tag
    witness = tag == "NonlinearWitness"
    assert len(sampled) >= 2
    assert len(smooth) == len(sampled)
    if witness:
        assert smooth[-1]
    else:
        skipped = int(re.search(r"(\d+) not probed \(not smooth\)", verdict.reason)[1])
        assert skipped == smooth.count(False) > 0

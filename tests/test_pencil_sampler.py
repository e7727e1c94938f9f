"""The float sampler and oracles read the pencil N(r) = sum_i r_i A_i alone.

A float variety expands no symbolic minor: for t = n the roots of det N on
a line are eigenvalues of the n x n pencil restricted to it, for t > n
points come from Gauss-Newton on the incidence system y^T N(r) = 0, and
the generator oracle is sigma_n(N(r)) / (||A|| ||r||).  These tests pin
the eigenvalue roots against Aberth roots of the expanded determinant,
the pencil oracle against the compiled minors it replaces, and the rule
that a witness needs both oracles to put its probe off V.
"""

import dataclasses
import random

import numpy as np
import pytest

from detvar.multipoly import CompiledSystem, minors, restrict_to_line, univariate_roots
from detvar.scalars import DEFAULT_TOL
from detvar.states import random_mixed
from detvar.variety import (
    WITNESS_FACTOR,
    Variety,
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

# Aberth stops at a relative residual of abs_eps; at the default 1e-9 that
# leaves a root up to about 4e-8 off, so the reference roots are taken
# with a tighter tolerance
TIGHT = dataclasses.replace(DEFAULT_TOL, abs_eps=1e-13)


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4), (3, 4, 4), (4, 3, 3), (2, 3, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_eigenvalue_line_roots_match_aberth_roots(shape, seed):
    v = variety_of_state(random_mixed(*shape, seed=seed), "A")
    assert v.pencil.t == v.n
    det = minors(v.pencil.entry_polys(), v.n)[0]
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
        assert v.pencil_residual(r) <= 0.05 * DEFAULT_TOL.abs_eps


CROSS_CASES = [(3, 3, 3), (3, 4, 4), (4, 4, 4), (4, 4, 5)]


@pytest.mark.parametrize("shape", CROSS_CASES)
@pytest.mark.parametrize("side", "AB")
def test_pencil_oracle_agrees_with_the_minors(shape, side):
    """At sampled points (on V) and at tangent probes at radius 0.1 (off V
    on these entangled states), the pencil oracle and the residual of the
    compiled minors, built here, agree on membership."""
    v = variety_of_state(random_mixed(*shape, seed=3), side)
    system = CompiledSystem([g for g in minors(v.pencil.entry_polys(), v.n)
                             if not g.is_zero()], v.m)
    rng = random.Random(11)
    eps = DEFAULT_TOL.abs_eps
    probes = 0
    for p in sample_points(v, 6, seed=9):
        assert v.pencil_residual(p) <= eps and system.residual(p) <= eps
        data = _tangent_data(v, p)
        if data is None or not data[1]:
            continue
        for _ in range(5):
            g = sum(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * d for d in data[1])
            q = project_normalize((np.array(p) + 0.1 * g / np.linalg.norm(g)).tolist())
            assert (v.pencil_residual(q) <= eps) == (system.residual(q) <= eps)
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
    first = _witness_search_at(v, point, random.Random(3), DEFAULT_TOL, 0.1)
    assert first is not None
    _pencil_says_on_v(monkeypatch, lambda q: q == first[0])
    second = _witness_search_at(v, point, random.Random(3), DEFAULT_TOL, 0.1)
    assert second is not None and second[0] != first[0]
    assert WITNESS_FACTOR * DEFAULT_TOL.abs_eps < second[1] <= first[1]
    assert v.pencil_residual(second[0]) > WITNESS_FACTOR * DEFAULT_TOL.abs_eps

"""Symbolic minors are built only when something reads them.

A float pencil is built from the pencil alone: no minor is expanded or
screened, and its count of nonzero minors is numerical, taken when first
read.  An exact pencil with t > n in m >= 3 variables is screened modulo
a prime instead of expanded; the Macaulay certificate and the Cauchy-Binet
certificate of the exact peel read the reduced pencil too.  An exact
square pencil is expanded at once, as the line peel reads its
determinant.  These tests pin that a certified state and a float analysis
build no minor, that the screen stays out of float pencils, of square
pencils and of CP^1, and that
the counts a report prints without expanding are those of the expanded
minors: on exact edge states the lazy report equals, byte for byte, the
report of the same analysis with the screen switched off, and a float
count is that of the float minors that are not rounding noise.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

import detvar.multipoly as multipoly
import detvar.variety as variety_mod
from detvar import catalog
from detvar.errors import FloatMinors
from detvar.linalg import exact_matrix
from detvar.report import analyze_state, render_json
from detvar.scalars import ExactComplex
from detvar.states import (
    BipartiteState,
    LocalUnitaryPair,
    apply_local_unitary,
    random_local_unitary,
    random_mixed,
    random_separable,
)
from detvar.variety import PencilMatrix, linearity_decide, variety_of_state
from shared_states import float_copy, gaussian_integer_state
from oracles.polys import pencil_minors
from pinned import CASES, GOLDEN, rendered_report

EC = ExactComplex
F = Fraction


@pytest.fixture
def no_minors(monkeypatch):
    """Make every namespace that binds multipoly.minors raise on a call."""

    def refuse(*args, **kwargs):
        raise AssertionError("a symbolic minor was built")

    real = multipoly.minors
    for name, module in list(sys.modules.items()):
        if (name == "detvar" or name.startswith("detvar.")) and \
                getattr(module, "minors", None) is real:
            monkeypatch.setattr(module, "minors", refuse)
    assert variety_mod.minors is refuse and multipoly.minors is refuse


@pytest.mark.parametrize("name", ["separable_3x4_t5", "finite_v_3x3_r4", "separable_3x3_t5",
                                  "separable_4x4_t6", "gaussian_4x4_r7", "mixed_3x4_r5"])
def test_certified_golden_reports_build_no_minor(no_minors, name):
    pinned = (GOLDEN / f"{name}.report.json").read_text()
    assert rendered_report(CASES[name]) == pinned


@pytest.fixture
def screens(monkeypatch):
    """Record every pencil the minor screen sees."""
    seen = []
    real = variety_mod._minor_screen

    def spy(p):
        seen.append(p)
        return real(p)

    monkeypatch.setattr(variety_mod, "_minor_screen", spy)
    return seen


@pytest.mark.parametrize("make", [
    lambda: random_separable(3, 4, 4, seed=1),   # m = 3, t = n: the factor split reads det N
    lambda: random_separable(2, 2, 3, seed=1),   # m <= 2: cheap minors, no certificate on them
    lambda: random_separable(2, 3, 4, seed=1),
    lambda: catalog.maximally_mixed(2, 2),
], ids=["sep 3x4 t4", "sep 2x2 t3", "sep 2x3 t4", "maxmixed 2x2"])
def test_no_screen_below_the_gate_or_in_cp1(screens, make):
    v = variety_of_state(make())
    assert screens == []
    assert v._generators is not None


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("shape", [(2, 3, 3), (3, 3, 3), (3, 4, 4), (4, 4, 5)],
                         ids=["2x3 r3", "3x3 r3", "3x4 r4", "4x4 r5"])
def test_a_float_analysis_builds_no_minor(no_minors, shape, side):
    # below the gate, in CP^1, sampled on lines (t = n) and by the
    # incidence system (t > n)
    analyze_state(random_mixed(*shape, seed=1), side=side, samples=4)


@pytest.fixture
def reductions(monkeypatch):
    """Record every pencil reduced modulo a prime."""
    seen = []
    real = PencilMatrix.mod_p

    def spy(self):
        seen.append(self)
        return real(self)

    monkeypatch.setattr(PencilMatrix, "mod_p", spy)
    return seen


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("shape", [(2, 3, 3), (3, 3, 3), (3, 4, 4), (4, 4, 5), (3, 3, 5),
                                   (3, 4, 5)], ids=lambda s: "%dx%d r%d" % s)
def test_a_float_analysis_is_never_screened(screens, reductions, shape, side):
    # no float pencil is screened; below the Eagon-Northcott gate (or in
    # CP^1) none is reduced modulo a prime either, and at the gate only the
    # Macaulay test reduces it
    m, n = shape[:2] if side == "A" else shape[1::-1]
    analyze_state(random_mixed(*shape, seed=1), side=side, samples=4)
    assert screens == []
    assert bool(reductions) == (m >= 3 and shape[2] - n + 1 >= m - 1)


def test_the_screen_runs_at_the_gate(screens):
    v = variety_of_state(random_separable(3, 3, 4, seed=1))
    assert len(screens) == 1 and v._generators is None


@pytest.mark.parametrize("shape", [(4, 4, 5), (4, 3, 4), (5, 3, 4), (4, 4, 4), (4, 3, 3),
                                   (5, 3, 3), (4, 2, 2)],
                         ids=lambda s: "sep %dx%d t%d" % s)
def test_an_exact_pencil_is_screened_exactly_where_t_exceeds_n(screens, shape):
    # t > n, below the Eagon-Northcott gate too: the peel can then settle
    # V without expanding a minor.  t = n: det N is expanded at build, as
    # the line peel reads it in any number of variables
    v = variety_of_state(random_separable(*shape, seed=1))
    past_square = shape[2] > shape[1]
    assert len(screens) == past_square and (v._generators is None) == past_square


def _duplicated(s):
    w, vec = s.ensemble[0]
    return BipartiteState(s.m, s.n, ensemble=[(w / 2, vec), (w / 2, vec), *s.ensemble[1:]],
                          validate=False)


def _rank_two_side_b(s, exact):
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    if exact:
        pair = LocalUnitaryPair(exact_matrix(np.identity(s.m, dtype=int).tolist()),
                                exact_matrix([[EC(x) for x in r] for r in rows]),
                                validate=False)
    else:
        pair = LocalUnitaryPair(np.identity(s.m, dtype=complex),
                                np.asarray(rows, dtype=complex), validate=False)
    return apply_local_unitary(s, pair)


EDGE_STATES = {
    "maxmixed 2x2": lambda: catalog.maximally_mixed(2, 2),
    # n = 1: every minor is one of the coordinates, nonzero and a monomial
    "maxmixed 3x1": lambda: catalog.maximally_mixed(3, 1),
    "maxmixed 3x3": lambda: catalog.maximally_mixed(3, 3),
    "maxmixed 3x4": lambda: catalog.maximally_mixed(3, 4),
    "duplicated exact 3x3 t5": lambda: _duplicated(random_separable(3, 3, 4, seed=1)),
    "duplicated float 3x4 t6": lambda: _duplicated(random_mixed(3, 4, 5, seed=1)),
    "rank-2 side B exact 3x3 t5": lambda: _rank_two_side_b(gaussian_integer_state(3, 3, 5, 4),
                                                           True),
    "rank-2 side B float 3x3 t5": lambda: _rank_two_side_b(random_mixed(3, 3, 5, seed=0),
                                                           False),
    "separable 3x3 t6": lambda: random_separable(3, 3, 6, seed=2),
    "mixed 3x3 t6": lambda: random_mixed(3, 3, 6, seed=2),
    "separable 4x5 t8": lambda: random_separable(4, 5, 8, seed=0),
    "mixed 4x5 t8": lambda: random_mixed(4, 5, 8, seed=0),
    "separable 2x3 t3": lambda: random_separable(2, 3, 3, seed=2),
    "gaussian 3x3 t4": lambda: gaussian_integer_state(3, 3, 4, 7),
    # m = 4 below the gate: t = n is expanded at build, for the line peel;
    # t > n is screened and left unexpanded by the peel too
    "gaussian 4x4 t4": lambda: gaussian_integer_state(4, 4, 4, 1),
    "gaussian 4x4 t5": lambda: gaussian_integer_state(4, 4, 5, 1),
}


FLOAT_EDGE_STATES = {"duplicated float 3x4 t6", "mixed 3x3 t6", "mixed 4x5 t8",
                     "rank-2 side B float 3x3 t5"}

# the (state, side) pairs whose minors are left unexpanded: every float
# pencil, and the exact ones the screen passes; the other exact ones have
# a zero minor (duplicated rays, product rays of the maximally mixed state,
# an exactly rank-deficient pencil), only monomial minors (maximally mixed
# 3x1), lie in CP^1 or are square
SCREENED = {
    *((name, side) for name in (*FLOAT_EDGE_STATES, "gaussian 3x3 t4", "separable 3x3 t6",
                                "separable 4x5 t8", "gaussian 4x4 t5")
      for side in "AB"),
    ("rank-2 side B exact 3x3 t5", "B"), ("separable 2x3 t3", "B"),
}

# float pencils of numerical rank below n: every float minor is rounding
# noise, which the numerical count reads as zero
NOISE_MINORS = {("rank-2 side B float 3x3 t5", "A")}


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("name", sorted(EDGE_STATES))
def test_screened_counts_are_those_of_the_expanded_minors(name, side):
    v = variety_of_state(EDGE_STATES[name](), side)
    assert (v.mode == "approx") == (name in FLOAT_EDGE_STATES)
    assert (v._generators is None) == ((name, side) in SCREENED)
    count, essential = v.generator_count, v.essential_count
    if v.mode == "exact":
        gens = v.generators  # forces the expansion
    else:
        with pytest.raises(FloatMinors):
            v.generators
        gens = pencil_minors(v.pencil)
    nonzero = [g for g in gens if not g.is_zero()]
    assert count == len(gens)
    if (name, side) in NOISE_MINORS:
        assert essential == 0 < len(nonzero)
        assert max(abs(c) for g in gens for c in g.terms.values()) < 1e-12
    else:
        assert essential == len(nonzero)
    assert all(g.degree() == v.n for g in nonzero)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 4, 4), (4, 4, 4), (4, 4, 5), (2, 3, 3),
                                   (3, 4, 5)], ids=lambda s: "%dx%d r%d" % s)
@pytest.mark.parametrize("duplicated", [False, True], ids=["rays", "duplicated"])
def test_float_count_is_that_of_the_float_minors(shape, side, duplicated):
    # the benchmark's float shapes: a minor counts where the float minor is
    # nonzero, and a duplicated ray zeroes every minor that takes both copies
    for seed in range(4):
        state = random_mixed(*shape, seed=seed)
        v = variety_of_state(_duplicated(state) if duplicated else state, side)
        assert v._generators is None
        assert v.essential_count == sum(not g.is_zero() for g in pencil_minors(v.pencil))
        if duplicated:
            assert v.essential_count < v.generator_count


EMPTY_AS_GIVEN = "criterion vacuous: V is empty for the ensemble as given"


@pytest.mark.parametrize("m, n, side, reason, degree", [
    (2, 2, "A", "criterion vacuous: V lies in CP^1", None),
    (2, 2, "B", "criterion vacuous: V lies in CP^1", None),
    (3, 3, "A", EMPTY_AS_GIVEN, 4), (3, 3, "B", EMPTY_AS_GIVEN, 4),
    (3, 4, "A", EMPTY_AS_GIVEN, 5), (3, 4, "B", EMPTY_AS_GIVEN, 4),
    (3, 1, "A", EMPTY_AS_GIVEN, 2), (3, 1, "B", "criterion vacuous: V lies in CP^0", None),
], ids=["2x2-A", "2x2-B", "3x3-A", "3x3-B", "3x4-A", "3x4-B", "3x1-A", "3x1-B"])
def test_a_float_maximally_mixed_state_is_never_empty(m, n, side, reason, degree):
    # its minors are monomials that leave no point, but a float V is never
    # tagged Empty: the dimension verdict says what holds for the ensemble
    # as given
    v = variety_of_state(float_copy(catalog.maximally_mixed(m, n)), side)
    assert v.mode == "approx" and v.structural is None
    verdict = linearity_decide(v)
    assert (verdict.tag, verdict.reason) == ("Inconclusive", reason)
    assert verdict.certificate == (degree and variety_mod.FiniteCertificate(
        "macaulay", prime=v.pencil.mod_p()[0], degree=degree))


@pytest.mark.parametrize("shape, reason", [
    ((3, 3, 5), "criterion vacuous: V is all of CP^2 to working precision"),
    ((3, 3, 3), "criterion vacuous: V is all of CP^2 to working precision"),
    ((2, 3, 4), "criterion vacuous: V lies in CP^1"),
], ids=["3x3 t5", "3x3 t3", "2x3 t4"])
def test_a_float_v_whose_minors_vanish_is_never_full(shape, reason):
    # a side-B map with a zero row zeroes a row of the pencil, so every
    # float minor is exactly 0; no structural Full is read off them, and
    # the dimension verdict speaks for V
    pair = LocalUnitaryPair(np.identity(shape[0], dtype=complex),
                            np.asarray([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=complex),
                            validate=False)
    v = variety_of_state(apply_local_unitary(random_mixed(*shape, seed=0), pair))
    assert v.structural is None and v.essential_count == 0
    assert all(g.is_zero() for g in pencil_minors(v.pencil))
    verdict = linearity_decide(v)
    assert (verdict.tag, verdict.reason, verdict.certificate) == ("Inconclusive", reason, None)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("name", sorted(set(EDGE_STATES) - FLOAT_EDGE_STATES))
def test_lazy_report_equals_the_eager_one(monkeypatch, name, side):
    def report():
        rep = analyze_state(EDGE_STATES[name](), side=side, samples=4)
        del rep["runtime_seconds"]
        return render_json(rep)

    lazy = report()
    monkeypatch.setattr(variety_mod, "_minor_screen", lambda p: False)
    assert lazy == report()


def _benchmark_ops(workload, prefix, tmp_path):
    """The operations of the benchmark's seed-301 corpus whose label starts
    with `prefix`, built by perfbench/workloads.py itself."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = [op for op in workloads.build_corpus(workload, 301, workloads.RUN_SECONDS, tmp_path)
           if op.label.startswith(prefix)]
    assert ops
    return ops


def test_benchmark_4x4_r5_gaussian_analyses_build_no_minor(no_minors, tmp_path):
    # t = 5: the Cauchy-Binet certificate settles the peel; the report
    # reads no Hesse cubic
    ops = _benchmark_ops("exact_witness", "gaussian 4x4 r5", tmp_path)
    for op in ops:
        rendered, problems, _ = op.check(op.call())
        assert not problems


@pytest.fixture
def essential_calls(monkeypatch):
    """Record every pencil whose nonzero minors are counted numerically."""
    seen = []
    real = variety_mod._numerical_essential

    def spy(p):
        seen.append(p)
        return real(p)

    monkeypatch.setattr(variety_mod, "_numerical_essential", spy)
    return seen


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 4, 4)], ids=["3x3 r3", "3x4 r4"])
def test_a_float_covariance_check_counts_no_minor(essential_calls, shape):
    # two varieties per check, and nothing reads their counts
    pair = random_local_unitary(shape[0], shape[1], seed=3)
    result = variety_mod.verify_lu_covariance(random_mixed(*shape, seed=2), pair, samples=3)
    assert result.ok and essential_calls == []


def test_a_float_analysis_counts_its_minors_once(essential_calls):
    rep = analyze_state(random_mixed(3, 4, 5, seed=2), samples=4)
    assert len(essential_calls) == 1 and rep["generators"]["essential"] == 5

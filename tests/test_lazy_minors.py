"""Symbolic minors are built only when something reads them.

Where a certificate can fire on the minors (m >= 3 and t - n + 1 >= m - 1)
``variety_generators`` screens the pencil modulo a prime instead of
expanding it; the Macaulay certificate reads the reduced pencil too.
The screen also runs on every float pencil, whose sampler and oracles
read the pencil itself.  These tests pin that a certified state and a
float analysis build no minor, that the screen stays out of the exact
shapes the sampler needs every minor for, and that the counts a report
prints from the screen are those of the expanded minors:
on edge states the lazy report equals, byte for byte, the report of the
same analysis with the screen switched off.
"""

import random
import sys
from fractions import Fraction

import pytest

import detvar.multipoly as multipoly
import detvar.variety as variety_mod
from detvar import catalog
from detvar.linalg import Matrix
from detvar.report import analyze_state, render_json
from detvar.scalars import ExactComplex
from detvar.states import (
    BipartiteState,
    LocalUnitaryPair,
    apply_local_unitary,
    random_mixed,
    random_separable,
)
from detvar.variety import variety_of_state
from test_golden import CASES, GOLDEN, rendered_report

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
    lambda: random_separable(3, 4, 4, seed=1),   # t - n + 1 = 1 < m - 1
    lambda: random_separable(4, 4, 5, seed=1),   # 2 < 3
    lambda: random_separable(2, 2, 3, seed=1),   # m <= 2: cheap minors, no certificate on them
    lambda: random_separable(2, 3, 4, seed=1),
    lambda: catalog.maximally_mixed(2, 2),
], ids=["sep 3x4 t4", "sep 4x4 t5", "sep 2x2 t3", "sep 2x3 t4", "maxmixed 2x2"])
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


def test_the_screen_runs_at_the_gate(screens):
    v = variety_of_state(random_separable(3, 3, 4, seed=1))
    assert len(screens) == 1 and v._generators is None


def _duplicated(s):
    w, vec = s.ensemble[0]
    return BipartiteState(s.m, s.n, ensemble=[(w / 2, vec), (w / 2, vec), *s.ensemble[1:]],
                          validate=False)


def _rank_two_side_b(s, exact):
    rows = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    if exact:
        pair = LocalUnitaryPair(Matrix.identity(s.m), Matrix.exact([[EC(x) for x in r]
                                                                    for r in rows]),
                                validate=False)
    else:
        pair = LocalUnitaryPair(Matrix.identity(s.m).to_approx(), Matrix.approx(rows),
                                validate=False)
    return apply_local_unitary(s, pair)


def _gaussian_state(m, n, t, seed):
    rng = random.Random(seed)
    ensemble = [(F(1, t), tuple(EC(rng.randint(-3, 3), rng.randint(-3, 3))
                                for _ in range(m * n)))
                for _ in range(t)]
    return BipartiteState(m, n, ensemble=ensemble)


EDGE_STATES = {
    "maxmixed 2x2": lambda: catalog.maximally_mixed(2, 2),
    # n = 1: every minor is one of the coordinates, nonzero and a monomial
    "maxmixed 3x1": lambda: catalog.maximally_mixed(3, 1),
    "maxmixed 3x3": lambda: catalog.maximally_mixed(3, 3),
    "maxmixed 3x4": lambda: catalog.maximally_mixed(3, 4),
    "duplicated exact 3x3 t5": lambda: _duplicated(random_separable(3, 3, 4, seed=1)),
    "duplicated float 3x4 t6": lambda: _duplicated(random_mixed(3, 4, 5, seed=1)),
    "rank-2 side B exact 3x3 t5": lambda: _rank_two_side_b(_gaussian_state(3, 3, 5, 4), True),
    "rank-2 side B float 3x3 t5": lambda: _rank_two_side_b(random_mixed(3, 3, 5, seed=0),
                                                           False),
    "separable 3x3 t6": lambda: random_separable(3, 3, 6, seed=2),
    "mixed 3x3 t6": lambda: random_mixed(3, 3, 6, seed=2),
    "separable 4x5 t8": lambda: random_separable(4, 5, 8, seed=0),
    "mixed 4x5 t8": lambda: random_mixed(4, 5, 8, seed=0),
    "separable 2x3 t3": lambda: random_separable(2, 3, 3, seed=2),
    "gaussian 3x3 t4": lambda: _gaussian_state(3, 3, 4, 7),
}


# the (state, side) pairs whose minors the screen leaves unexpanded; the
# others have a zero minor (duplicated rays, product rays of the maximally
# mixed state, an exactly rank-deficient pencil), only monomial minors
# (maximally mixed 3x1) or lie below the gate
SCREENED = {
    *((name, side) for name in ("gaussian 3x3 t4", "mixed 3x3 t6", "mixed 4x5 t8",
                                "rank-2 side B float 3x3 t5", "separable 3x3 t6",
                                "separable 4x5 t8") for side in "AB"),
    ("rank-2 side B exact 3x3 t5", "B"), ("separable 2x3 t3", "B"),
}


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("name", sorted(EDGE_STATES))
def test_screened_counts_are_those_of_the_expanded_minors(name, side):
    v = variety_of_state(EDGE_STATES[name](), side)
    assert (v._generators is None) == ((name, side) in SCREENED)
    count, essential = v.generator_count, v.essential_count
    gens = v.generators  # forces the expansion
    assert count == len(gens)
    assert essential == len(v.essential_generators)
    assert all(g.degree() == v.n for g in v.essential_generators)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("name", sorted(EDGE_STATES))
def test_lazy_report_equals_the_eager_one(monkeypatch, name, side):
    def report():
        rep = analyze_state(EDGE_STATES[name](), side=side, samples=4)
        del rep["runtime_seconds"]
        return render_json(rep)

    lazy = report()
    monkeypatch.setattr(variety_mod, "_minor_screen", lambda p: False)
    assert lazy == report()

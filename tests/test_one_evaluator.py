"""The pencil is the only evaluator of V.

A point lies on V_A exactly when rank N(r) < n, so every oracle, sampler
and analysis reads the pencil N(r) = sum_i r_i A_i, never a compiled or
expanded minor:
- with ``CompiledSystem`` made to raise, every golden state analyses to the
  same report on both sides, and local-unitary covariance still holds on a
  float and an exact state;
- with ``minors`` made to raise, exact-point membership on a screened
  exact V (whose minors were never expanded) agrees with the exact values
  of its minors, computed before the patch, on and off V.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import detvar.multipoly as multipoly_mod
import detvar.variety as variety_mod
from detvar.catalog import cyclic_cubic_state
from detvar.linalg import exact_matrix
from detvar.report import analyze_state
from detvar.scalars import ExactComplex
from detvar.statefile import load_state
from detvar.states import (
    LocalUnitaryPair,
    random_local_unitary,
    random_mixed,
    random_separable,
)
from detvar.variety import membership, variety_of_state, verify_lu_covariance
from pinned import GOLDEN
from shared_states import cross

STATES = sorted(GOLDEN.glob("*.state.json"))
EC = ExactComplex


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} was called")
    return refuse


def _report(path, side):
    report = analyze_state(load_state(str(path)), side=side, seed=42)
    del report["runtime_seconds"]
    return report


@pytest.mark.parametrize("side", "AB")
@pytest.mark.parametrize("path", STATES, ids=lambda p: p.name.split(".")[0])
def test_analysis_compiles_no_system(monkeypatch, path, side):
    want = _report(path, side)
    monkeypatch.setattr(multipoly_mod.CompiledSystem, "__init__", _refuse("CompiledSystem"))
    assert _report(path, side) == want


def test_covariance_compiles_no_system(monkeypatch):
    monkeypatch.setattr(multipoly_mod.CompiledSystem, "__init__", _refuse("CompiledSystem"))
    res = verify_lu_covariance(random_mixed(3, 3, 3, seed=71), random_local_unitary(3, 3, seed=72),
                               samples=4, seed=42)
    assert res and res.checked > 0
    # an exact state under an exact unitary: a cyclic permutation of side A
    cycle = exact_matrix([[EC(int(j == (i + 1) % 3)) for j in range(3)] for i in range(3)])
    identity = exact_matrix(np.identity(3, dtype=int).tolist())
    res = verify_lu_covariance(cyclic_cubic_state(EC(8)),
                               LocalUnitaryPair(cycle, identity), samples=3, seed=42)
    assert res and res.checked > 0


def _points_on_and_off(v, rng):
    """25 exact points on V and 25 random exact points.  The state is
    separable, so pencil column l is (a_l . r) b_l, and rank N(r) < 3
    wherever r is bilinearly orthogonal to two of the a_l: at the cross
    product of two columns' coefficient vectors, scaled."""
    columns = []
    for l in range(v.pencil.t):
        columns.append(next(row[l] for row in v.pencil.coeffs.tolist()
                            if any(not c.is_zero() for c in row[l])))
    crosses = [cross(columns[i], columns[j])
               for i in range(len(columns)) for j in range(i + 1, len(columns))]

    def scaled(point):
        c = EC(Fraction(rng.randint(1, 9), rng.randint(1, 4)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        return [c * x for x in point]

    on = [scaled(crosses[k % len(crosses)]) for k in range(25)]
    off = [[EC(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(v.m)] for _ in range(25)]
    return on + off


def test_exact_membership_expands_no_minor(monkeypatch):
    v = variety_of_state(random_separable(3, 3, 4, seed=0))
    assert v.mode == "exact" and v._generators is None  # screened: no minor built
    gens = [g for g in multipoly_mod.minors(v.pencil.entry_polys(), v.n) if not g.is_zero()]
    points = _points_on_and_off(v, random.Random(3))
    want = [all(g.evaluate(p).is_zero() for g in gens) for p in points]
    assert 10 <= sum(want) <= 40
    monkeypatch.setattr(multipoly_mod, "minors", _refuse("minors"))
    monkeypatch.setattr(variety_mod, "minors", _refuse("minors"))
    assert [membership(v, p) for p in points] == want
    assert v._generators is None

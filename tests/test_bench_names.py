"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps detvar
functions by name, listed in ``perfbench/spans.py``, and reads some of
their arguments and results.  A rename or a changed contract would break
it without failing anything else, so the names are checked here."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from detvar.multipoly import CompiledSystem
from detvar.scalars import DEFAULT_TOL
from detvar.states import random_separable
from detvar.variety import _analysis_system, _newton_polish, sample_points, variety_of_state

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _listed(name: str):
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


@pytest.mark.parametrize("listing", ["TRACED", "COUNTED"])
def test_wrapped_names_resolve(listing):
    names = _listed(listing)
    assert names
    for mod, qualname in names:
        obj = importlib.import_module(f"detvar.{mod}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"detvar.{mod}.{qualname}"


def test_sample_points_takes_count_second():
    # the sampling tally reads `count` from args[1] or from the keyword
    params = list(inspect.signature(sample_points).parameters)
    assert params[1] == "count"


def test_newton_polish_returns_none_or_a_point():
    # the convergence tally counts results that are not None
    # nothing is peeled off these minors: the system is V's own minors
    v = variety_of_state(random_separable(3, 3, 4, seed=2), "B")
    assert _analysis_system(v) == ([], None, None)
    system = CompiledSystem(v.essential_generators, v.m)
    point = sample_points(v, 1, seed=5)[0]
    near = [z + 1e-4 * (1 + 1j) for z in point]
    polished = _newton_polish(system, near, DEFAULT_TOL)
    assert isinstance(polished, tuple) and len(polished) == v.m
    assert v.generator_residual(polished) < DEFAULT_TOL.abs_eps
    far = [1.0 + 0j, 0.3 - 2j, -0.7 + 0.1j, 2.0 + 1j][:v.m]
    result = _newton_polish(system, far, DEFAULT_TOL)
    assert result is None or (isinstance(result, tuple) and len(result) == v.m)


"""An analysis reads only exact polynomials.

A float state is decided on its pencil: its analysis, whether the state
comes as a float ensemble or as a density, on either side, for t = n and
for t > n, and its covariance check build no ``Poly`` of the approximate
kind, and neither does any demo.  A float variety has no symbolic
minors: reading them raises FloatMinors.  ``Poly.evaluate`` and
``restrict_to_line`` refuse float input (``test_multipoly`` and
``test_multipoly_reference``).
"""

import runpy

import pytest

from detvar.errors import FloatMinors
from detvar.multipoly import Poly
from detvar.report import analyze_state
from detvar.states import BipartiteState, random_local_unitary, random_mixed
from detvar.variety import variety_of_state, verify_lu_covariance
from pinned import DEMOS
from shared_states import SHAPES


@pytest.fixture
def float_polys(monkeypatch):
    """The kinds of the approximate Polys built while the test runs."""
    built = []
    real = Poly.__init__

    def counting(self, nvars, terms, kind="exact"):
        if kind != "exact":
            built.append(kind)
        real(self, nvars, terms, kind)

    monkeypatch.setattr(Poly, "__init__", counting)
    return built


def _density_only(s):
    return BipartiteState(s.m, s.n, density=s.density_matrix())


@pytest.mark.parametrize("side", "AB")
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("given", ["ensemble", "density"])
def test_a_float_analysis_builds_no_float_poly(float_polys, given, shape, side):
    state = random_mixed(*SHAPES[shape], seed=5)
    if given == "density":
        state = _density_only(state)
    report = analyze_state(state, side=side, samples=4)
    assert report["mode"] == "approx" and report["generators"]["essential"] > 0
    assert float_polys == []


def test_a_float_covariance_check_builds_no_float_poly(float_polys):
    state = random_mixed(3, 3, 3, seed=2)
    result = verify_lu_covariance(state, random_local_unitary(3, 3, seed=3), samples=3)
    assert result.ok and result.checked > 0
    assert float_polys == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_a_demo_builds_no_float_poly(float_polys, capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    assert float_polys == []


@pytest.mark.parametrize("rank", [2, 3, 5], ids=["t < n", "t = n", "t > n"])
def test_a_float_variety_has_no_symbolic_minors(rank):
    v = variety_of_state(random_mixed(3, 3, rank, seed=1))
    assert v.mode == "approx"
    for read in (lambda: v.generators, lambda: v.essential_generators,
                 v.pencil.entry_polys):
        with pytest.raises(FloatMinors):
            read()
    assert v.essential_count == (0 if rank < 3 else v.generator_count)

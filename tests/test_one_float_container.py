"""A float matrix is a complex numpy array; an exact one holds Q(i) only.

A float state, whether it comes as a float ensemble or as a density read
from a state file, is analysed on either side, for t = n and for t > n,
without building a single exact matrix (``exact_matrix``, once a
``Matrix``): its density, partial traces, eigenvectors and Hermitian forms
are complex arrays from the point where they are made.  Its covariance
check under a random local unitary builds none either.
"""

import pytest

from detvar import catalog, linalg, statefile, states, variety
from detvar.report import analyze_state
from detvar.scalars import ExactComplex
from detvar.statefile import parse_state, state_to_json
from detvar.states import BipartiteState, random_local_unitary, random_mixed
from detvar.variety import verify_lu_covariance


@pytest.fixture
def matrices(monkeypatch):
    """The shapes of the exact matrices built while the test runs."""
    built = []
    real = linalg.exact_matrix

    def counting(rows):
        out = real(rows)
        built.append(out.shape)
        return out

    for module in (linalg, states, statefile, variety, catalog):
        if hasattr(module, "exact_matrix"):
            monkeypatch.setattr(module, "exact_matrix", counting)
    return built


def test_the_count_sees_an_exact_analysis(matrices):
    # the counter is live: an exact density read from a file builds one
    state = catalog.cyclic_cubic_state(ExactComplex(8))
    parse_state(state_to_json(BipartiteState(3, 3, density=state.density_matrix())))
    assert (9, 9) in matrices


# (m, n, rank): t = n on both sides, and t > n on both sides
SHAPES = {"3x3 r3": (3, 3, 3), "3x4 r5": (3, 4, 5)}


@pytest.mark.parametrize("side", "AB")
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("given", ["ensemble", "density"])
def test_a_float_analysis_builds_no_matrix(matrices, given, shape, side):
    state = random_mixed(*SHAPES[shape], seed=5)
    if given == "density":
        state = parse_state(state_to_json(
            BipartiteState(state.m, state.n, density=state.density_matrix())))
        assert state.ensemble is None
    report = analyze_state(state, side=side, samples=4)
    assert report["mode"] == "approx" and report["generators"]["essential"] > 0
    assert matrices == []


def test_a_float_covariance_check_builds_no_matrix(matrices):
    state = random_mixed(3, 3, 3, seed=2)
    result = verify_lu_covariance(state, random_local_unitary(3, 3, seed=3), samples=3)
    assert result.ok and result.checked > 0
    assert matrices == []

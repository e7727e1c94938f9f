"""Built-once data behind per-point evaluation: the state's density and
swap, and the compiled generator system of a variety."""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import detvar.linalg as linalg_mod
import detvar.states as states_mod
from detvar.catalog import cyclic_cubic_state
from detvar.factorization import linear_factorization
from detvar.multipoly import CompiledSystem, LinearForm, Poly
from detvar.scalars import DEFAULT_TOL, ExactComplex
from detvar.report import analyze_state
from detvar.statefile import load_state, parse_state, state_to_json
from detvar.states import BipartiteState, random_mixed, random_separable
from detvar.variety import (
    _analysis_system,
    membership,
    nonlinearity_witness,
    pencil_matrix,
    sample_points,
    variety_generators,
    variety_of_state,
)

EC = ExactComplex
F = Fraction
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def test_density_is_built_once_per_state(monkeypatch):
    calls = Counter()
    real = states_mod.density_from_ensemble

    def counting(s):
        calls[id(s)] += 1
        return real(s)

    monkeypatch.setattr(states_mod, "density_from_ensemble", counting)
    # side A (t = n) and side B (m = 4) both pass the finiteness certificate
    st = load_state(str(GOLDEN / "gaussian_3x4_r4.state.json"))
    for side in "AB":
        analyze_state(st, side=side, seed=7, samples=4)
    # both sides consulted the Hermitian oracle (st on A, st.swapped() on B)
    # at float points; it, the spectra and the PPT test read each state's
    # float image, summed on Gaussian integers: no exact density is built
    assert not calls


def test_density_is_decomposed_once_per_analysis(monkeypatch):
    # validation (PSD check), the spectral ensemble and the global spectrum
    # share one decomposition; the reduced spectra and the partial
    # transpose are other matrices
    calls = []
    real = linalg_mod.hermitian_eigen

    def counting(m, tol=DEFAULT_TOL):
        calls.append(m.rows)
        return real(m, tol)

    monkeypatch.setattr(linalg_mod, "hermitian_eigen", counting)
    monkeypatch.setattr(states_mod, "hermitian_eigen", counting)
    rho = states_mod.density_from_ensemble(random_mixed(3, 4, 4, seed=11))
    doc = state_to_json(BipartiteState(3, 4, density=rho, validate=False))
    report = analyze_state(parse_state(doc), samples=4)
    assert len(calls) == 4 and calls.count(12) == 2
    assert report["spectra"]["global"] == real(rho).eigenvalues


def test_swapped_and_density_are_memoized():
    st = random_separable(3, 4, 5, seed=3)
    assert st.swapped() is st.swapped()
    assert st.density_matrix() is st.density_matrix()
    assert st.swapped().density_matrix() is st.swapped().density_matrix()


def test_variety_generators_of_a_pencil_knows_its_state():
    st = cyclic_cubic_state(EC(8))
    v = variety_generators(pencil_matrix(st))
    assert v.state is st
    assert membership(v, [EC(0), EC(1), EC(-1)])
    assert nonlinearity_witness(v, samples=4, seed=42).tag == "NonlinearWitness"
    vb = variety_generators(pencil_matrix(st, "B"))
    assert vb.state is st and vb.side == "B"
    assert vb.hermitian_residual(sample_points(vb, 1, seed=3)[0]) < 1e-9


def _peeled_residual() -> Poly:
    line = LinearForm([EC(1), EC(2, 1), EC(-1)], EC(0)).to_poly(3)
    x, y, z = (Poly.variable(i, 3) for i in range(3))
    conic = x * x + y * z + Poly.const(3, EC(3, -1)) * z * z
    fl = linear_factorization(line * conic)
    assert len(fl.linear_factors) == 1 and fl.residual.degree() == 2
    return fl.residual


_X, _Y, _Z = (Poly.variable(i, 3) for i in range(3))
SYSTEMS = {
    "exact cubic": lambda: variety_of_state(cyclic_cubic_state(EC(8))).essential_generators,
    "exact minors": lambda: variety_of_state(random_separable(3, 3, 4, seed=2),
                                             "B").essential_generators,
    "approx minors": lambda: variety_of_state(
        random_mixed(3, 4, 5, seed=4)).essential_generators,
    "peeled residual": lambda: [_peeled_residual()],
    "missing a variable": lambda: [_X * _X * _Z + Poly.const(3, EC(F(1, 3), 2)) * _Z * _Z * _Z],
    "constant term": lambda: [_X * _Y + Poly.const(3, EC(-2, F(1, 7))), Poly.const(3, EC(5))],
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_compiled_system_equals_poly_evaluation(name):
    polys = SYSTEMS[name]()
    m = polys[0].nvars
    cs = CompiledSystem(polys, m)
    rng = random.Random(17)
    points = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)]
              for _ in range(40)]
    points.append([0j] + [complex(1.5, -0.25)] * (m - 1))
    points.append([EC(1), EC(F(-1, 3), 2)] + [EC(0, 1)] * (m - 2))
    for raw in points:
        # Poly.evaluate is exact on an exact point; the compiled form, like
        # evaluation_scale, works on its floating-point image
        pt = [x.to_complex() if isinstance(x, EC) else x for x in raw]
        assert cs.values_scales(raw) == cs.values_scales(pt)
        vals, scales = cs.values_scales(pt)
        assert vals == [g.evaluate(pt) for g in polys]
        assert scales == [g.evaluation_scale(pt) for g in polys]
        assert cs.residual(pt) == max(
            abs(g.evaluate(pt)) / max(g.evaluation_scale(pt), 1e-300) for g in polys)
        approx = [g.to_approx() for g in polys]
        partials = [[ga.derivative(i) for i in range(m)] for ga in approx]
        assert cs.jacobian(pt, range(m)) == [
            [d.evaluate(pt) / max(ga.evaluation_scale(pt), 1e-300) for d in ds]
            for ga, ds in zip(approx, partials)]
        assert cs.jacobian(pt, [m - 1, 0]) == [
            [ds[m - 1].evaluate(pt) / max(ga.evaluation_scale(pt), 1e-300),
             ds[0].evaluate(pt) / max(ga.evaluation_scale(pt), 1e-300)]
            for ga, ds in zip(approx, partials)]
        for k, ds in enumerate(partials):
            grad, gscale = cs.gradient(k, pt)
            assert grad == [d.evaluate(pt) for d in ds]
            assert gscale == max(max(d.evaluation_scale(pt) for d in ds), 1e-300)


def test_empty_compiled_system():
    cs = CompiledSystem([], 3)
    assert cs.values_scales([1j, 2, 3]) == ([], [])
    assert cs.residual([1j, 2, 3]) == 0.0


def test_analysis_system_is_compiled_once():
    # nothing is peeled off an approximate variety: the analysis system is
    # the variety's own compiled generators
    v = variety_of_state(random_mixed(3, 4, 5, seed=4))
    _, system = _analysis_system(v)
    assert system is v.compiled and system.polys == v.essential_generators
    assert _analysis_system(v)[1] is system
    # the exact split of a hypersurface compiles its residual
    w = variety_of_state(cyclic_cubic_state(EC(8)))
    _, residual = _analysis_system(w)
    assert residual.polys == [w._factor_list.residual]

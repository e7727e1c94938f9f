"""Built-once data behind per-point evaluation: the state's density and
swap, the compiled generator system, and a variety's exact peel."""

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest

import detvar.linalg as linalg_mod
import detvar.states as states_mod
import detvar.variety as variety_mod
from detvar.catalog import cyclic_cubic_state
from detvar.factorization import linear_factorization
from detvar.multipoly import CompiledSystem, LinearForm, Poly
from detvar.linalg import hermitian_eigen
from detvar.scalars import DEFAULT_TOL, ExactComplex, Tolerance
from detvar.report import analyze_state
from detvar.statefile import load_state, parse_state, state_to_json
from detvar.states import BipartiteState, random_mixed, random_separable
from detvar.variety import (
    Variety,
    _analysis_system,
    _witness_search,
    linearity_decide,
    membership,
    pencil_matrix,
    sample_points,
    variety_of_state,
)
from oracles.arrays import bits
from oracles.polys import evaluate, pencil_minors
from pinned import GOLDEN

EC = ExactComplex
F = Fraction


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


def _spy_on_decompositions(monkeypatch):
    """The sizes of the matrices of each stacked decomposition a state
    makes, and (size, id) of each full decomposition read."""
    stacks, full = [], []
    real_stack, real_eigen = states_mod.eigh_stack, linalg_mod.Decomposition.eigen

    def counting(mats):
        stacks.append([len(m) for m in mats])
        return real_stack(mats)

    def counting_full(self, tol=DEFAULT_TOL):
        result = real_eigen(self, tol)
        full.append((len(result.eigenvalues), id(result)))
        return result

    monkeypatch.setattr(states_mod, "eigh_stack", counting)
    monkeypatch.setattr(linalg_mod.Decomposition, "eigen", counting_full)
    return stacks, full


def test_density_is_decomposed_once_per_analysis(monkeypatch):
    # validation (PSD check), the spectral ensemble, the global spectrum and
    # the PPT test read one stacked decomposition of rho and rho^{T_A}; the
    # reduced spectra are other matrices (3x3 and 4x4, one call each)
    stacks, full = _spy_on_decompositions(monkeypatch)
    rho = states_mod.density_from_ensemble(random_mixed(3, 4, 4, seed=11))
    doc = state_to_json(BipartiteState(3, 4, density=rho, validate=False))
    report = analyze_state(parse_state(doc), samples=4)
    assert stacks == [[12, 12], [3], [4]]
    assert len(set(full)) == 1 and full[0][0] == 12
    assert report["spectra"]["global"] == hermitian_eigen(rho).eigenvalues


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(1e-7), Tolerance(1e-12)],
                         ids=["default", "1e-7", "1e-12"])
def test_a_density_is_decomposed_once_whatever_the_tolerance(monkeypatch, tol):
    # the file's validation decomposes rho at the default tolerance; the
    # analysis at another one reads the same decomposition, as the
    # tolerance only sets the Hermitian-defect check and the cutoffs
    stacks, full = _spy_on_decompositions(monkeypatch)
    s = load_state(str(GOLDEN / "mixed_density_4x4_r5.state.json"))
    report = analyze_state(s, tol=tol, samples=4)
    assert stacks == [[16, 16], [4, 4]]
    assert len(set(full)) == 1 and full[0][0] == 16
    assert report["spectra"]["global"] == hermitian_eigen(s.density, tol).eigenvalues


def _spy_on_gaussian_sums(monkeypatch) -> list:
    """The states whose Gaussian sum is built, one entry per sum."""
    summed = []
    real = BipartiteState._gaussian_sum.func
    spy = cached_property(lambda s: summed.append(s) or real(s))
    spy.__set_name__(BipartiteState, "_gaussian_sum")
    monkeypatch.setattr(BipartiteState, "_gaussian_sum", spy)
    return summed


@pytest.mark.parametrize("make", [
    lambda: cyclic_cubic_state(EC(8)), lambda: cyclic_cubic_state(EC(27)),
    lambda: load_state(str(GOLDEN / "gaussian_3x4_r4.state.json")),
    lambda: load_state(str(GOLDEN / "separable_3x4_t5.state.json"))],
    ids=["cyclic t^3 = 8", "cyclic t^3 = 27", "gaussian_3x4_r4", "separable_3x4_t5"])
def test_an_exact_side_b_sums_its_density_once(monkeypatch, make):
    # the swapped state takes the state's sum, permuted, and builds none
    summed = _spy_on_gaussian_sums(monkeypatch)
    st = make()
    analyze_state(st, side="B", seed=42, samples=4)
    assert summed == [st]


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.state.json")),
                         ids=lambda path: path.name.split(".")[0])
def test_a_swapped_state_has_the_images_it_would_build(path):
    st = load_state(str(path))
    sw = st.swapped()
    fresh = BipartiteState(st.n, st.m, ensemble=sw.ensemble, density=sw.density,
                           validate=False)
    if st.density is None and st.exact_ensemble:
        assert "_gaussian_sum" in vars(sw) and sw._gaussian_sum == fresh._gaussian_sum
    if st.density is not None:  # new[(j, i), (j', i')] = old[(i, j), (i', j')]
        m, n = st.m, st.n
        blocks = st.density.reshape(m, n, m, n).transpose(1, 0, 3, 2)
        assert bits(sw.density) == bits(blocks.reshape(m * n, m * n))
    assert [bits(x) for x in sw.float_images] == [bits(x) for x in fresh.float_images]


def test_a_swapped_separable_state_has_the_sum_it_would_build():
    for m in range(1, 6):
        for n in range(1, 6):
            for seed in range(4):
                st = random_separable(m, n, 1 + (seed + m * n) % 5, seed=seed)
                sw = st.swapped()
                fresh = BipartiteState(n, m, ensemble=sw.ensemble, validate=False)
                assert sw._gaussian_sum == fresh._gaussian_sum


def test_swapped_and_density_are_memoized():
    st = random_separable(3, 4, 5, seed=3)
    assert st.swapped() is st.swapped()
    assert st.density_matrix() is st.density_matrix()
    assert st.swapped().density_matrix() is st.swapped().density_matrix()


def test_variety_of_a_pencil_knows_its_state():
    st = cyclic_cubic_state(EC(8))
    v = Variety(pencil_matrix(st))
    assert v.state is st
    assert membership(v, [EC(0), EC(1), EC(-1)])
    assert _witness_search(v, 4, 42, DEFAULT_TOL).tag == "NonlinearWitness"
    vb = Variety(pencil_matrix(st, "B"))
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
    # a float V has no generators: its pencil's float minors, by the reference
    "approx minors": lambda: [
        g for g in pencil_minors(pencil_matrix(random_mixed(3, 4, 5, seed=4))) if not g.is_zero()],
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
        # the compiled form, like evaluation_scale, works on the point's
        # floating-point image; values are those of the float evaluation
        # Poly.evaluate had (kept in oracles.polys)
        pt = [x.to_complex() if isinstance(x, EC) else x for x in raw]
        assert cs.values_scales(raw) == cs.values_scales(pt)
        vals, scales = cs.values_scales(pt)
        assert vals == [evaluate(g, pt) for g in polys]
        assert scales == [g.evaluation_scale(pt) for g in polys]
        assert cs.residual(pt) == max(
            abs(evaluate(g, pt)) / max(g.evaluation_scale(pt), 1e-300) for g in polys)
        approx = [g.to_approx() for g in polys]
        partials = [[ga.derivative(i) for i in range(m)] for ga in approx]
        assert cs.jacobian(pt, range(m)) == [
            [evaluate(d, pt) / max(ga.evaluation_scale(pt), 1e-300) for d in ds]
            for ga, ds in zip(approx, partials)]
        assert cs.jacobian(pt, [m - 1, 0]) == [
            [evaluate(ds[m - 1], pt) / max(ga.evaluation_scale(pt), 1e-300),
             evaluate(ds[0], pt) / max(ga.evaluation_scale(pt), 1e-300)]
            for ga, ds in zip(approx, partials)]


def test_empty_compiled_system():
    cs = CompiledSystem([], 3)
    assert cs.values_scales([1j, 2, 3]) == ([], [])
    assert cs.residual([1j, 2, 3]) == 0.0


def test_analysis_system_is_peeled_once(monkeypatch):
    # nothing is peeled off these minors, certified with none expanded:
    # what remains is the variety's own minors, the same answer on every read
    v = variety_of_state(random_separable(3, 3, 4, seed=2), "B")
    assert _analysis_system(v) == ([], None, None) and "generators" not in vars(v)
    assert _analysis_system(v) is _analysis_system(v)
    # the exact split of a hypersurface leaves its residual, and a whole
    # analysis (decision, witness search and sampler) peels once
    peels = []
    real = variety_mod._peel_linear_factors
    monkeypatch.setattr(variety_mod, "_peel_linear_factors",
                        lambda w: peels.append(w) or real(w))
    w = variety_of_state(cyclic_cubic_state(EC(8)))
    assert linearity_decide(w, seed=42).tag == "NonlinearWitness"
    _, residual, fl = _analysis_system(w)
    assert residual == [fl.residual]
    assert peels == [w]

"""Dimension before sampling: the certificates of linearity_decide.

A finite V is a union of points, hence linear, and an empty V has no
points at all, so the criterion cannot fire on either.  In CP^1 (m <= 2) V
is finite unless it is all of CP^1.  For every m >= 3 and both kinds of
state, the Macaulay test modulo a prime certifies V empty (its minors have
no common zero) or finite (it misses an exact hyperplane, by the
projective dimension theorem); for m = 3 the hyperplane is a line, and the
binary minors there are decided by a gcd modulo the prime, recorded as the
rank in degree 2n - 1.  It runs only where Eagon-Northcott allows a finite
or empty V, t - n + 1 >= m - 1.  These tests pin which states are certified,
that a curve never is, nor a float pencil whose minors are rounding noise,
that the point at infinity of a line is checked, that every certificate
re-checks from the report and the state file alone, and that the sampler
the certificates now skip stays sound on its own.
"""

import itertools
import json
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import detvar.variety as variety_mod
from detvar.catalog import cyclic_cubic_state
from detvar.exactroots import ec_gcd, ec_trim
from detvar.modp import RANK_PRIME
from detvar.multipoly import restrict_to_line, univariate_coeffs
from detvar.scalars import DEFAULT_TOL, ExactComplex
from detvar.statefile import load_state, state_to_json
from detvar.report import analyze_state, verdict_to_json
from detvar.states import (
    BipartiteState,
    LocalUnitaryPair,
    apply_local_unitary,
    density_from_ensemble,
    random_local_unitary,
    random_mixed,
    random_separable,
)
from detvar.variety import (
    _dimension_verdict,
    _macaulay_certificate,
    _witness_search,
    linearity_decide,
    membership,
    sample_points,
    variety_of_state,
    verify_lu_covariance,
)
from oracles.modp import misses_line
from oracles.polys import pencil_minors
from pinned import GOLDEN
from shared_states import cross, side_a_factor

EC = ExactComplex
F = Fraction


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail if the analysis reaches the sampler or its peeled system."""

    def refuse(*args, **kwargs):
        raise AssertionError("a certified-finite V was sampled")

    monkeypatch.setattr(variety_mod, "_point_stream", refuse)
    monkeypatch.setattr(variety_mod, "_analysis_system", refuse)


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 3), (2, 2, 3), (2, 4, 4)])
def test_exact_cp1_variety_is_finite(no_sampling, shape):
    v = variety_of_state(random_separable(*shape, seed=11))
    verdict = linearity_decide(v, seed=42)
    assert verdict.tag == "Finite"
    assert verdict.conclusion == "inconclusive"
    assert verdict.certificate.kind == "ambient_dimension"
    assert verdict.certificate[1:] == (None, None, None)  # no hyperplane, prime or degree


@pytest.mark.parametrize("seed", [3, 8])
def test_approximate_cp1_variety_is_vacuous(no_sampling, seed):
    v = variety_of_state(random_mixed(2, 3, 3, seed=seed))
    assert v.mode == "approx"
    verdict = linearity_decide(v, seed=42)
    assert verdict.tag == "Inconclusive"
    assert verdict.reason == "criterion vacuous: V lies in CP^1"
    assert verdict.certificate is None


@pytest.mark.parametrize("state,tag", [
    (lambda: load_state(str(GOLDEN / "finite_v_3x3_r4.state.json")), "Finite"),
    (lambda: random_separable(3, 4, 5, seed=3), "Finite"),
    (lambda: random_separable(3, 3, 5, seed=4), "Empty"),
    (lambda: random_separable(3, 3, 4, seed=6), "Finite"),
], ids=["gaussian 3x3 r4", "separable 3x4 t5", "separable 3x3 t5", "separable 3x3 t4"])
def test_finite_plane_variety_is_certified(no_sampling, state, tag):
    # t - n + 1 > m - 1 tries Empty first (3x3 t5); otherwise V misses a
    # line, decided on binary minors and recorded in degree 2n - 1.  Each
    # certificate is re-checked with sympy from the state and the report
    # alone, not with the restriction and minors that produced it
    s = state()
    v = variety_of_state(s)
    verdict = linearity_decide(v, seed=42)
    assert verdict.tag == tag
    cert = verdict.certificate
    assert cert.kind == "macaulay" and cert.prime == RANK_PRIME
    if tag == "Empty":
        assert cert.hyperplane is None
    else:
        assert cert.degree == 2 * v.n - 1
    rank, columns = _recheck_macaulay(state_to_json(s), verdict_to_json(verdict)["certificate"])
    assert rank == columns


def test_a_line_through_v_at_infinity_is_rejected():
    # r = a_u x a_v annihilates a_u and a_v, so pencil columns u and v of
    # the separable state vanish there and r lies on V; a line whose
    # direction is r misses V at every affine point yet meets it at r
    st = random_separable(3, 4, 5, seed=3)
    v = variety_of_state(st)
    gens = v.essential_generators
    a_u = side_a_factor(st.ensemble[0][1], 3, 4)
    a_v = side_a_factor(st.ensemble[1][1], 3, 4)
    r = cross(a_u, a_v)
    assert membership(v, r)
    constant_gcd = 0
    for k in range(6):
        base = (EC(k + 1, 2), EC(-3, k), EC(F(5, 2), 1 - k))
        restrictions = [ec_trim(univariate_coeffs(restrict_to_line(g, base, r)))
                        for g in gens]
        assert all(len(c) <= v.n for c in restrictions)  # every top coefficient is g(r) = 0
        constant_gcd += len(reduce(ec_gcd, restrictions)) == 1
        assert not misses_line(gens, base, r)
    # the gcd alone would have certified these lines: only the point at
    # infinity tells them apart from a miss
    assert constant_gcd >= 4


@pytest.mark.parametrize("state", [
    lambda: cyclic_cubic_state(EC(27)),
    lambda: load_state(str(GOLDEN / "gaussian_3x4_r4.state.json")),
], ids=["t^3 = 27 cubic", "gaussian 3x4 r4"])
def test_a_curve_is_never_certified(state):
    # t = n: V is a plane curve and meets every line; the helper is called
    # with the gate of linearity_decide bypassed
    v = variety_of_state(state())
    assert v.m == 3 and v.pencil.t == v.n
    for seed in range(60):
        assert _macaulay_certificate(v, seed) is None


@pytest.mark.parametrize("shape,seed", [
    ((3, 3, 4), 42 + 97 * 5), ((3, 3, 4), 42 + 97 * 12),
    ((3, 3, 5), 42 + 97 * 6), ((3, 3, 5), 42 + 97 * 13),
    ((3, 4, 5), 3), ((3, 4, 5), 17),
])
def test_sampler_stays_silent_on_finite_separable_varieties(shape, seed):
    # the certificate now ends these analyses; the sampler path, called
    # directly, must still never turn them into a witness
    verdict = _witness_search(variety_of_state(random_separable(*shape, seed=seed)),
                              12, 42, DEFAULT_TOL)
    assert verdict.tag != "NonlinearWitness"


@pytest.mark.parametrize("state,tag", [
    (lambda: load_state(str(GOLDEN / "separable_4x4_t6.state.json")), "Finite"),
    (lambda: random_separable(4, 4, 6, seed=4), "Finite"),
    (lambda: load_state(str(GOLDEN / "gaussian_4x4_r7.state.json")), "Empty"),
    (lambda: random_separable(4, 4, 7, seed=2), "Empty"),
    (lambda: random_separable(4, 3, 5, seed=1), "Finite"),
], ids=["separable 4x4 t6", "separable 4x4 t6 seed 4", "gaussian 4x4 r7",
        "separable 4x4 t7", "separable 4x3 t5"])
def test_exact_variety_is_certified_modulo_a_prime(no_sampling, state, tag):
    v = variety_of_state(state())
    verdict = linearity_decide(v, seed=42)
    assert verdict.tag == tag
    assert verdict.conclusion == "inconclusive"
    cert = verdict.certificate
    assert cert.kind == "macaulay" and cert.prime == RANK_PRIME
    assert v.n + 1 <= cert.degree <= v.n + 3
    # Finite restricts to a hyperplane of CP^(m-1); Empty needs none
    assert (cert.hyperplane is None) == (tag == "Empty")
    assert cert.hyperplane is None or len(cert.hyperplane) == v.m - 1


@pytest.mark.parametrize("as_density", [False, True], ids=["ensemble", "density"])
@pytest.mark.parametrize("shape,what", [((3, 4, 5), "finite"), ((3, 3, 5), "empty"),
                                        ((4, 4, 6), "finite")])
@pytest.mark.parametrize("seed", [0, 1])
def test_float_finite_or_empty_variety_is_vacuous_and_unsampled(no_sampling, shape, what,
                                                                  seed, as_density):
    state = random_mixed(*shape, seed=seed)
    if as_density:
        state = BipartiteState(shape[0], shape[1], density=density_from_ensemble(state),
                               validate=False)
    verdict = analyze_state(state, seed=42)["verdict"]
    # a float state is never tagged Finite or Empty: the certificate holds
    # for the ensemble as given, not for the state it may approximate
    assert verdict["tag"] == "Inconclusive"
    assert verdict["reason"] == f"criterion vacuous: V is {what} for the ensemble as given"
    assert "no witness found" not in verdict["reason"]
    assert verdict["certificate"]["kind"] == "macaulay"


@pytest.mark.parametrize("m,t,seed", [
    pytest.param(3, 5, 0, id="0"), pytest.param(3, 5, 1, id="1"),
    *(pytest.param(m, t, seed, id=f"{m}x3_t{t}-{seed}")
      for m, t in ((3, 3), (4, 4), (5, 5)) for seed in (0, 1))])
def test_float_pencil_of_low_numerical_rank_is_not_certified(no_sampling, m, t, seed):
    # side-B map with rows r1, r2, r1 + r2: every pencil of the image has
    # rank <= 2, so its 3 x 3 minors vanish exactly and V is all of
    # CP^{m-1}; in floating point they are rounding noise instead of zero.
    # 3 x 3 t5 passes the Eagon-Northcott gate t - n + 1 >= m - 1, the
    # other shapes fall below it, where V could only be sampled
    rank_two = np.asarray([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=complex)
    pair = LocalUnitaryPair(np.identity(m, dtype=complex), rank_two, validate=False)
    v = variety_of_state(apply_local_unitary(random_mixed(m, 3, t, seed=seed), pair))
    assert v.mode == "approx" and v.structural is None
    assert max(abs(c) for g in pencil_minors(v.pencil) for c in g.terms.values()) < 1e-12
    verdict = linearity_decide(v, seed=42)
    assert verdict.tag == "Inconclusive"
    assert verdict.reason == f"criterion vacuous: V is all of CP^{m - 1} to working precision"
    assert verdict.certificate is None


@pytest.fixture
def macaulay_calls(monkeypatch):
    """Record every variety that reaches the Macaulay test."""
    calls = []
    real = variety_mod._macaulay_certificate

    def spy(v, *args, **kwargs):
        calls.append(v)
        return real(v, *args, **kwargs)

    monkeypatch.setattr(variety_mod, "_macaulay_certificate", spy)
    return calls


@pytest.mark.parametrize("name,tag", [("gaussian_4x4_r5", "NonlinearWitness"),
                                      ("ppt_4x6_rank7", "Inconclusive")])
def test_a_positive_dimensional_variety_never_reaches_the_macaulay_test(macaulay_calls,
                                                                        name, tag):
    # the golden 4x4 r5 variety is an entangled curve: t - n + 1 = 2 < m - 1
    v = variety_of_state(load_state(str(GOLDEN / f"{name}.state.json")))
    assert v.pencil.t - v.n + 1 < v.m - 1
    assert linearity_decide(v, seed=42).tag == tag
    assert macaulay_calls == []


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 4, 4), (4, 3, 3), (4, 3, 4), (4, 4, 4),
                                   (4, 4, 5), (4, 5, 6), (5, 3, 5), (5, 4, 6)])
@pytest.mark.parametrize("make", [random_separable, random_mixed], ids=["exact", "float"])
def test_shapes_below_the_gate_never_reach_the_macaulay_test(macaulay_calls, shape, make):
    v = variety_of_state(make(*shape, seed=3))
    assert v.pencil.t - v.n + 1 < v.m - 1
    assert _dimension_verdict(v, 42) is None
    assert macaulay_calls == []


def _recheck_macaulay(doc, cert):
    """(rank, columns) of the Macaulay matrix of a report's certificate
    (its JSON), rebuilt with sympy from that and the state's JSON document
    alone: the state's rays reduced modulo the prime, i sent to the square
    root of -1 the certificate names, on the hyperplane it names."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    p, degree, h = cert["prime"], cert["degree"], cert["hyperplane"]
    # a^((p-1)/4) for the least quadratic non-residue a
    root = next(pow(a, (p - 1) // 4, p) for a in range(2, p)
                if pow(a, (p - 1) // 2, p) == p - 1)

    def scalar(obj):
        if isinstance(obj, dict):
            re, im = F(obj["re"]), F(obj["im"])
        elif isinstance(obj, list):  # a float is the dyadic rational it stores
            re, im = F(obj[0]), F(obj[1])
        else:
            re, im = F(obj), F(0)
        z = re + root * im
        return z.numerator * pow(z.denominator, -1, p) % p

    m, n = doc["m"], doc["n"]
    vectors = [[scalar(x) for x in term["vector"]] for term in doc["ensemble"]]
    k = m if h is None else m - 1
    ys = sympy.symbols(f"y0:{k}")
    point = list(ys)
    if h is not None:  # H: x_{m-1} = sum_i h_i x_i
        point.append(sum(scalar(c) * y for c, y in zip(h, ys)))
    ring = GF(p)[ys]
    pencil = DomainMatrix([[ring.from_sympy(sympy.expand(
        sum(point[i] * vec[i * n + r] for i in range(m)))) for vec in vectors]
        for r in range(n)], (n, len(vectors)), ring)
    minors = [pencil.extract(list(range(n)), list(cols)).det()
              for cols in itertools.combinations(range(len(vectors)), n)]

    def monomials(d):
        return [tuple(c.count(j) for j in range(k))
                for c in itertools.combinations_with_replacement(range(k), d)]

    column = {e: j for j, e in enumerate(monomials(degree))}
    rows = []
    for g in minors:
        for a in monomials(degree - n):
            row = [0] * len(column)
            for e, c in g.terms():
                row[column[tuple(x + y for x, y in zip(a, e))]] = int(c) % p
            rows.append(row)
    field = GF(p)
    matrix = DomainMatrix([[field(x) for x in row] for row in rows],
                          (len(rows), len(column)), field)
    return matrix.rank(), len(column)


@pytest.mark.parametrize("name,tag", [("separable_4x4_t6", "Finite"),
                                      ("gaussian_4x4_r7", "Empty"),
                                      ("mixed_3x4_r5", "Inconclusive"),
                                      ("finite_v_3x3_r4", "Finite"),
                                      ("separable_3x4_t5", "Finite"),
                                      ("separable_3x3_t5", "Empty")])
def test_macaulay_certificate_reverifies_from_report_and_state_file(name, tag):
    report = json.loads((GOLDEN / f"{name}.report.json").read_text())
    assert report["verdict"]["tag"] == tag
    assert report["verdict"]["certificate"]["kind"] == "macaulay"
    rank, columns = _recheck_macaulay(json.loads((GOLDEN / f"{name}.state.json").read_text()),
                                      report["verdict"]["certificate"])
    assert rank == columns



N1_VACUOUS = ("criterion vacuous: n = 1, so every minor is a linear form "
              "and V is a linear subspace")


@pytest.mark.parametrize("make,tag", [
    *((lambda seed, shape=shape: random_separable(*shape, seed=seed), "Inconclusive")
      for shape in ((4, 1, 2), (5, 1, 2), (5, 1, 3))),
    (lambda seed: random_mixed(3, 1, 1, seed=seed), "Inconclusive"),
    (lambda seed: BipartiteState(3, 1, ensemble=[(1.0, (1, 2j, 3 + seed))]), "Inconclusive"),
    # certificates that fire before the witness search stay
    (lambda seed: random_separable(3, 1, 1, seed=seed), "LinearUnion"),
    (lambda seed: random_separable(3, 1, 2, seed=seed), "Finite"),
], ids=["exact 4x1 t2", "exact 5x1 t2", "exact 5x1 t3", "float 3x1 r1", "float 3x1 ray",
        "exact 3x1 t1", "exact 3x1 t2"])
def test_n_equal_to_one_gets_no_witness_and_no_sampling(monkeypatch, make, tag):
    # a state on C^m (x) C^1 is separable; M(r) is 1 x 1, so every probe's
    # Hadamard ratio reads 1, and the minors are linear forms
    def refuse(*args, **kwargs):
        raise AssertionError("an n = 1 variety was sampled")

    monkeypatch.setattr(variety_mod, "_point_stream", refuse)
    for seed in range(10):
        verdict = linearity_decide(variety_of_state(make(seed)), seed=42)
        assert verdict.tag == tag
        assert verdict.reason == (N1_VACUOUS if tag == "Inconclusive" else None)


@pytest.mark.parametrize("make", [
    lambda seed: random_mixed(3, 1, 1, seed=seed),
    lambda seed: random_mixed(4, 1, 2, seed=seed),
    lambda seed: random_separable(4, 1, 2, seed=seed),
], ids=["float 3x1 r1", "float 4x1 r2", "exact 4x1 t2"])
def test_n_equal_to_one_residual_is_relative_to_rho(make):
    # for n = 1 the residual is |M(r)| / (||rho|| ||r||^2): zero on V, of
    # order one off it, whatever the scale of r, so V is sampled and the
    # covariance check sees its points
    for seed in range(5):
        s = make(seed)
        v = variety_of_state(s)
        off = (1.0, 0.5j, -0.25, 2.0)[:v.m]
        res = v.hermitian_residual(off)
        assert 1e-6 < res <= 1.0
        assert v.hermitian_residual([1e-100 * z for z in off]) == pytest.approx(res)
        for p in sample_points(v, 3, seed=seed):
            assert v.hermitian_residual(p) <= 1e-12
        u = random_local_unitary(v.m, 1, seed=seed + 1)
        cov = verify_lu_covariance(s, u, samples=3, seed=seed)
        assert cov.ok and cov.checked == 6

"""The exact hyperplane peel against the two peels it replaced.

``reference_peel`` is the former m >= 4 branch of
``variety._peel_linear_factors``, kept verbatim: it samples points on V
along exact lines with float roots, fits hyperplanes through them with a
RANSAC SVD, rationalizes the normal (denominators up to 10000) and
verifies each candidate by exact division.  Where it finds forms, the
exact peel must find the same forms and leave identical quotients, term
order included; where it finds none, so must the exact peel.

``reference_small_peel`` is the former m <= 3 branch, kept verbatim: it
factors the generator with the fewest terms with the exact factor engine
(``oracles.peel``, the engine itself kept verbatim) and divides
each factor out of every generator.  Its factor list is complete, so the
line peel must find the same multiset of forms (in any order) and
identical quotients.

The constructed states are exact ensembles in which pencil row k is
l(r) * w for a chosen linear form l, so l divides every maximal minor.
Some of them are out of the point fit's reach (a non-real form, a large
denominator) and pin what the exact peel adds.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import detvar.factorization as factorization_mod
from detvar.catalog import cyclic_cubic_state, ppt_4x6_state
from detvar.factorization import _divide_out, _random_exact_point, linear_factors
from detvar.multipoly import CompiledSystem, LinearForm, Poly, restrict_to_line, univariate_roots
from detvar.report import analyze_state
from detvar.scalars import DEFAULT_TOL, EC_ZERO, ExactComplex
from detvar.states import random_separable
from detvar.statefile import load_state
from detvar.variety import _LINE_MISSES, _peel_linear_factors, project_normalize, variety_of_state
from oracles.peel import UnsupportedShape, linear_factorization
from oracles.polys import exact_div
from pinned import GOLDEN
from shared_states import factored_state, shared_direction_state

EC = ExactComplex


def _rationalize_point(z: complex, max_den: int = 10000):
    fr = Fraction(z.real).limit_denominator(max_den)
    fi = Fraction(z.imag).limit_denominator(max_den)
    if abs(float(fr) - z.real) < 1e-6 and abs(float(fi) - z.imag) < 1e-6:
        return ExactComplex(fr, fi)
    return None


def reference_peel(v, tol=DEFAULT_TOL):
    gens = v.essential_generators
    forms = []
    rng = random.Random(20211)

    def cheap_points(system, want):
        compiled = CompiledSystem(system, v.m)
        pts = []
        for _ in range(40):
            if len(pts) >= want:
                break
            base = _random_exact_point(rng, v.m)
            direction = _random_exact_point(rng, v.m)
            try:
                roots = univariate_roots(restrict_to_line(system[0], base, direction), tol)
            except _LINE_MISSES:
                continue
            bc = [x.to_complex() for x in base]
            dc = [x.to_complex() for x in direction]
            for s in roots:
                q = tuple(b + s * d for b, d in zip(bc, dc))
                if max(abs(z) for z in q) < 1e-12:
                    continue
                q = project_normalize(q)
                if compiled.residual(q) < 1e-9:
                    pts.append(q)
        return pts

    current = list(gens)
    for _ in range(v.m):  # at most m-1 independent hyperplanes can divide
        pts = cheap_points(current, 24)
        if len(pts) < 4:
            break
        arr = np.array([list(p) for p in pts])
        peeled_one = False
        for _ in range(40):
            idx = rng.sample(range(len(pts)), 3)
            triple = arr[idx]
            _, sv, vh = np.linalg.svd(triple)
            normal = vh[-1].conj()
            resid = np.abs(arr @ normal.conj())
            if int(np.sum(resid < 1e-7)) < max(4, len(pts) // 3):
                continue
            top = max(range(v.m), key=lambda i: abs(normal[i]))
            normal = normal / normal[top]
            coeffs = [_rationalize_point(complex(z)) for z in normal]
            if any(c is None for c in coeffs):
                continue
            form = LinearForm(coeffs, EC_ZERO, normalize=True)
            fp = form.to_poly(v.m)
            quotients = []
            ok = True
            for g in current:
                q = fp.divides_into(g)
                if q is None:
                    ok = False
                    break
                quotients.append(q)
            if ok:
                forms.append(form)
                current = [q for q in quotients if q.degree() >= 1]
                peeled_one = True
                break
        if not peeled_one or not current:
            break
    return forms, current


def reference_small_peel(v):
    gens = v.essential_generators
    forms = []
    current = list(gens)
    try:
        factors = linear_factorization(min(current, key=lambda g: len(g.terms)))
    except UnsupportedShape:
        return None  # the branch then fell through to the line peel
    for form in factors.linear_factors:
        rest = _divide_out(form, current)
        if rest is not None:
            forms.append(form)
            current = rest
            if not current:
                break
    return forms, current


def peel(state):
    return _peel_linear_factors(variety_of_state(state, "A"))[:2]


def assert_same_peel(v):
    forms, quotients, _ = _peel_linear_factors(v)
    ref_forms, ref_quotients = reference_peel(v)
    assert ref_forms
    assert Counter(forms) == Counter(ref_forms)
    assert quotients == ref_quotients
    assert [list(q.terms) for q in quotients] == [list(q.terms) for q in ref_quotients]


def test_ppt_side_a_matches_reference():
    assert_same_peel(variety_of_state(ppt_4x6_state(), "A"))


@pytest.mark.parametrize("coeffs", [
    (1, Fraction(1, 2), -3, Fraction(2, 3)),
    (0, 1, Fraction(-5, 7), 2),
    (2, -1, 0, Fraction(1, 9)),
])
def test_real_small_denominator_forms_match_reference(coeffs):
    assert_same_peel(variety_of_state(factored_state(coeffs), "A"))


@pytest.mark.parametrize("state", [
    pytest.param(load_state(str(GOLDEN / "gaussian_4x4_r5.state.json")), id="gaussian_4x4_r5"),
    pytest.param(random_separable(4, 4, 5, seed=3), id="separable_4x4_t5"),
    pytest.param(load_state(str(GOLDEN / "separable_4x4_t6.state.json")), id="separable_4x4_t6"),
])
def test_nothing_to_peel_agrees_with_reference(state):
    # the Cauchy-Binet certificate settles these before any minor is
    # expanded; the line peel, run on the expanded minors, agrees
    v = variety_of_state(state, "A")
    assert _peel_linear_factors(v) == ([], None, None) and "generators" not in vars(v)
    assert reference_peel(v) == ([], v.essential_generators)
    assert linear_factors(v.essential_generators, v.m) == ([], v.essential_generators)


# -- what the point fit could not find ----------------------------------------

GAUSSIAN_FORM = (1, 2, -1, EC(0, 1))


def test_gaussian_form_is_peeled():
    forms, quotients = peel(factored_state(GAUSSIAN_FORM))
    assert forms == [LinearForm(GAUSSIAN_FORM)]
    assert [q.degree() for q in quotients] == [3] * 5


def test_large_denominator_form_is_peeled():
    coeffs = (1, Fraction(1, 10007), -2, 3)
    forms, quotients = peel(factored_state(coeffs))
    assert forms == [LinearForm(coeffs)]
    assert [q.degree() for q in quotients] == [3] * 5


def test_squared_form_is_peeled_twice():
    forms, quotients = peel(factored_state(GAUSSIAN_FORM, rows=(0, 2)))
    assert forms == [LinearForm(GAUSSIAN_FORM)] * 2
    assert [q.degree() for q in quotients] == [2] * 5


def form_through(p, q):
    """The form (a1, a2, 1, i) vanishing at the points p and q."""
    rhs = [-(x[2] + EC(0, 1) * x[3]) for x in (p, q)]
    det = p[0] * q[1] - p[1] * q[0]
    a1 = (rhs[0] * q[1] - p[1] * rhs[1]) / det
    a2 = (p[0] * rhs[1] - rhs[0] * q[0]) / det
    return (a1, a2, 1, EC(0, 1))


def first_line():
    rng = random.Random(20211)
    return _random_exact_point(rng, 4), _random_exact_point(rng, 4)


def test_line_inside_v_is_skipped():
    # every restriction to the first line vanishes; the next line finds l
    base, direction = first_line()
    coeffs = form_through(base, direction)
    form = LinearForm(coeffs)
    assert form.evaluate(base).is_zero() and form.evaluate(direction).is_zero()
    forms, quotients = peel(factored_state(coeffs))
    assert forms == [form]
    assert [q.degree() for q in quotients] == [3] * 5


def test_form_met_at_infinity_is_peeled():
    # l vanishes at the first line's direction only: no restriction keeps
    # full degree, l(base + s*direction) is constant, and the candidate
    # point is the direction itself
    base, direction = first_line()
    coeffs = form_through([EC(1), EC(1), EC(2), EC(-3)], direction)
    form = LinearForm(coeffs)
    assert form.evaluate(direction).is_zero() and not form.evaluate(base).is_zero()
    forms, quotients = peel(factored_state(coeffs))
    assert forms == [form]
    assert [q.degree() for q in quotients] == [3] * 5


def test_codimension_two_peel_restricts_once_per_generator(monkeypatch):
    v = variety_of_state(load_state(str(GOLDEN / "gaussian_4x4_r5.state.json")), "A")
    gens = v.essential_generators
    calls = Counter()

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    # every binding of the float root finder, so the exact peel is seen to take none
    for module in [m for name, m in sys.modules.items() if name.startswith("detvar")]:
        for name in ("restrict_to_line", "univariate_roots"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    assert linear_factors(gens, v.m) == ([], gens)
    assert 1 <= calls["restrict_to_line"] <= len(gens)
    assert calls["univariate_roots"] == 0


# -- the retired m <= 3 factor-engine branch ----------------------------------

def assert_same_small_peel(v):
    assert v.m <= 3 and len(v.essential_generators) >= 2
    forms, quotients, _ = _peel_linear_factors(v)
    if quotients is None:  # nothing peeled, certified: V's own minors remain
        assert not forms
        quotients = v.essential_generators
    ref_forms, ref_quotients = reference_small_peel(v)
    assert Counter(forms) == Counter(ref_forms)
    assert quotients == ref_quotients
    assert [list(q.terms) for q in quotients] == [list(q.terms) for q in ref_quotients]
    return forms


def _tier1_small_states():
    states = [pytest.param(random_separable(*shape, seed=seed), "A", id=f"sep{shape}-{seed}")
              for shape, seed in [((3, 3, 4), 42 + 97 * 5), ((3, 3, 4), 42 + 97 * 12),
                                  ((3, 3, 5), 42 + 97 * 6), ((3, 3, 5), 42 + 97 * 13),
                                  ((3, 4, 5), 3), ((3, 4, 5), 17)]]
    states.append(pytest.param(shared_direction_state(4, 2, seed=8), "A", id="shared-4-2"))
    states.append(pytest.param(random_separable(3, 3, 4, seed=2), "B", id="sep(3,3,4)-2-B"))
    return states


@pytest.mark.parametrize("state,side", _tier1_small_states())
def test_small_peel_matches_reference_on_suite_states(state, side):
    assert_same_small_peel(variety_of_state(state, side))


SMALL_FORMS = [
    (1, Fraction(1, 2), -3),
    (0, 1, Fraction(-5, 7)),
    (1, EC(2, -1), EC(0, 3)),     # not a real multiple of a Q(i) vector
    (2, -1, Fraction(1, 9)),
]

FORM_SETS = [
    [SMALL_FORMS[0]],
    [SMALL_FORMS[2]],
    [SMALL_FORMS[1], SMALL_FORMS[2]],
    [SMALL_FORMS[0], SMALL_FORMS[0]],                  # a squared form
    [SMALL_FORMS[3], SMALL_FORMS[1], SMALL_FORMS[2]],
    [SMALL_FORMS[2], SMALL_FORMS[2], SMALL_FORMS[0]],
]


@pytest.mark.parametrize("forms", FORM_SETS)
@pytest.mark.parametrize("shape", [(3, 3, 4), (3, 4, 5), (3, 3, 5), (3, 4, 6)])
def test_small_peel_matches_reference_on_constructed_states(shape, forms):
    state = factored_state(forms, rows=range(len(forms)), seed=FORM_SETS.index(forms),
                           shape=shape)
    peeled = assert_same_small_peel(variety_of_state(state, "A"))
    assert Counter(peeled) == Counter(LinearForm(f) for f in forms)


# -- the peel's work, pinned ---------------------------------------------------

PEEL_WORK = [
    # (state, side A: restrictions, divisions, peeled forms)
    (lambda: load_state(str(GOLDEN / "ppt_4x6_rank7.state.json")), 9, 16,
     ["1*r1^1 + -1/2*r2^1 + 1/2*r4^1", "1*r1^1 + -1*r2^1 + 1*r4^1"]),
    (lambda: cyclic_cubic_state(EC(8)), 1, 0, []),
    (lambda: cyclic_cubic_state(EC(1)), 2, 2, ["1*r1^1 + 1*r2^1 + 1*r3^1"]),
]


@pytest.mark.parametrize("make, restrictions, divisions, forms", PEEL_WORK,
                         ids=["ppt_4x6_rank7", "cyclic t^3 = 8", "cyclic t^3 = 1"])
def test_the_peel_does_the_same_work(monkeypatch, make, restrictions, divisions, forms):
    """A side-A analysis makes as many line restrictions and divisions as
    before the kernels changed, peels the same forms, and every quotient is
    the one the retired division gives, term order included: kernel work
    shows up as time, not as a change in the work done."""
    restricted, divided, peeled = [], [], []
    real_restrict, real_divide, real_peel = (factorization_mod.restrict_to_line,
                                             Poly.divides_into, factorization_mod._peel)

    def dividing(form, p):
        divided.append((form, p, real_divide(form, p)))
        return divided[-1][2]

    monkeypatch.setattr(factorization_mod, "restrict_to_line",
                        lambda g, b, d: restricted.append(g) or real_restrict(g, b, d))
    monkeypatch.setattr(Poly, "divides_into", dividing)
    monkeypatch.setattr(factorization_mod, "_peel",
                        lambda polys, m: peeled.append(out := real_peel(polys, m)) or out)
    analyze_state(make(), side="A", seed=42, samples=4)
    assert (len(restricted), len(divided)) == (restrictions, divisions)
    assert [f.render() for out in peeled for f in out[0]] == forms
    for form, p, q in divided:
        try:
            want = exact_div(p, form)
        except ValueError:
            assert q is None
            continue
        assert list(q.terms.items()) == list(want.terms.items())

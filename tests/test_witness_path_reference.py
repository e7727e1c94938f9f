"""The float evaluations of the witness path against the code they replaced.

This file keeps, verbatim, the evaluators the sampler, Newton and the
witness probes ran before one power table per point served values,
scales, Jacobian and gradient: ``CompiledSystem``'s ``values_scales``,
``residual``, ``jacobian`` and ``gradient`` (with the ``_tables``,
``_value`` and ``_scale`` they called; the gradient is now read only by
the reference kernel below), ``_newton_polish``, and
``Variety.hermitian_residual`` with the ``hermitian_matrix`` it read
and ``np.linalg.norm`` (the float ``Matrix`` round trip it once took kept
every bit, and is gone with that float ``Matrix``).  That ``hermitian_matrix``
reads rho's blocks as they were then taken: from the side's density (the
swapped state's on side B), as nested exact lists for an exact point on
an exact density, else rounded to a complex array (``as_array``);
``Variety.hermitian_matrix`` must equal it, entry for entry where both are
exact matrices (object arrays, once exact ``Matrix`` results).  Every
float result of the current code must equal theirs in every bit (``float.hex``), on at least 200 points or starts per
case: float and Gaussian-rational states on sides A and B, a 4x4 rank-5
float state with five quartic minors in four variables, points with
signed zeros and exact points.

It also keeps the witness probe of a sampled point as it was before the
probes went through numpy as one batch: ``_witness_search_at``, which took
each probe's ``hermitian_residual`` in turn, now along the directions of
``_tangent_data``.  The batch, at the fixed radius and probe count, must
return the same probe and residual in every bit, or None with it (where it
raises ``SingularPoint``, the reference returns None), and leave the
shared ``random.Random`` in the same state; the row of T it returns with
a hit gives, in every bit, the point's ``tangent_form``.  The ``_kernel_directions``
that gave the directions before the pencil did (the kernel of the
generator Jacobian, with its perturbation drawn from a fresh Generator)
is kept too: at sampled points of V, its directions and the point span
the pencil's ker T.
"""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from detvar.errors import SingularPoint
from detvar.linalg import as_array, exact_matrix
from detvar.multipoly import CompiledSystem
from detvar.scalars import DEFAULT_TOL, EC_ZERO, ExactComplex
from detvar.statefile import load_state
from detvar.states import BipartiteState, ensemble_from_density, random_mixed
from detvar.variety import (
    NEWTON_MAX_STEPS,
    WITNESS_FACTOR,
    _RANK_GAP_MIN,
    _analysis_system,
    _newton_polish,
    _row_form,
    _tangent_data,
    _witness_search_at,
    project_normalize,
    sample_points,
    tangent_form,
    variety_of_state,
)
from oracles.polys import pencil_minors
from pinned import GOLDEN

COUNT = 200


# ---------------------------------------------------------------------------
# The reference (verbatim, over a live system's flat terms)
# ---------------------------------------------------------------------------

class ReferenceSystem:
    def __init__(self, cs):
        self.nvars = cs.nvars
        self._terms = cs._terms
        self._top = cs._top
        self._partial_terms = cs._partial_terms

    def _tables(self, point):
        pt = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in point]
        pw = [[z ** k for k in range(top + 1)] for z, top in zip(pt, self._top)]
        apw = [[abs(z) ** k for k in range(top + 1)] for z, top in zip(pt, self._top)]
        return pw, apw

    @staticmethod
    def _value(terms, pw) -> complex:
        acc = 0j
        for c, _, mono in terms:
            for i, k in mono:
                c *= pw[i][k]
            acc += c
        return acc

    @staticmethod
    def _scale(terms, apw) -> float:
        acc = 0.0
        for _, a, mono in terms:
            for i, k in mono:
                a *= apw[i][k]
            acc += a
        return acc

    def values_scales(self, point):
        pw, apw = self._tables(point)
        return ([self._value(t, pw) for t in self._terms],
                [self._scale(t, apw) for t in self._terms])

    def residual(self, point) -> float:
        worst = 0.0
        for val, scale in zip(*self.values_scales(point)):
            worst = max(worst, abs(val) / max(scale, 1e-300))
        return worst

    def jacobian(self, point, cols):
        pw, apw = self._tables(point)
        rows = []
        for terms, partials in zip(self._terms, self._partial_terms()):
            scale = max(self._scale(terms, apw), 1e-300)
            rows.append([self._value(partials[i], pw) / scale for i in cols])
        return rows

    def gradient(self, k, point):
        pw, apw = self._tables(point)
        partials = self._partial_terms()[k]
        return ([self._value(t, pw) for t in partials],
                max(max(self._scale(t, apw) for t in partials), 1e-300))


def reference_newton_polish(system, z0, tol):
    m = system.nvars
    z = list(project_normalize(z0))
    pin = max(range(m), key=lambda i: abs(z[i]))
    free = [i for i in range(m) if i != pin]

    def fvec(zz):
        vals, scales = system.values_scales(zz)
        return np.array([val / max(scale, 1e-300) for val, scale in zip(vals, scales)])

    target = 1e-3 * tol.abs_eps
    f = fvec(z)
    for _ in range(NEWTON_MAX_STEPS):
        if float(np.max(np.abs(f))) <= target:
            return tuple(z)
        jac = np.array(system.jacobian(z, free), dtype=complex)
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        improved = False
        for damp in range(9):
            cand = list(z)
            for ci, i in enumerate(free):
                cand[i] = z[i] + step[ci] / (2 ** damp)
            fc = fvec(cand)
            if float(np.linalg.norm(fc)) < float(np.linalg.norm(f)):
                z, f = cand, fc
                improved = True
                break
        if not improved:
            break
    if float(np.max(np.abs(f))) <= target:
        return tuple(z)
    return None


def reference_state_blocks(v, exact):
    base = v.state if v.side == "A" else v.state.swapped()
    rho = base.density_matrix()
    m, n = base.m, base.n
    if exact and rho.dtype == object:
        return [[[[rho[i * n + r, j * n + c] for c in range(n)] for r in range(n)]
                 for j in range(m)] for i in range(m)], True
    return as_array(rho).reshape(m, n, m, n), False


def reference_hermitian_matrix(v, point):
    want_exact = v.mode == "exact" and all(
        isinstance(x, ExactComplex) for x in point)
    blocks, exact = reference_state_blocks(v, want_exact)
    m, n = v.m, v.n
    if exact:
        acc = [[EC_ZERO] * n for _ in range(n)]
        for i in range(m):
            if point[i].is_zero():
                continue
            for j in range(m):
                if point[j].is_zero():
                    continue
                w = point[i] * point[j].conjugate()
                bij = blocks[i][j]
                for r in range(n):
                    for c in range(n):
                        if not bij[r][c].is_zero():
                            acc[r][c] = acc[r][c] + w * bij[r][c]
        return exact_matrix(acc)
    pt = np.array([x.to_complex() if isinstance(x, ExactComplex) else complex(x)
                   for x in point])
    w = np.einsum("i,j->ij", pt, pt.conj())
    return np.einsum("ij,irjc->rc", w, blocks)


def reference_hermitian_residual(v, point):
    arr = as_array(reference_hermitian_matrix(v, point))
    det = complex(np.linalg.det(arr))
    bound = 1.0
    for k in range(arr.shape[0]):
        bound *= max(float(np.linalg.norm(arr[k])), 1e-300)
    return abs(det) / bound


# ---------------------------------------------------------------------------
# Cases and points
# ---------------------------------------------------------------------------

def bits(x):
    """x with every float replaced by its float.hex, complex parts apart."""
    if x is None:
        return None
    if isinstance(x, (list, tuple)):
        return [bits(y) for y in x]
    if isinstance(x, (complex, np.complexfloating)):
        return (float(x.real).hex(), float(x.imag).hex())
    return float(x).hex()


def _spectral(s):
    return ensemble_from_density(s.density_matrix(), s.m, s.n)


def _with_density(s):
    return BipartiteState(s.m, s.n, ensemble=s.ensemble, density=s.density_matrix())


CASES = {
    "float 3x3 r3 A": lambda: variety_of_state(random_mixed(3, 3, 3, seed=1), "A"),
    "float 3x3 r3 B": lambda: variety_of_state(random_mixed(3, 3, 3, seed=1), "B"),
    "gaussian 3x4 r4 A": lambda: variety_of_state(
        load_state(str(GOLDEN / "gaussian_3x4_r4.state.json")), "A"),
    "gaussian 3x4 r4 B": lambda: variety_of_state(
        load_state(str(GOLDEN / "gaussian_3x4_r4.state.json")), "B"),
    "float 4x4 r5 A": lambda: variety_of_state(random_mixed(4, 4, 5, seed=1), "A"),
    "float 4x4 r5 B": lambda: variety_of_state(random_mixed(4, 4, 5, seed=1), "B"),
    "density 4x4 r5 A": lambda: variety_of_state(_spectral(
        load_state(str(GOLDEN / "mixed_density_4x4_r5.state.json"))), "A"),
}

HERMITIAN_CASES = {
    **CASES,
    # an exact ensemble delivered with its exact density, whose float image
    # is that exact matrix
    "gaussian 3x4 r4 with density B": lambda: variety_of_state(
        _with_density(load_state(str(GOLDEN / "gaussian_3x4_r4.state.json"))), "B"),
}

SIGNED_ZEROS = (complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                complex(-0.0, -0.0))


def witness_points(v, rng: random.Random):
    """COUNT points: Gaussian ones, sampled points of V moved off it by
    steps of 1e-3 to 1e-12, ones with signed-zero coordinates or parts,
    and exact ones."""
    m = v.m
    on_v = sample_points(v, 4, seed=7)
    pts = []
    while len(pts) < COUNT:
        kind = len(pts) % 5
        z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)]
        if kind == 1:
            eps = 10.0 ** -rng.randint(3, 12)
            z = [x + eps * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for x in rng.choice(on_v)]
        elif kind == 2:
            for i in rng.sample(range(m), rng.randint(1, m - 1)):
                z[i] = rng.choice(SIGNED_ZEROS)
        elif kind == 3:
            z = [complex(x.real, -0.0) if rng.random() < 0.5 else complex(-0.0, x.imag)
                 for x in z]
        elif kind == 4:
            z = [ExactComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                              Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                 for _ in range(m)]
            if all(x.is_zero() for x in z):
                continue
        pts.append(tuple(z))
    return pts


def _nonzero_minors(v):
    """A variety's nonzero minors; a float V's, which it no longer
    expands, by the reference expansion."""
    if v.mode == "exact":
        return v.essential_generators
    return [g for g in pencil_minors(v.pencil) if not g.is_zero()]


def _compiled_polys(v):
    """The polynomial lists a variety's analysis compiled: its nonzero
    minors and, on an exact V, what the exact peel leaves where that
    differs; the last is the analysis system Newton ran on."""
    lists = [_nonzero_minors(v)]
    rest = _analysis_system(v)[1] if v.mode == "exact" else None
    if rest is not None and rest != lists[0]:  # None: nothing is peeled
        lists.append(rest)
    return lists


@pytest.mark.parametrize("name", list(CASES))
def test_compiled_system_matches_reference(name):
    v = CASES[name]()
    rng = random.Random(f"compiled:{name}")
    for cs in [CompiledSystem(polys, v.m) for polys in _compiled_polys(v)]:
        if not cs.polys:
            continue
        ref = ReferenceSystem(cs)
        m = cs.nvars
        for pt in witness_points(v, rng):
            table = cs.table(pt)
            vals, scales = cs.values_scales(pt, table)
            assert bits(cs.values_scales(pt)) == bits((vals, scales))
            assert bits((vals, scales)) == bits(ref.values_scales(pt))
            assert bits(cs.residual(pt)) == bits(cs.residual(pt, table)) == bits(ref.residual(pt))
            free = [i for i in range(m) if i != rng.randrange(m)]
            for cols in (range(m), free):
                want = bits(ref.jacobian(pt, cols))
                assert bits(cs.jacobian(pt, cols)) == want
                assert bits(cs.jacobian(pt, cols, table)) == want
                assert bits(cs.jacobian(pt, cols, table, scales)) == want


@pytest.mark.parametrize("name", list(HERMITIAN_CASES))
def test_hermitian_residual_matches_reference(name):
    v = HERMITIAN_CASES[name]()
    rng = random.Random(f"hermitian:{name}")
    exact_points = 0
    for pt in witness_points(v, rng):
        exact_points += v.mode == "exact" and isinstance(pt[0], ExactComplex)
        assert bits(v.hermitian_residual(pt)) == bits(reference_hermitian_residual(v, pt))
    assert exact_points == (COUNT // 5 if v.mode == "exact" else 0)


@pytest.mark.parametrize("name", list(HERMITIAN_CASES))
def test_hermitian_matrix_matches_reference(name):
    v = HERMITIAN_CASES[name]()
    rng = random.Random(f"matrix:{name}")
    exact_matrices = 0
    for pt in witness_points(v, rng):
        got, want = v.hermitian_matrix(pt), reference_hermitian_matrix(v, pt)
        if want.dtype == object:
            assert got.dtype == object and np.array_equal(got, want)
            exact_matrices += 1
        else:
            assert bits(got.ravel().tolist()) == bits(want.ravel().tolist())
    assert exact_matrices == (COUNT // 5 if v.mode == "exact" else 0)


@pytest.mark.parametrize("name", ["float 4x4 r5 A", "float 4x4 r5 B", "gaussian 3x4 r4 B",
                                  "density 4x4 r5 A"])
def test_newton_polish_matches_reference(name):
    v = CASES[name]()
    system = CompiledSystem(_compiled_polys(v)[-1], v.m)
    assert len(system.polys) >= 2
    ref = ReferenceSystem(system)
    rng = random.Random(f"newton:{name}")
    converged = 0
    for raw in witness_points(v, rng):
        # Newton starts from floats; an exact point serves as its image
        z0 = [x.to_complex() if isinstance(x, ExactComplex) else x for x in raw]
        got = _newton_polish(system, z0, DEFAULT_TOL)
        assert bits(got) == bits(reference_newton_polish(ref, z0, DEFAULT_TOL))
        converged += got is not None
    assert 0 < converged < COUNT


# ---------------------------------------------------------------------------
# The witness probe of one point (verbatim but for the reference_ names)
# ---------------------------------------------------------------------------

# _gap_rank as the reference kernel called it, with its noise floor
def _gap_rank(svals, ncols, noise_floor=0.0):
    s = [max(float(x), 0.0) for x in svals] + [0.0] * (ncols - len(svals))
    if s[0] < max(noise_floor, 1e-12):
        return 0
    noise = max(1e-13 * s[0], noise_floor)
    best_r, best_gap = None, 1.0
    for r in range(1, ncols + 1):
        lo = s[r] if r < ncols else 0.0
        if s[r - 1] <= noise:
            break
        gap = s[r - 1] / max(lo, noise)
        if gap > best_gap:
            best_gap, best_r = gap, r
    if best_r is None or best_gap < _RANK_GAP_MIN:
        return None
    return best_r


def reference_kernel_directions(v, pt, tol):
    system = CompiledSystem(_compiled_polys(v)[-1], v.m)
    if not system.polys:
        system = CompiledSystem(_nonzero_minors(v), v.m)
    table = system.table(pt)
    for k in range(len(system.polys)):
        grad, gscale = ReferenceSystem(system).gradient(k, pt)
        if max(abs(x) for x in grad) > WITNESS_FACTOR * tol.abs_eps * gscale:
            break
    else:
        return None
    floor = max(100.0 * system.residual(pt, table), 1e-14)
    cols = range(v.m)
    _, s1, vh = np.linalg.svd(np.array(system.jacobian(pt, cols, table), dtype=complex))
    rank = _gap_rank(s1, v.m, floor)
    if rank is None or rank == 0:
        return None
    rng_local = np.random.default_rng(9173)
    pert = [z + 1e-10 * complex(c1, c2)
            for z, c1, c2 in zip(pt, rng_local.standard_normal(v.m),
                                 rng_local.standard_normal(v.m))]
    s2 = np.linalg.svd(np.array(system.jacobian(pert, cols), dtype=complex),
                       compute_uv=False)
    if _gap_rank(s2, v.m, max(floor, 1e-9)) != rank:
        return None
    kernel = [vh[k].conj() for k in range(rank, v.m)]
    p = np.array(pt)
    p = p / np.linalg.norm(p)
    dirs = []
    for vec in kernel:
        w = vec - p * np.vdot(p, vec)
        norm = float(np.linalg.norm(w))
        if norm > 1e-8:
            dirs.append(w / norm)
    return dirs


def reference_witness_search_at(v, point, rng, tol, radius, probes=20):
    pt = [complex(x.to_complex() if isinstance(x, ExactComplex) else x)
          for x in project_normalize(point)]
    data = _tangent_data(v, pt)
    dirs = None if data is None else data[1]
    if dirs is None or not dirs:
        return None
    threshold = WITNESS_FACTOR * tol.abs_eps
    best = None
    for _ in range(probes):
        combo = np.zeros(v.m, dtype=complex)
        for d in dirs:
            combo += complex(rng.gauss(0, 1), rng.gauss(0, 1)) * d
        norm = float(np.linalg.norm(combo))
        if norm < 1e-12:
            continue
        q = project_normalize((np.array(pt) + radius * combo / norm).tolist())
        res = v.hermitian_residual(q)
        if res > threshold and (best is None or res > best[1]):
            best = (q, res)
    return best


WITNESS_CASES = {
    "float 3x3 r3 A": CASES["float 3x3 r3 A"],
    "float 3x3 r3 B": CASES["float 3x3 r3 B"],
    "float 3x4 r4 A": lambda: variety_of_state(random_mixed(3, 4, 4, seed=1), "A"),
    "float 3x4 r4 B": lambda: variety_of_state(random_mixed(3, 4, 4, seed=1), "B"),
    "float 4x4 r5 A": CASES["float 4x4 r5 A"],
    "float 4x4 r5 B": CASES["float 4x4 r5 B"],
    "density 4x4 r5 A": CASES["density 4x4 r5 A"],
    "gaussian 3x4 r4 A": CASES["gaussian 3x4 r4 A"],
    "gaussian 3x4 r4 B": CASES["gaussian 3x4 r4 B"],
    "gaussian 4x4 r5 A": lambda: variety_of_state(
        load_state(str(GOLDEN / "gaussian_4x4_r5.state.json")), "A"),
}


def probe_points(v, rng: random.Random):
    """Eight sampled points of V, four of them also moved off V by 1e-6,
    and the first two with their coordinates made exact."""
    on_v = sample_points(v, 8, seed=7)
    moved = [tuple(x + 1e-6 * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for x in p)
             for p in on_v[:4]]
    exact = [tuple(ExactComplex(Fraction(x.real), Fraction(x.imag)) for x in p)
             for p in on_v[:2]]
    return on_v + moved + exact


@pytest.mark.parametrize("name", list(WITNESS_CASES))
def test_witness_search_matches_reference(name):
    """COUNT (point, seed) cases per state: the same (q, residual) bits or
    None, the same rng state, and no numpy warning from the batch; a hit's
    row of T scales to the point's tangent_form, bit for bit."""
    v = WITNESS_CASES[name]()
    points = probe_points(v, random.Random(f"witness:{name}"))
    hits = 0
    for case in range(COUNT):
        point = points[case % len(points)]
        got_rng, want_rng = random.Random(case), random.Random(case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = _witness_search_at(v, point, got_rng, DEFAULT_TOL)
            except SingularPoint:
                got = None
        want = reference_witness_search_at(v, point, want_rng, DEFAULT_TOL, 0.1)
        assert bits(None if got is None else got[:2]) == bits(want), case
        if got is not None:
            assert (bits(_row_form(got[2]).coefficients)
                    == bits(tangent_form(v, point).coefficients)), case
        assert got_rng.getstate() == want_rng.getstate()
        hits += got is not None
    assert hits > 0


def _span(vectors):
    """The orthogonal projector onto the span of the vectors (columns)."""
    u, s, _ = np.linalg.svd(np.array(vectors).T, full_matrices=False)
    basis = u[:, s > 1e-6 * s[0]]
    return basis @ basis.conj().T


@pytest.mark.parametrize("name", list(WITNESS_CASES))
def test_tangent_space_spans_reference_kernel(name):
    """At eight sampled points of V, ker T of the pencil equals the span
    of the reference kernel's directions and the point.  The points meet
    the minors to about 1e-11, and the two spaces differ by at most 7.2e-7
    (spectral norm of the projectors' difference) on these cases."""
    v = WITNESS_CASES[name]()
    for p in sample_points(v, 8, seed=7):
        pt = [complex(x) for x in project_normalize(p)]
        dirs = reference_kernel_directions(v, pt, DEFAULT_TOL)
        data = _tangent_data(v, pt)
        assert dirs is not None and data is not None
        tmat = data[0]
        _, _, vh = np.linalg.svd(tmat)
        kernel = list(vh[len(tmat):].conj())
        assert len(kernel) == v.m - (v.pencil.t - v.n + 1)
        got, want = _span(kernel), _span(dirs + [np.array(pt)])
        assert np.linalg.norm(got - want, 2) <= 1e-5

"""Determinantal varieties of bipartite states.

For a state with ensemble matrix A (columns the ensemble rays, blocked
A_1..A_m over side A), the pencil N(r) = sum_i r_i A_i is an n x t matrix
of linear forms.  The variety V_A is the projective zero locus of the n x n
minors of N(r); equivalently (and this is the built-in cross-check) the
locus where the Hermitian form det(sum_ij r_i conj(r_j) rho_ij) vanishes.
The two criteria must agree on every tested point; a disagreement raises
InconsistentRepresentations because it can only mean a bug or a bad
tolerance, never a property of the state.

Verdict semantics: a nonlinearity witness certifies entanglement (the
contrapositive of the separability criterion).  Empty, Full, Finite,
LinearUnion and Inconclusive all map to "criterion inconclusive":
linearity is necessary, not sufficient, for separability.  A finite V is
a union of points, hence linear, and an empty V has no points, so
dimension is certified before any sampling and a V certified finite or
empty is never sampled.

The symbolic minors are built when something first reads them.  Where a
certificate can fire on them (m >= 3 and t - n + 1 >= m - 1), a screen
modulo a prime first shows, from the pencil alone, that every minor is
nonzero and that some minor is not a monomial; the Macaulay certificate
then reads the pencil modulo the same prime, so a V certified finite or
empty never builds a symbolic minor.
"""

from __future__ import annotations

import cmath
import functools
import random
from fractions import Fraction
from math import comb, sqrt
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateLeadingCoefficient,
    InconsistentRepresentations,
    NoConvergence,
    SamplingExhausted,
    SingularPoint,
    ZeroDirection,
)
from .exactroots import ec_gcd, ec_trim, gaussian_rational_roots
from .factorization import FactorList, linear_factorization
from .linalg import Matrix, det_exact
from .modp import (
    EXP_BITS,
    RANK_PRIME,
    ModPoly,
    macaulay_full_rank,
    reduce_scalar,
    split_primes,
)
from .multipoly import (
    INTEGERS,
    CompiledSystem,
    LinearForm,
    Poly,
    minor_terms,
    minors,
    restrict_to_line,
    sylvester_resultant,
    univariate_coeffs,
    univariate_roots,
)
from .scalars import DEFAULT_TOL, EC_ZERO, ExactComplex, Tolerance
from .states import BipartiteState, unit_scaled

WITNESS_FACTOR = 10.0      # witness threshold is WITNESS_FACTOR * abs_eps
HYPERPLANE_RADIUS = 0.1    # relative step when probing a tangent hyperplane
NEWTON_MAX_STEPS = 50
SAMPLING_BUDGET = 100      # line draws per requested point
MACAULAY_DEGREES = 3       # degrees n + 1 .. n + 3 tried by the Macaulay certificate
_SCREEN_SLACK = 1e-9       # relative margin of the probe screen in _best_probe
_ROW_FLOOR = 1e-100        # above it, squares lost to underflow are negligible
_BOUND_FLOOR = 1e-290      # partial bounds in [floor, 1 / floor] are normal floats

# what restricting to a line and root-finding raise when a draw is merely
# unlucky (degenerate restriction, zero direction, Aberth not settling)
_LINE_MISSES = (DegenerateLeadingCoefficient, NoConvergence, ZeroDirection)


# ---------------------------------------------------------------------------
# pencil
# ---------------------------------------------------------------------------

class PencilMatrix:
    """n x t matrix of homogeneous linear forms in the side variables.

    Entry (k, l) equals sum_i r_i * (A_i)[k, l].  An exact pencil keeps
    the raw ensemble coefficients, so the matrix printed for the worked
    examples matches the construction on the nose.  A float pencil takes
    each ray through states.unit_scaled: a power of two per column, which
    leaves every ratio downstream bit-identical but keeps the minors of
    very small or very large rays inside the float range.
    """

    def __init__(self, side: str, n_rows: int, t_cols: int, m_vars: int,
                 entry_forms: List[List[LinearForm]], kind: str,
                 state: BipartiteState):
        self.side = side
        self.n = n_rows
        self.t = t_cols
        self.m = m_vars
        self.entry_forms = entry_forms
        self.kind = kind
        self.state = state  # as given, before any swap for side B
        self._mod_p = None  # (prime, reduced coefficient vectors), found once

    def entry_polys(self) -> List[List[Poly]]:
        return [[f.to_poly(self.m, self.kind) for f in row] for row in self.entry_forms]

    def mod_p(self) -> Tuple[int, List[List[List[int]]]]:
        """The first prime p = 1 (mod 4) from RANK_PRIME that divides no
        denominator of the pencil, and the coefficient vectors of the
        entries modulo p.  The minor screen and the Macaulay test both read
        this one reduction."""
        if self._mod_p is None:
            for p in split_primes(RANK_PRIME):
                forms = _pencil_mod_p(self, p)
                if forms is not None:
                    self._mod_p = (p, forms)
                    break
        return self._mod_p

    def __repr__(self):
        return f"PencilMatrix(side={self.side}, {self.n}x{self.t} in {self.m} vars)"


def pencil_matrix(s: BipartiteState, side: str = "A") -> PencilMatrix:
    """Assemble the pencil from the ensemble blocks (side B re-blocks)."""
    state = s if side == "A" else s.swapped()
    terms = state.ensemble_terms()  # MissingEnsemble if absent
    m, n = state.m, state.n
    t = len(terms)
    exact = state.exact_ensemble
    kind = "exact" if exact else "approx"
    zero = EC_ZERO if exact else 0j
    entry_forms: List[List[LinearForm]] = []
    rays = [v if exact else unit_scaled(v) for _, v in terms]
    for k in range(n):
        row = []
        for l in range(t):
            coeffs = [rays[l][i * n + k] for i in range(m)]
            if all((c.is_zero() if isinstance(c, ExactComplex) else c == 0)
                   for c in coeffs):
                coeffs = [zero] * m
            row.append(LinearForm(coeffs, zero, normalize=False))
        entry_forms.append(row)
    return PencilMatrix(side, n, t, m, entry_forms, kind, s)


# ---------------------------------------------------------------------------
# variety
# ---------------------------------------------------------------------------

class Variety:
    """Generators plus the Hermitian-form evaluator for one side.

    `generators` are the maximal minors of the pencil, in lexicographic
    column-subset order.  Passed as None, they are expanded (and checked
    homogeneous of degree n) on first read; `essential_count`, the number
    of nonzero minors, must then be given, as the minor screen finds it.
    The Hermitian form reads rho through the side's state, as pencil_matrix
    does: the state's float image (BipartiteState._float_images), or its
    exact density only for an exact point on an exact density.
    """

    def __init__(self, side: str, m_vars: int, n_minor: int,
                 generators: Optional[List[Poly]], pencil: PencilMatrix,
                 state: BipartiteState, mode: str,
                 structural: Optional[str], essential_count: Optional[int] = None):
        self.side = side
        self.m = m_vars
        self.n = n_minor
        self._generators = generators
        self._essential_count = essential_count
        self.pencil = pencil
        self.state = state
        self.mode = mode
        self.structural = structural  # "Empty" | "Full" | None
        self._blocks = {}            # exact? -> _state_blocks(exact)
        self._compiled = None        # CompiledSystem of the essential generators
        self._analysis_cache = None  # (peeled forms, CompiledSystem of the rest)
        self._factor_list = None     # exact split of a hypersurface generator
        self._rank_memo = {}         # seed -> _rank_deficient(self, seed)

    @property
    def generators(self) -> List[Poly]:
        if self._generators is None:
            self._generators = _pencil_minors(self.pencil)
        return self._generators

    @property
    def generator_count(self) -> int:
        """C(t, n), the number of maximal minors (0 when t < n)."""
        return comb(self.pencil.t, self.n)

    @property
    def essential_count(self) -> int:
        """The number of nonzero minors, expanding none the screen counted."""
        if self._essential_count is None:
            self._essential_count = len(self.essential_generators)
        return self._essential_count

    @property
    def essential_generators(self) -> List[Poly]:
        return [g for g in self.generators if not g.is_zero()]

    @property
    def compiled(self) -> CompiledSystem:
        if self._compiled is None:
            self._compiled = CompiledSystem(self.essential_generators, self.m)
        return self._compiled

    # -- Hermitian-form evaluator (the independent membership oracle) ------

    def _state_blocks(self, exact: bool) -> np.ndarray:
        """rho as (m, n, m, n) blocks, [i, r, j, c] = (rho_ij)[r, c], read
        through this side's state (side B: the swapped state, rounded on its
        own): the exact entries as an object array when `exact` and the
        density is exact, else the float image that spectra and PPT read."""
        base = self.state if self.side == "A" else self.state.swapped()
        exact = exact and base.density_matrix().kind == "exact"
        if exact not in self._blocks:
            rho = (np.array(base.density_matrix().data, dtype=object) if exact
                   else base._float_images()[0].to_numpy())
            self._blocks[exact] = rho.reshape(self.m, self.n, self.m, self.n)
        return self._blocks[exact]

    def hermitian_matrix(self, point: Sequence):
        """M(r) = sum_ij r_i conj(r_j) rho_ij: an exact Matrix for an exact
        point on an exact density, else a complex numpy array; one einsum
        (_hermitian_forms) serves both."""
        exact = self.mode == "exact" and all(isinstance(x, ExactComplex) for x in point)
        blocks = self._state_blocks(exact)
        if blocks.dtype == object:
            return Matrix.exact(
                _hermitian_forms(np.array([point], dtype=object), blocks)[0].tolist())
        return self.hermitian_stack([[x.to_complex() if isinstance(x, ExactComplex)
                                      else complex(x) for x in point]])[0]

    def hermitian_stack(self, points: Sequence[Sequence]) -> np.ndarray:
        """The float M(r) of each point (complex coordinates), shape (b, n, n)."""
        pts = np.array(points, dtype=complex).reshape(-1, self.m)
        return _hermitian_forms(pts, self._state_blocks(False))

    def hermitian_value(self, point: Sequence):
        mat = self.hermitian_matrix(point)
        if isinstance(mat, Matrix):
            return det_exact(mat)
        return complex(np.linalg.det(mat))

    def hermitian_residual(self, point: Sequence) -> float:
        """|det M(r)| relative to the Hadamard bound of M(r) (_hadamard_ratio).
        A float M(r) goes from einsum straight to det, and every float step
        stays in numpy, whose complex multiply may fuse where Python's won't."""
        mat = self.hermitian_matrix(point)
        return _hadamard_ratio(mat.to_numpy() if isinstance(mat, Matrix) else mat)

    def generator_residual(self, point: Sequence) -> float:
        return self.compiled.residual(point)

    def __repr__(self):
        return (f"Variety(side={self.side}, {self.generator_count} generators "
                f"of degree {self.n} in CP^{self.m - 1}, mode={self.mode})")


def _hermitian_forms(points: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_ij r_i conj(r_j) blocks[i, :, j, :] for each row r of points, over
    complex or ExactComplex (object) arrays alike."""
    w = np.einsum("bi,bj->bij", points, points.conj())
    return np.einsum("bij,irjc->brc", w, blocks)


def _hadamard_ratio(arr: np.ndarray) -> float:
    """|det arr| over the product of its row norms (np.linalg.norm's own
    formula), each at least 1e-300.  Where that product underflows, a zero
    row reads 0.0 and other rows are first scaled to unit max modulus,
    which leaves the ratio as it was and keeps det and bound in range."""
    det = complex(np.linalg.det(arr))
    bound = 1.0
    for row in arr:
        re, im = row.real, row.imag
        bound *= max(sqrt(re.dot(re) + im.dot(im)), 1e-300)
    if bound != 0.0:
        return abs(det) / bound
    peaks = np.abs(arr).max(axis=1, keepdims=True)
    if not peaks.all():
        return 0.0
    # divided as real pairs: numpy's complex division overflows on a subnormal
    return _hadamard_ratio((arr.view(float) / peaks).view(complex))


def _best_probe(mats: np.ndarray, threshold: float) -> Optional[Tuple[int, float]]:
    """(k, _hadamard_ratio(mats[k])) for the first k at the largest ratio
    above threshold, or None; the exact ratio is taken only where it decides.

    A screen takes all ratios at once, with numpy's row norms.  Unless a row
    norm is below _ROW_FLOOR or a partial product of the bound leaves
    [_BOUND_FLOOR, 1 / _BOUND_FLOOR], it is within about 2 n^2 2^-53 of
    _hadamard_ratio (same LAPACK det), far inside _SCREEN_SLACK.  So the
    first k at the maximum screens above (1 - slack) threshold and at least
    (1 - slack) times the top screened value; scanning those probes, and all
    the screen cannot bound, in order finds k.  Change the two together."""
    dets = np.abs(np.linalg.det(mats))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = np.linalg.norm(mats, axis=2)
        partial = np.cumprod(norms, axis=1)
        approx = dets / partial[:, -1]
    bounded = ((norms >= _ROW_FLOOR) & (partial >= _BOUND_FLOOR)
               & (partial <= 1 / _BOUND_FLOOR)).all(axis=1) & np.isfinite(approx)
    top = approx[bounded].max(initial=0.0)
    near = (approx > (1 - _SCREEN_SLACK) * threshold) & (approx >= (1 - _SCREEN_SLACK) * top)
    best: Optional[Tuple[int, float]] = None
    for k in np.flatnonzero(~bounded | near).tolist():
        res = _hadamard_ratio(mats[k])
        if res > threshold and (best is None or res > best[1]):
            best = (k, res)
    return best


def _empty_certificate(gens: List[Poly], m: int) -> bool:
    """Monomial generator sets: projectively empty iff a pure power of
    every variable is present (then no nonzero support survives)."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero or not all(len(g.terms) == 1 for g in nonzero):
        return False
    pure = set()
    for g in nonzero:
        e = next(iter(g.terms))
        support = [i for i, k in enumerate(e) if k]
        if len(support) == 1:
            pure.add(support[0])
    return pure == set(range(m))


def _pencil_minors(p: PencilMatrix) -> List[Poly]:
    gens = minors(p.entry_polys(), p.n)
    for g in gens:
        if not g.is_zero() and (not g.is_homogeneous() or g.degree() != p.n):
            raise InconsistentRepresentations(
                "minor generator is not homogeneous of the pencil size")
    return gens


def _form_at(form: Sequence[int], point: Sequence[int], p: int) -> int:
    return sum(c * x for c, x in zip(form, point)) % p


def _minor_values(forms: List[List[List[int]]], point: Sequence[int],
                  p: int) -> Iterator[int]:
    """The values modulo p of the maximal minors of a reduced pencil at a
    point, in lexicographic column-subset order: its minors on constant
    entries, by multipoly's Laplace expansion on the integers."""
    entries = [[{0: x} if (x := _form_at(form, point, p)) else {} for form in row]
               for row in forms]
    return (terms.get(0, 0) % p for _, terms in minor_terms(entries, len(forms), INTEGERS))


def _minor_screen(p: PencilMatrix) -> bool:
    """True when, modulo the pencil's prime, every maximal minor is nonzero
    at a random point and some minor is not a monomial.

    Reduction and evaluation are ring maps, so a nonzero value proves the
    minor nonzero over Q(i) (for a float pencil, over the dyadic rationals
    its entries are): V is not Full.  A monomial f satisfies
    f(1) f(r o r') = f(r) f(r') in any commutative ring, so one minor that
    fails it is not a monomial, and the monomial test for Empty cannot
    hold.  False proves nothing; the caller then expands the minors."""
    prime, forms = p.mod_p()
    rng = random.Random("minor-screen")
    r = [rng.randrange(1, prime) for _ in range(p.m)]
    at_r = list(_minor_values(forms, r, prime))
    if not all(at_r):
        return False
    r2 = [rng.randrange(1, prime) for _ in range(p.m)]
    rr2 = [a * b % prime for a, b in zip(r, r2)]
    values = zip(at_r, _minor_values(forms, [1] * p.m, prime),
                 _minor_values(forms, r2, prime), _minor_values(forms, rr2, prime))
    return any(f1 * frr2 % prime != fr * fr2 % prime for fr, f1, fr2, frr2 in values)


def variety_generators(p: PencilMatrix) -> Variety:
    """The variety of the pencil's maximal minors; Full when t < n.

    Where a certificate can fire on the minors (m >= 3 and
    t - n + 1 >= m - 1, the Eagon-Northcott gate of linearity_decide) and
    the minor screen passes, no minor is expanded here: every one is
    nonzero and V is neither Full nor Empty by the monomial test, and the
    minors are built when something reads them.  Elsewhere the sampler
    needs them all, and they are expanded at once.
    """
    if p.t < p.n:
        return Variety(p.side, p.m, p.n, [], p, p.state, p.kind, "Full")
    if p.m >= 3 and p.t - p.n + 1 >= p.m - 1 and _minor_screen(p):
        return Variety(p.side, p.m, p.n, None, p, p.state, p.kind, None,
                       essential_count=comb(p.t, p.n))
    gens = _pencil_minors(p)
    structural: Optional[str] = None
    if all(g.is_zero() for g in gens):
        structural = "Full"
    elif _empty_certificate(gens, p.m):
        structural = "Empty"
    return Variety(p.side, p.m, p.n, gens, p, p.state, p.kind, structural)


def variety_of_state(s: BipartiteState, side: str = "A") -> Variety:
    return variety_generators(pencil_matrix(s, side))


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def project_normalize(point: Sequence):
    """Scale so the max-modulus coordinate becomes exactly 1 (ties broken
    by lowest index).  Works on exact and approx points alike."""
    if all(isinstance(x, ExactComplex) for x in point):
        best, best_n = None, None
        for i, x in enumerate(point):
            nsq = x.norm_sq()
            if best is None or nsq > best_n:
                best, best_n = i, nsq
        if best_n == 0:
            raise ValueError("cannot normalize the zero point")
        inv = point[best].inverse()
        return tuple(x * inv for x in point)
    pt = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in point]
    mods = [abs(x) for x in pt]
    best = max(range(len(pt)), key=lambda i: (mods[i], -i))
    if mods[best] == 0:
        raise ValueError("cannot normalize the zero point")
    inv = 1.0 / pt[best]
    return tuple(x * inv for x in pt)


def membership(v: Variety, point: Sequence, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Point membership by both criteria; they must agree."""
    point = project_normalize(point)
    if v.structural == "Full":
        return True
    exact = v.mode == "exact" and all(isinstance(x, ExactComplex) for x in point)
    if exact:
        gen_zero = all(g.evaluate(point).is_zero() for g in v.essential_generators)
        herm = v.hermitian_value(point)
        herm_zero = herm.is_zero() if isinstance(herm, ExactComplex) else herm == 0
        if gen_zero != herm_zero:
            raise InconsistentRepresentations(
                f"exact membership disagrees: generators {gen_zero}, "
                f"Hermitian determinant {herm_zero}")
        return gen_zero
    gen_ok = v.generator_residual(point) <= tol.abs_eps
    herm_ok = v.hermitian_residual(point) <= tol.abs_eps
    if gen_ok != herm_ok:
        raise InconsistentRepresentations(
            f"membership criteria disagree at {point}: generator residual "
            f"{v.generator_residual(point):.3e}, Hermitian residual "
            f"{v.hermitian_residual(point):.3e}")
    return gen_ok


def _random_exact_point(rng: random.Random, m: int) -> List[ExactComplex]:
    while True:
        pt = [ExactComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                           Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
              for _ in range(m)]
        if any(not x.is_zero() for x in pt):
            return pt


def _random_approx_point(rng: random.Random, m: int) -> List[complex]:
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)]


def _newton_polish(system: CompiledSystem, z0: Sequence[complex], tol: Tolerance
                   ) -> Optional[Tuple[complex, ...]]:
    """Damped Gauss-Newton on a generator system in the chart that pins the
    max-modulus coordinate; each point's table and scales serve its Jacobian."""
    m = system.nvars
    z = list(project_normalize(z0))
    pin = max(range(m), key=lambda i: abs(z[i]))
    free = [i for i in range(m) if i != pin]

    def fvec(zz):
        table = system.table(zz)
        vals, scales = system.values_scales(zz, table)
        f = np.array([val / max(scale, 1e-300) for val, scale in zip(vals, scales)])
        return f, float(np.linalg.norm(f)), table, scales

    target = 1e-3 * tol.abs_eps
    f, fnorm, table, scales = fvec(z)
    for _ in range(NEWTON_MAX_STEPS):
        if float(np.max(np.abs(f))) <= target:
            return tuple(z)
        jac = np.array(system.jacobian(z, free, table, scales), dtype=complex)
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        for damp in range(9):
            cand = list(z)
            for ci, i in enumerate(free):
                cand[i] = z[i] + step[ci] / (2 ** damp)
            fc, nc, tc, sc = fvec(cand)
            if nc < fnorm:
                z, f, fnorm, table, scales = cand, fc, nc, tc, sc
                break
        else:
            break
    if float(np.max(np.abs(f))) <= target:
        return tuple(z)
    return None


def _analysis_system(v: Variety) -> Tuple[List[LinearForm], CompiledSystem]:
    """The certified linear factors peeled off the generators, and the
    compiled system that remains; built once and cached on the variety."""
    if v._analysis_cache is None:
        forms, gens = _peel_linear_factors(v)
        system = v.compiled if gens == v.essential_generators else CompiledSystem(gens, v.m)
        v._analysis_cache = (forms, system)
    return v._analysis_cache


def _peel_linear_factors(v: Variety) -> Tuple[List[LinearForm], List[Poly]]:
    """Peel exact common linear factors off the generators.

    A hyperplane dividing every minor is a full linear component of the
    variety; random lines land on it constantly, hiding any codimension-2
    components behind it from the sampler.  Each peeled hyperplane is
    verified by exact division first, so the result is a certificate, not
    a guess.

    An exact hypersurface in at most three variables is split by the exact
    factor engine instead; when a residual survives, the system is that
    residual, whose zero locus is the only place a witness can live.  A
    full split is left unpeeled: linearity_decide reports it from the
    factor list, which is kept on the variety, and its hyperplanes stay
    open to sampling.

    Several generators, in any number of variables, are peeled one exact
    line per round: the gcd of the generators restricted to the line.  A
    Gaussian-rational hyperplane dividing every generator k times meets
    the line at a Q(i) root of that gcd of multiplicity k or more, or at
    infinity, where every restriction drops degree; _hyperplane_normal
    turns such a point into a candidate.  A constant gcd with a
    restriction of full degree means V misses the line: V has no
    hypersurface component left.
    """
    gens = v.essential_generators
    forms: List[LinearForm] = []
    if v.mode != "exact" or not gens:
        return forms, gens

    if len(gens) == 1:
        g = gens[0]
        if len(g.used_vars()) <= 3 and g.degree() <= 6:
            fl = v._factor_list = linear_factorization(g)
            if not fl.full_split():
                forms, gens = list(fl.linear_factors), [fl.residual]
        return forms, gens

    rng = random.Random(20211)
    current = list(gens)
    for _ in range(v.m):  # at most m-1 independent hyperplanes can divide
        base = _random_exact_point(rng, v.m)
        direction = _random_exact_point(rng, v.m)
        common, full_degree = _line_gcd(current, base, direction)
        if not common:
            continue  # the line lies in V
        if len(common) == 1 and full_degree:
            break
        candidates = [([b + s * d for b, d in zip(base, direction)], k)
                      for s, k in gaussian_rational_roots(common)]
        if not full_degree:
            candidates.append((direction, 1))
        peeled = False
        for point, k in candidates:
            normal = _hyperplane_normal(current, point, k)
            if normal is None:
                continue
            form = LinearForm(normal)
            while current and (rest := _divide_out(form, current)) is not None:
                forms.append(form)
                current = rest
                peeled = True
        if not peeled or not current:
            break
    return forms, current


def _divide_out(form: LinearForm, gens: Sequence[Poly]) -> Optional[List[Poly]]:
    """The exact quotients of positive degree of the generators by the
    form; None if the form does not divide one of them."""
    fp = form.to_poly()
    quotients = []
    for g in gens:
        q = fp.divides_into(g)
        if q is None:
            return None
        quotients.append(q)
    return [q for q in quotients if q.degree() >= 1]


def _hyperplane_normal(gens: Sequence[Poly], point: Sequence[ExactComplex],
                       k: int) -> Optional[List[ExactComplex]]:
    """The exact gradient at point of d_j^(k-1) g for the first generator g
    and variable j where it is nonzero, or None.  If l = a . x vanishes at
    point and l^k divides g, then d_j^(k-1) g = k! * a_j^(k-1) * l * (g/l^k)
    modulo l^2, so that gradient is zero or a multiple of a."""
    m = len(point)
    for g in gens:
        for j in range(m if k > 1 else 1):
            h = g
            for _ in range(k - 1):
                h = h.derivative(j)
            grad = [h.derivative(i).evaluate(point) for i in range(m)]
            if any(not c.is_zero() for c in grad):
                return grad
    return None


def _plane_slice_candidates(gens: List[Poly], m: int, rng: random.Random,
                            tol: Tolerance) -> List[Tuple[complex, ...]]:
    """Intersect the first two generators with a random projective 2-plane
    and return the finitely many candidate points (resultant + roots).

    This is what reaches codimension-2 components that random lines miss.
    """
    a = np.array(_random_approx_point(rng, m))
    b = np.array(_random_approx_point(rng, m))
    c = np.array(_random_approx_point(rng, m))

    def slice_poly(g: Poly) -> Poly:
        ga = g.to_approx()
        # compose with r = a + s*b + u*c by substituting linear forms in (s, u)
        acc = Poly.zero(2, "approx")
        cache = {}

        def coord_pow(i: int, k: int) -> Poly:
            key = (i, k)
            if key not in cache:
                lin = Poly(2, {(0, 0): complex(a[i]), (1, 0): complex(b[i]),
                               (0, 1): complex(c[i])}, "approx")
                out = Poly.const(2, 1, "approx")
                for _ in range(k):
                    out = out * lin
                cache[key] = out
            return cache[key]

        for e, coeff in ga.terms.items():
            term = Poly.const(2, coeff, "approx")
            for i, k in enumerate(e):
                if k:
                    term = term * coord_pow(i, k)
            acc = acc + term
        return acc

    g1 = slice_poly(gens[0])
    g2 = slice_poly(gens[1])
    if g1.degree_in(1) < 1 or g2.degree_in(1) < 1:
        return []
    res = sylvester_resultant(g1, g2)
    coeffs = [complex(x) for x in univariate_coeffs(res)]
    cmax = max((abs(x) for x in coeffs), default=0.0)
    if cmax == 0.0:
        return []
    while coeffs and abs(coeffs[-1]) < 1e-10 * cmax:
        coeffs.pop()
    if len(coeffs) < 2:
        return []
    try:
        s_roots = univariate_roots(coeffs, tol)
    except _LINE_MISSES:
        return []
    out = []
    for s0 in s_roots:
        u_coeffs = [0j] * (g1.degree_in(1) + 1)
        for (ks, ku), cf in g1.terms.items():
            u_coeffs[ku] += cf * (s0 ** ks)
        umax = max((abs(x) for x in u_coeffs), default=0.0)
        if umax == 0.0:
            continue
        while u_coeffs and abs(u_coeffs[-1]) < 1e-10 * umax:
            u_coeffs.pop()
        if len(u_coeffs) < 2:
            continue
        try:
            u_roots = univariate_roots(u_coeffs, tol)
        except _LINE_MISSES:
            continue
        for u0 in u_roots:
            pt = tuple(complex(x) for x in (a + s0 * b + u0 * c))
            if max(abs(z) for z in pt) > 1e-12:
                out.append(project_normalize(pt))
    return out


def _point_stream(v: Variety, count: int, seed: int,
                  tol: Tolerance) -> Iterator[Tuple[complex, ...]]:
    """The sampler behind sample_points, yielding each point as soon as it
    is accepted, so a caller can stop at the first one that serves it.
    Raises SamplingExhausted once the budget runs out short of `count`.

    A float V whose pencil has numerical rank below n is all of CP^{m-1}
    to working precision and its minors are rounding noise: random points
    are drawn and the Hermitian oracle alone accepts them."""
    if v.structural in ("Empty", "Full"):
        raise SamplingExhausted(f"variety verdict is structurally {v.structural}")
    rng = random.Random(seed)
    clean = 0.1 * tol.abs_eps  # acceptance bar, well above the polish target
    found = 0
    budget = SAMPLING_BUDGET * count
    if _rank_deficient(v, seed):
        for _ in range(budget):
            cand = project_normalize(_random_approx_point(rng, v.m))
            if v.hermitian_residual(cand) <= clean:
                found += 1
                yield cand
                if found >= count:
                    return
        if found < count:
            raise SamplingExhausted(f"found {found}/{count} points after {budget} draws")
        return
    _, system = _analysis_system(v)
    agens = system.polys
    if not agens:
        raise SamplingExhausted(
            "variety equals the union of its peeled hyperplanes; nothing left to sample")
    first = agens[0]
    hypersurface = len(agens) == 1

    def on_variety(cand) -> bool:  # the analysis system was just checked at cand
        return ((system is v.compiled or v.generator_residual(cand) <= clean)
                and v.hermitian_residual(cand) <= clean)

    newton_budget = 20 * count
    for _ in range(budget):
        if found >= count:
            break
        if v.mode == "exact":
            base = _random_exact_point(rng, v.m)
            direction = _random_exact_point(rng, v.m)
        else:
            base = _random_approx_point(rng, v.m)
            direction = _random_approx_point(rng, v.m)
        try:
            restriction = restrict_to_line(first, base, direction)
            roots = univariate_roots(restriction, tol)
        except _LINE_MISSES:
            continue
        base_c = [x.to_complex() if isinstance(x, ExactComplex) else complex(x)
                  for x in base]
        dir_c = [x.to_complex() if isinstance(x, ExactComplex) else complex(x)
                 for x in direction]
        for s in roots:
            if found >= count:
                break
            cand = tuple(b + s * d for b, d in zip(base_c, dir_c))
            if max(abs(z) for z in cand) < 1e-12:
                continue
            cand = project_normalize(cand)
            res0 = system.residual(cand)
            if res0 > clean:
                if hypersurface or newton_budget <= 0:
                    continue
                newton_budget -= 1
                polished = _newton_polish(system, cand, tol)
                if polished is None:
                    continue
                cand = project_normalize(polished)
                if system.residual(cand) > clean:
                    continue
            if on_variety(cand):
                found += 1
                yield cand
        if not hypersurface and found < count and newton_budget <= 0:
            break
    if found < count and not hypersurface and len(agens) >= 2:
        # spread the quota across slices: one slice meets every component,
        # and taking everything it offers would fill the sample with points
        # from whichever component comes first in the root ordering
        per_slice = max(2, count // 4)
        for _ in range(12):
            if found >= count:
                break
            taken = 0
            for cand in _plane_slice_candidates(agens, v.m, rng, tol):
                if found >= count or taken >= per_slice:
                    break
                if system.residual(cand) > clean:
                    polished = _newton_polish(system, cand, tol)
                    if polished is None:
                        continue
                    cand = project_normalize(polished)
                    if system.residual(cand) > clean:
                        continue
                if on_variety(cand):
                    found += 1
                    taken += 1
                    yield cand
    if found < count:
        raise SamplingExhausted(
            f"found {found}/{count} points after {budget} line draws")


def sample_points(v: Variety, count: int, seed: int,
                  tol: Tolerance = DEFAULT_TOL) -> List[Tuple[complex, ...]]:
    """Sample membership-verified points of the variety.

    Lines are drawn against the analysis system: the generators with their
    certified common linear factors peeled off, or, for an exact
    hypersurface, the residual of its exact split.  A single equation is
    met by random (exact, when possible) lines alone; several are solved
    by damped Gauss-Newton seeded with line roots of the first one,
    falling back to random 2-plane slices (resultant + root pairing) for
    components that lines cannot hit.  Every returned point passes
    membership with a healthy margin.
    """
    return list(_point_stream(v, count, seed, tol))


def tangent_form(v: Variety, point: Sequence, tol: Tolerance = DEFAULT_TOL) -> LinearForm:
    """Tangent hyperplane at a smooth point: coefficients are the gradient
    of the (first nonsingular) determinant generator.

    Peeled generators are preferred: on components hidden behind hyperplane
    factors the raw minors all have degenerate gradients.  They count only
    where they vanish: at a point of a peeled hyperplane their gradient is
    not tangent to anything."""
    point = project_normalize(point)
    pt = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in point]
    _, system = _analysis_system(v)
    table = system.table(pt)
    vals, scales = system.values_scales(pt, table)
    candidates = [(system, k) for k, (val, scale) in enumerate(zip(vals, scales))
                  if abs(val) <= tol.abs_eps * max(scale, 1e-300)]
    candidates += [(v.compiled, k) for k, g in enumerate(v.essential_generators)
                   if g not in system.polys]
    for compiled, k in candidates:
        grad, scale = compiled.gradient(k, pt, table if compiled is system else None)
        norm = max(abs(x) for x in grad)
        if norm > WITNESS_FACTOR * tol.abs_eps * scale:
            top = max(range(v.m), key=lambda i: abs(grad[i]))
            inv = 1.0 / grad[top]
            return LinearForm([x * inv for x in grad], 0j, normalize=False)
    raise SingularPoint("every generator gradient vanishes at the point")


_RANK_GAP_MIN = 1e3


def _gap_rank(svals: np.ndarray, ncols: int, noise_floor: float = 0.0) -> Optional[int]:
    """Numerical rank by the dominant spectral gap; None when ambiguous.

    Singular values are floored at the larger of the float-noise scale of
    the top value and the caller's noise floor (typically derived from how
    accurately the evaluation point sits on the variety), so phantom
    directions cannot inflate the rank.
    """
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


@functools.cache
def _perturbation_draws(length: int) -> np.ndarray:
    """The draws of np.random.default_rng(9173), made once: prefix-stable, so
    [:m] and [m:2m] are a fresh Generator's first two standard_normal(m)."""
    return np.random.default_rng(9173).standard_normal(length)


def _kernel_directions(v: Variety, pt: List[complex], tol: Tolerance
                       ) -> Optional[List[np.ndarray]]:
    """Numerical kernel of the generator Jacobian at pt, orthogonalized
    against the point direction.  None when the rank has no clean spectral
    gap or is not stable across two nearby evaluations (the smoothness
    guard: probing is only meaningful where the tangent data is crisp)."""
    # the peeled system gives crisp tangent data on components hidden
    # behind hyperplane components; it vanishes on all of them too
    _, system = _analysis_system(v)
    if not system.polys:
        system = v.compiled
    table = system.table(pt)
    for k in range(len(system.polys)):
        grad, gscale = system.gradient(k, pt, table)
        if max(abs(x) for x in grad) > WITNESS_FACTOR * tol.abs_eps * gscale:
            break
    else:
        # every generator is singular here (e.g. a component crossing);
        # tangent containment is not a valid test at such points
        return None
    floor = max(100.0 * system.residual(pt, table), 1e-14)
    cols = range(v.m)
    _, s1, vh = np.linalg.svd(np.array(system.jacobian(pt, cols, table), dtype=complex))
    rank = _gap_rank(s1, v.m, floor)
    if rank is None or rank == 0:
        return None
    draws = _perturbation_draws(max(2 * v.m, 64))
    pert = [z + 1e-10 * complex(c1, c2) for z, c1, c2 in zip(pt, draws[:v.m], draws[v.m:])]
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


def _witness_search_at(v: Variety, point: Sequence, rng: random.Random,
                       tol: Tolerance, radius: float,
                       probes: int = 20) -> Optional[Tuple[Tuple[complex, ...], float]]:
    """Probe the tangent space at a smooth point; an off-variety probe
    (Hermitian residual above threshold) certifies local curvature."""
    pt = [complex(x.to_complex() if isinstance(x, ExactComplex) else x)
          for x in project_normalize(point)]
    dirs = _kernel_directions(v, pt, tol)
    if dirs is None or not dirs:
        # singular point, or a zero-dimensional component whose tangent
        # space is the point itself: nothing to probe
        return None
    coeffs = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(probes * len(dirs))]).reshape(probes, len(dirs))
    combos = sum(coeffs[:, j, None] * d for j, d in enumerate(dirs))
    norms = np.array([float(np.linalg.norm(combo)) for combo in combos])
    keep = norms >= 1e-12
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.array(pt) + radius * combos[keep] / norms[keep][:, None]
    # a probe that overflowed has NaN coordinates, and a NaN residual never wins
    qs = [q for q in map(project_normalize, steps.tolist()) if all(map(cmath.isfinite, q))]
    hit = _best_probe(v.hermitian_stack(qs), WITNESS_FACTOR * tol.abs_eps)
    return None if hit is None else (qs[hit[0]], hit[1])


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

class FiniteCertificate(NamedTuple):
    """Why dim V <= 0.

    kind "ambient_dimension": V lies in CP^1 and is not all of it.
    kind "macaulay": the degree-`degree` Macaulay matrix of the minors has
    full column rank modulo the prime `prime`, with i sent to
    modp.sqrt_minus_one(prime) (see modp).  Without a hyperplane the
    minors have no common zero: V is empty.  With the Gaussian integers
    `hyperplane` = (h_0, .., h_{m-2}) the minors are restricted to the
    hyperplane H: x_{m-1} = sum_i h_i x_i, read in the coordinates
    x_0 .. x_{m-2}; then V misses H (a variety of dimension >= 1 meets
    every hyperplane), so V is finite.  For m = 3 the restricted minors
    are binary forms of degree n, and `degree` is 2n - 1.
    """

    kind: str
    hyperplane: Optional[Tuple[ExactComplex, ...]] = None
    prime: Optional[int] = None
    degree: Optional[int] = None


def _line_gcd(gens: Sequence[Poly], base: Sequence[ExactComplex],
              direction: Sequence[ExactComplex]) -> Tuple[List[ExactComplex], bool]:
    """The gcd of the restrictions s -> g(base + s*direction) of the exact
    generators (empty when all vanish), and whether some restriction keeps
    full degree.  Stops at the first generator that makes the gcd a
    constant with full degree seen: the line is then certainly missed."""
    common: List[ExactComplex] = []
    full_degree = False
    for g in gens:
        coeffs = ec_trim(univariate_coeffs(restrict_to_line(g, base, direction)))
        full_degree = full_degree or len(coeffs) == g.degree() + 1
        common = ec_gcd(common, coeffs)
        if len(common) == 1 and full_degree:
            break
    return common, full_degree


def _pencil_mod_p(pencil: PencilMatrix, p: int) -> Optional[List[List[List[int]]]]:
    """The coefficient vectors of the pencil entries modulo p; None when p
    divides a denominator."""
    rows = []
    for row in pencil.entry_forms:
        reduced = [[reduce_scalar(c, p) for c in form.coefficients] for form in row]
        if any(None in c for c in reduced):
            return None
        rows.append(reduced)
    return rows


def _restrict_mod_p(forms: List[List[List[int]]], h: Sequence[ExactComplex],
                    p: int) -> List[List[List[int]]]:
    """The reduced pencil on the hyperplane x_{m-1} = sum_i h_i x_i, in the
    coordinates x_0 .. x_{m-2}: a linear form c maps to c_i + h_i c_{m-1}.
    The map y -> (y, h . y) is injective, so this is always a hyperplane."""
    hp = [reduce_scalar(x, p) for x in h]
    return [[[(a + b * c[-1]) % p for a, b in zip(c, hp)] for c in row] for row in forms]


def _minors_mod_p(forms: List[List[List[int]]], p: int) -> List[ModPoly]:
    """The n x n minors modulo p of a reduced pencil (each entry its
    coefficient vector), in lexicographic column-subset order: multipoly's
    Laplace expansion on the integers, over monomials packed as modp packs
    them, each minor reduced modulo p once."""
    units = [1 << (EXP_BITS * i) for i in range(len(forms[0][0]))]
    entries = [[{u: a for u, a in zip(units, c) if a} for c in row] for row in forms]
    return [{e: x % p for e, x in terms.items() if x % p}
            for _, terms in minor_terms(entries, len(forms), INTEGERS)]


def _rank_deficient(v: Variety, seed: int) -> bool:
    """True when v is a float variety whose pencil, evaluated at a random
    point drawn from a stream of its own (seeded from the analysis seed),
    has a clean numerical rank below n.  Then every minor vanishes to
    working precision: V is all of CP^{m-1}, what is left of the minors
    is rounding noise, and no certificate may be read off it.  Decided
    once per variety and seed, however many callers ask."""
    if v.mode == "exact":
        return False
    if seed not in v._rank_memo:
        pencil = v.pencil
        rng = random.Random(f"rank:{seed}")
        r = _random_approx_point(rng, pencil.m)
        mat = np.array([[form.evaluate(r) for form in row] for row in pencil.entry_forms],
                       dtype=complex)
        rank = _gap_rank(np.linalg.svd(mat, compute_uv=False), pencil.n)
        v._rank_memo[seed] = rank is not None and rank < pencil.n
    return v._rank_memo[seed]


def _macaulay_certificate(v: Variety, seed: int, finite: bool = True
                          ) -> Optional[Tuple[str, FiniteCertificate]]:
    """("Empty", cert) or ("Finite", cert) from the Macaulay test modulo a
    prime, or None, which proves nothing.  The caller keeps a float pencil
    of numerical rank below n (``_rank_deficient``) away from it: the test
    would read a proof off its noise minors.

    Where t - n + 1 > m - 1 the minors themselves are tried first, for
    Empty.  Then, unless `finite` is off, their restriction to a hyperplane
    with Gaussian-integer coefficients drawn from a stream of its own
    (seeded from the analysis seed, apart from the sampler's), for Finite.
    The Macaulay rank is tried in degrees n + 1 .. n + 3; on minors in two
    variables (m = 3 on the hyperplane, m = 2 without one) in degree 2n - 1
    alone, which decides: the minors of a linear pencil in two variables
    with no common zero already span every form of degree n
    (Hilbert-Burch).  The prime is the pencil's
    (PencilMatrix.mod_p), which passes over any prime dividing a
    denominator of the pencil.
    """
    tests: List[Tuple[str, Optional[Tuple[ExactComplex, ...]]]] = []
    if v.pencil.t - v.n + 1 > v.m - 1:
        tests.append(("Empty", None))
    if finite:
        rng = random.Random(f"modp:{seed}")
        tests.append(("Finite", tuple(ExactComplex(rng.randint(-99, 99), rng.randint(-99, 99))
                                      for _ in range(v.m - 1))))
    if not tests:
        return None
    p, forms = v.pencil.mod_p()
    for tag, h in tests:
        gens = _minors_mod_p(forms if h is None else _restrict_mod_p(forms, h, p), p)
        nvars = v.m if h is None else v.m - 1
        degrees = ([2 * v.n - 1] if nvars == 2
                   else range(v.n + 1, v.n + 1 + MACAULAY_DEGREES))
        for degree in degrees:
            if macaulay_full_rank(gens, nvars, degree, p):
                return tag, FiniteCertificate("macaulay", hyperplane=h, prime=p, degree=degree)
    return None


def _dimension_verdict(v: Variety, seed: int) -> Optional["VarietyVerdict"]:
    """The verdict of a V on which the criterion cannot fire, decided with
    no sampling; None when neither finiteness nor emptiness is certified.

    A float V with m >= 3 whose pencil has numerical rank below n is all
    of CP^{m-1} to working precision, whatever t: it gets a vacuous
    Inconclusive before the Eagon-Northcott gate, so it is neither sampled
    nor certified from its noise minors."""
    if v.m <= 2:
        # not Full, so its minors leave finitely many points of CP^1
        if v.mode == "exact":
            return VarietyVerdict("Finite", certificate=FiniteCertificate("ambient_dimension"))
        return VarietyVerdict("Inconclusive",
                              reason=f"criterion vacuous: V lies in CP^{v.m - 1}")
    if _rank_deficient(v, seed):
        return VarietyVerdict("Inconclusive",
                              reason=f"criterion vacuous: V is all of CP^{v.m - 1} "
                                     "to working precision")
    # every component of V has codimension <= t - n + 1 (Eagon-Northcott),
    # so V can be finite or empty only where t - n + 1 >= m - 1
    if v.pencil.t - v.n + 1 < v.m - 1:
        return None
    found = _macaulay_certificate(v, seed)
    if found is None:
        return None
    tag, cert = found
    if v.mode == "exact":
        return VarietyVerdict(tag, certificate=cert)
    # the floats are exact dyadic rationals: the certificate holds for the
    # ensemble as given, not for the state it may approximate
    return VarietyVerdict("Inconclusive", certificate=cert,
                          reason=f"criterion vacuous: V is {tag.lower()} "
                                 "for the ensemble as given")


class VarietyVerdict:
    """Outcome of the linearity analysis.

    tag in {"Empty", "Full", "Finite", "LinearUnion", "NonlinearWitness",
    "Inconclusive"}.  Only a NonlinearWitness certifies entanglement; the
    other verdicts leave the criterion inconclusive.  "Finite" (exact
    states only) carries a FiniteCertificate that dim V <= 0, of kind
    "ambient_dimension" (V in CP^1) or "macaulay" (V misses an exact
    hyperplane): V is a finite set of points, a union of linear
    subspaces, so no witness can exist and nothing is sampled.  "Empty"
    carries one of kind "macaulay" when the minors are proved to have no
    common zero (exact states), and none when the minors are monomials
    that leave no point.  A float state whose V is certified finite or
    empty stays "Inconclusive", with the certificate and a reason saying
    so for the ensemble as given.
    """

    def __init__(self, tag: str,
                 forms: Optional[List[LinearForm]] = None,
                 factor_list: Optional[FactorList] = None,
                 point: Optional[Tuple[complex, ...]] = None,
                 tangent: Optional[LinearForm] = None,
                 residual: Optional[float] = None,
                 probe: Optional[Tuple[complex, ...]] = None,
                 reason: Optional[str] = None,
                 certificate: Optional[FiniteCertificate] = None):
        self.tag = tag
        self.forms = forms
        self.factor_list = factor_list
        self.point = point
        self.tangent = tangent
        self.residual = residual
        self.probe = probe
        self.reason = reason
        self.certificate = certificate

    @property
    def conclusion(self) -> str:
        return "entangled" if self.tag == "NonlinearWitness" else "inconclusive"

    def __repr__(self):
        extra = ""
        if self.tag == "NonlinearWitness":
            extra = f", residual={self.residual:.3e}"
        elif self.reason:
            extra = f", reason={self.reason!r}"
        return f"VarietyVerdict({self.tag}{extra})"


def nonlinearity_witness(v: Variety, samples: int = 12, seed: int = 42,
                         tol: Tolerance = DEFAULT_TOL,
                         radius: float = HYPERPLANE_RADIUS) -> VarietyVerdict:
    """Search for a smooth point whose tangent space leaves the variety.

    Points come from the sampler of sample_points (on the analysis system:
    peeled generators, or the residual of an exact hypersurface split) and
    each is probed as soon as it is accepted, so the search stops at the
    first witness.  Sound because a union of linear subspaces contains, at
    each smooth point, its own tangent space: surviving probe residuals
    certify that no such union can cut out the variety, hence (by the
    separability criterion) the state is entangled.
    """
    if v.structural in ("Empty", "Full"):
        return VarietyVerdict(v.structural)
    if v.mode == "exact":
        forms, system = _analysis_system(v)
        if forms and not system.polys:
            # every generator is a constant times the same hyperplane product:
            # the variety is certified to be exactly that union
            return VarietyVerdict("LinearUnion", forms=forms)
    if v.n == 1:
        # the minors are linear forms, and every probe's Hadamard ratio
        # would read 1, M(r) being 1 x 1
        return VarietyVerdict("Inconclusive",
                              reason="criterion vacuous: n = 1, so every minor is a "
                                     "linear form and V is a linear subspace")
    rng = random.Random(seed)
    probed = 0
    try:
        for p in _point_stream(v, samples, seed, tol):
            probed += 1
            hit = _witness_search_at(v, p, rng, tol, radius)
            if hit is None:
                continue
            try:
                tangent = tangent_form(v, p, tol)
            except SingularPoint:
                continue
            q, res = hit
            return VarietyVerdict("NonlinearWitness", point=tuple(p),
                                  tangent=tangent, residual=res, probe=q)
    except SamplingExhausted as exc:
        return VarietyVerdict("Inconclusive", reason=f"sampling exhausted: {exc}")
    return VarietyVerdict("Inconclusive",
                          reason=f"no witness found in {probed} samples")


def linearity_decide(v: Variety, seed: int = 42, samples: int = 12,
                     tol: Tolerance = DEFAULT_TOL,
                     radius: float = HYPERPLANE_RADIUS) -> VarietyVerdict:
    """Decide linearity where the exact machinery applies, otherwise fall
    back to the witness search.

    Dimension comes first, with no sampling.  In CP^1 (m <= 2) V is
    finite: "Finite" for an exact state, a vacuous Inconclusive for an
    approximate one.  For m >= 3, an approximate pencil of numerical rank
    below n, whatever t, has V all of CP^{m-1} to working precision: it is
    neither certified nor sampled, and gets a vacuous Inconclusive saying
    so.  For m >= 3 and t - n + 1 >= m - 1, the only shapes where V can be
    finite or empty (Eagon-Northcott), the Macaulay test modulo a prime
    may prove V empty ("Empty") or disjoint from an exact hyperplane
    ("Finite"); an approximate state so certified gets a vacuous
    Inconclusive with the certificate.

    Hypersurface case with at most three active variables and degree <= 6:
    exact factor extraction either splits the determinant completely into
    linear forms (LinearUnion) or leaves a residual certified to contain no
    Q(i)-linear factor, in which case the witness search probes the
    residual's zero locus; the verdict carries the factor list either way.
    """
    if v.structural in ("Empty", "Full"):
        return VarietyVerdict(v.structural)
    finite = _dimension_verdict(v, seed)
    if finite is not None:
        return finite
    _analysis_system(v)
    fl = v._factor_list
    if fl is not None and fl.full_split():
        return VarietyVerdict("LinearUnion", forms=fl.linear_factors, factor_list=fl)
    verdict = nonlinearity_witness(v, samples, seed, tol, radius)
    verdict.factor_list = fl
    return verdict


class CovarianceResult:
    """Boolean outcome plus the residual evidence behind it."""

    def __init__(self, ok: bool, max_residual: float, checked: int):
        self.ok = ok
        self.max_residual = max_residual
        self.checked = checked

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return (f"CovarianceResult(ok={self.ok}, max_residual="
                f"{self.max_residual:.3e}, checked={self.checked})")


def verify_lu_covariance(s: BipartiteState, u, samples: int = 5, seed: int = 42,
                         tol: Tolerance = DEFAULT_TOL) -> CovarianceResult:
    """Check V_A(T(rho)) = U_A^{-1}(V_A(rho)) by point mapping.

    Points r sampled on V_A(T(rho)) are pushed through r'_l = sum_i r_i
    (U_A)_{il} and must land on V_A(rho); the converse direction uses the
    inverse map.  Residuals are Hermitian-determinant residuals at the
    mapped points.  A side whose V the Macaulay test proves empty is not
    sampled: two empty sides agree, and one empty side fails the check.
    A float side whose pencil has numerical rank below n is never taken
    for empty: its V is all of CP^{m-1} to working precision.
    """
    from .states import apply_local_unitary

    threshold = WITNESS_FACTOR * tol.abs_eps
    transformed = apply_local_unitary(s, u)
    ua = u.u_a.to_numpy()
    fwd = ua.T                      # r -> r' = U_A^T r
    bwd = ua.conj()                 # inverse direction: ((U_A)^T)^-1 = conj(U_A)
    v_orig = variety_of_state(s, "A")
    v_trans = variety_of_state(transformed, "A")
    sides = ((v_trans, v_orig, fwd), (v_orig, v_trans, bwd))
    found = [v.structural is None and not _rank_deficient(v, seed)
             and _macaulay_certificate(v, seed, finite=False) for v, _, _ in sides]
    empty = [bool(f) and f[0] == "Empty" for f in found]
    if all(empty):
        return CovarianceResult(True, 0.0, 0)
    max_res = 0.0
    checked = 0
    for (variety_from, variety_to, mat), skip in zip(sides, empty):
        if skip or variety_from.structural in ("Empty", "Full"):
            continue
        try:
            pts = sample_points(variety_from, samples, seed, tol)
        except SamplingExhausted:
            continue
        for p in pts:
            vec = np.array([complex(x) for x in p])
            mapped = tuple(mat @ vec)
            res = variety_to.hermitian_residual(project_normalize(mapped))
            max_res = max(max_res, res)
            checked += 1
    ok = max_res <= threshold and checked > 0 and not any(empty)
    return CovarianceResult(ok, max_res, checked)

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

The symbolic minors of an exact V are built when something first reads
them.  A float V is built and decided from its pencil alone and has no
symbolic minors (reading them raises FloatMinors): its nonzero minors
are counted numerically when the count is first read, and only t < n
makes it Full.  An exact square pencil (t = n) is expanded at once: its
one minor, det N, goes to the line peel in any number of variables.  On
an exact pencil with t > n in m >= 3 variables, a screen modulo a prime
shows that every minor is nonzero and that some minor is not a monomial.
The Macaulay certificate reads the same reduction, so a V certified
finite or empty never builds a symbolic minor; nor does the exact peel
where a certificate modulo the same prime shows, first, that nothing is
to be peeled.

Every V is sampled on its pencil, not on its minors (an exact one on its
float image; a float one of numerical rank below n at random points):
for t = n the roots of det N on a line are eigenvalues of the pencil
restricted to it, and for t > n Gauss-Newton runs on the incidence system
y^T N(r) = 0.  The generator oracle reads the pencil too, as a point is
on V exactly where rank N(r) < n: sigma_n(N(r)) / (||A|| ||r||) on the
float tensor, or the exact rank of N(p) at an exact point of an exact V,
so no oracle expands a minor.  An exact V is first peeled of the
hyperplanes it is certified to contain, found on exact lines by the one
Q(i) linear-factor finder (factorization.linear_factors, with no limit on
the number of minors, variables or degree); its samples keep off them.

Tangent data come from the pencil, not from the minors: one SVD of N(p)
gives a smoothness margin and a matrix T whose kernel is the tangent
space of V at p (_tangent_data).  The witness search takes them once per
sampled point and probes only points the pencil shows to be smooth; near
the singular or base locus of N, a probe along the tangent cone would
leave even a union of linear spaces.  A probe is a witness only where
both oracles, the Hermitian one and the pencil's (on the float image of
an exact pencil too), put it off V.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, sqrt
from typing import Generator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ArityMismatch,
    DegenerateLeadingCoefficient,
    FloatMinors,
    InconsistentRepresentations,
    NoConvergence,
    SamplingExhausted,
    SingularPoint,
    ZeroDirection,
)
from .factorization import FactorList, _random_exact_point, linear_factorization, linear_factors
from .linalg import Matrix, det_exact, rank_exact
from .modp import (
    EXP_BITS,
    RANK_PRIME,
    ModPoly,
    gcd_mod_p,
    interpolate_mod_p,
    macaulay_full_rank,
    maximal_minors_mod_p,
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
    sylvester_resultant,
    univariate_coeffs,
    univariate_roots,
)
from .scalars import DEFAULT_TOL, EC_ZERO, ExactComplex, Tolerance
from .states import BipartiteState, unit_scaled

WITNESS_FACTOR = 10.0      # witness threshold is WITNESS_FACTOR * abs_eps
HYPERPLANE_RADIUS = 0.1    # relative step when probing a tangent hyperplane
PROBES = 20                # tangent probes per sampled point
DEFAULT_SAMPLES = 12       # points the witness search samples
DEFAULT_SEED = 42
SMOOTH_MARGIN = 1e-3       # least sigma_{n-1}(N(p)) / (||A|| ||p||) at a probed point
PEELED_MARGIN = SMOOTH_MARGIN  # least |l(p)| / (||l|| ||p||) of a sample, l a peeled form
NEWTON_MAX_STEPS = 50
NEWTON_TRIES = 20          # Gauss-Newton runs per requested point
SAMPLING_BUDGET = 100      # line draws per requested point
MACAULAY_DEGREES = 3       # degrees n + 1 .. n + 3 tried by the Macaulay certificate
_SCREEN_SLACK = 1e-9       # relative margin of the probe screen in _best_probe
_ROW_FLOOR = 1e-100        # above it, squares lost to underflow are negligible
_BOUND_FLOOR = 1e-290      # partial bounds in [floor, 1 / floor] are normal floats

# what restricting to a line and root-finding raise when a draw is merely
# unlucky (degenerate restriction, zero direction, a root off its residual bar)
_LINE_MISSES = (DegenerateLeadingCoefficient, NoConvergence, ZeroDirection)


# ---------------------------------------------------------------------------
# pencil
# ---------------------------------------------------------------------------

class PencilMatrix:
    """n x t matrix of homogeneous linear forms in the m side variables.

    entries[k][l] is the tuple of the m coefficients of entry (k, l), which
    equals sum_i r_i * (A_i)[k, l]; an entry with no nonzero coefficient is
    m zeros of the pencil's kind.  An exact pencil keeps the raw ensemble
    coefficients, so the matrix printed for the worked examples matches the
    construction on the nose.  A float pencil takes each ray through
    states.unit_scaled: a power of two per column, which leaves every ratio
    downstream bit-identical but keeps the minors of very small or very
    large rays inside the float range.
    """

    def __init__(self, side: str, n_rows: int, t_cols: int, m_vars: int,
                 entries: List[List[Tuple]], kind: str, state: BipartiteState):
        self.side, self.n, self.t, self.m = side, n_rows, t_cols, m_vars
        self.entries = entries
        self.kind = kind
        self.state = state  # as given, before any swap for side B
        self._mod_p = None  # (prime, reduced coefficient vectors), found once
        self._floats = None  # (float tensor (m, n, t), ||A||), built once

    def entry_polys(self) -> List[List[Poly]]:
        """The entries of an exact pencil as linear Polys; FloatMinors on a
        float pencil, which builds no polynomial."""
        if self.kind != "exact":
            raise FloatMinors("a float pencil has no polynomial entries")
        units = [tuple(int(i == j) for j in range(self.m)) for i in range(self.m)]
        return [[Poly(self.m, dict(zip(units, e))) for e in row] for row in self.entries]

    def mod_p(self) -> Tuple[int, List[List[List[int]]]]:
        """The first prime p = 1 (mod 4) from RANK_PRIME that divides no
        denominator of the pencil, and the coefficient vectors of the
        entries modulo p.  The minor screen (exact pencils only) and the
        Macaulay test both read this one reduction."""
        if self._mod_p is None:
            for p in split_primes(RANK_PRIME):
                forms = _pencil_mod_p(self, p)
                if forms is not None:
                    self._mod_p = (p, forms)
                    break
        return self._mod_p

    @property
    def floats(self) -> Tuple[np.ndarray, float]:
        """The pencil as a complex (m, n, t) tensor A, N(r) = sum_i r_i A[i],
        and ||A||, the spectral norm of its m x nt unfolding."""
        if self._floats is None:
            rows = [[[c.to_complex() if isinstance(c, ExactComplex) else c for c in e]
                     for e in row] for row in self.entries]
            tensor = np.array(rows, dtype=complex).transpose(2, 0, 1)
            self._floats = (tensor, float(np.linalg.norm(tensor.reshape(self.m, -1), 2)))
        return self._floats

    def __repr__(self):
        return f"PencilMatrix(side={self.side}, {self.n}x{self.t} in {self.m} vars)"


def pencil_matrix(s: BipartiteState, side: str = "A") -> PencilMatrix:
    """Assemble the pencil from the ensemble blocks (side B re-blocks)."""
    state = s if side == "A" else s.swapped()
    terms = state.ensemble_terms()  # MissingEnsemble if absent
    m, n = state.m, state.n
    t = len(terms)
    exact = state.exact_ensemble
    zero = EC_ZERO if exact else 0j
    rays = [v if exact else unit_scaled(v) for _, v in terms]
    entries = []
    for k in range(n):
        row = []
        for l in range(t):
            coeffs = tuple(rays[l][i * n + k] for i in range(m))
            if all((c.is_zero() if exact else c == 0) for c in coeffs):
                coeffs = (zero,) * m
            row.append(coeffs)
        entries.append(row)
    return PencilMatrix(side, n, t, m, entries, "exact" if exact else "approx", s)


# ---------------------------------------------------------------------------
# variety
# ---------------------------------------------------------------------------

class Variety:
    """Generators, the pencil oracle and the Hermitian-form evaluator for
    one side.

    Its side, m, n, state and mode (the kind) are the pencil's.
    `generators` are the maximal minors of an exact pencil, in
    lexicographic column-subset order.  Passed as None, they are expanded
    (and checked homogeneous of degree n) on first read; `essential_count`,
    the number of nonzero minors, must then be given, as the minor screen
    finds it.  A float V has no generators: reading them, or
    `essential_generators`, raises FloatMinors.  It counts its nonzero
    minors numerically (_numerical_essential) on the first read of
    `essential_count`, which no sampler, oracle or covariance check makes.
    The sampler and the generator oracle read the pencil tensor
    (PencilMatrix.floats, pencil_residuals): no minor is read there.
    The Hermitian form reads rho through the side's state, as pencil_matrix
    does: the state's float image (BipartiteState._float_images), or its
    exact density only for an exact point on an exact density.
    """

    def __init__(self, pencil: PencilMatrix, generators: Optional[List[Poly]],
                 structural: Optional[str], essential_count: Optional[int] = None):
        self.pencil = pencil
        self.side, self.m, self.n = pencil.side, pencil.m, pencil.n
        self.state, self.mode = pencil.state, pencil.kind
        self._generators = generators
        self._essential_count = essential_count
        self.structural = structural  # "Full" (t < n or exact minors) | "Empty" | None
        self._blocks = {}            # exact? -> _state_blocks(exact)
        self._analysis_cache = None  # (peeled forms, what remains; None: V's own minors)
        self._factor_list = None     # exact split of a hypersurface generator
        self._rank_memo = {}         # seed -> _rank_deficient(self, seed)

    @property
    def generators(self) -> List[Poly]:
        if self.mode != "exact":
            raise FloatMinors("a float variety is read on its pencil, not its minors")
        if self._generators is None:
            self._generators = _pencil_minors(self.pencil)
        return self._generators

    @property
    def generator_count(self) -> int:
        """C(t, n), the number of maximal minors (0 when t < n)."""
        return comb(self.pencil.t, self.n)

    @property
    def essential_count(self) -> int:
        """The number of nonzero minors, expanding none already counted; a
        float V's is numerical."""
        if self._essential_count is None:
            self._essential_count = (_numerical_essential(self.pencil) if self.mode != "exact"
                                     else len(self.essential_generators))
        return self._essential_count

    @property
    def essential_generators(self) -> List[Poly]:
        return [g for g in self.generators if not g.is_zero()]

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
        return self.hermitian_stack([_complex_point(point)])[0]

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
        stays in numpy, whose complex multiply may fuse where Python's won't.
        For n = 1, where that ratio reads 1 wherever M(r) is not 0, it is
        |M(r)| / (||rho|| ||r||^2), with ||rho|| the spectral norm."""
        mat = self.hermitian_matrix(point)
        arr = mat.to_numpy() if isinstance(mat, Matrix) else mat
        if self.n > 1:
            return _hadamard_ratio(arr)
        r = np.array(_complex_point(point))
        rho = self._state_blocks(False).reshape(self.m, self.m)
        return abs(complex(arr[0, 0])) / max(float(np.linalg.norm(rho, 2) * np.vdot(r, r).real),
                                             1e-300)

    def pencil_residuals(self, points: Sequence[Sequence]) -> np.ndarray:
        """sigma_n(N(r)) / (||A|| ||r||) at each point (complex coordinates):
        zero exactly where rank N(r) < n, that is on V, and invariant under
        scaling r or the pencil.  An exact pencil is read as its float image."""
        tensor, scale = self.pencil.floats
        pts = np.array(points, dtype=complex).reshape(-1, self.m)
        if self.pencil.t < self.n:  # V is all of CP^{m-1}
            return np.zeros(len(pts))
        svals = np.linalg.svd(np.einsum("bi,ikl->bkl", pts, tensor), compute_uv=False)
        return svals[:, self.n - 1] / np.maximum(scale * np.linalg.norm(pts, axis=1), 1e-300)

    def generator_residual(self, point: Sequence) -> float:
        """The generator oracle, sigma_n(N(r)) / (||A|| ||r||) at one point:
        zero exactly where every minor vanishes, with no minor expanded."""
        return float(self.pencil_residuals([_complex_point(point)])[0])

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


def _structural(gens: List[Poly], m: int) -> Optional[str]:
    """"Full" when every minor vanishes.  "Empty" when the nonzero minors
    are monomials among which is a pure power of every variable (then no
    nonzero support survives).  Else None."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return "Full"
    if not all(len(g.terms) == 1 for g in nonzero):
        return None
    pure = set()
    for g in nonzero:
        e = next(iter(g.terms))
        support = [i for i, k in enumerate(e) if k]
        if len(support) == 1:
            pure.add(support[0])
    return "Empty" if pure == set(range(m)) else None


def _pencil_minors(p: PencilMatrix) -> List[Poly]:
    """The maximal minors of an exact pencil, each checked homogeneous of
    degree n."""
    gens = minors(p.entry_polys(), p.n)
    for g in gens:
        if not g.is_zero() and (not g.is_homogeneous() or g.degree() != p.n):
            raise InconsistentRepresentations(
                "minor generator is not homogeneous of the pencil size")
    return gens


def _form_at(form: Sequence[int], point: Sequence[int], p: int) -> int:
    return sum(c * x for c, x in zip(form, point)) % p


def _minor_values(forms: List[List[List[int]]], point: Sequence[int],
                  p: int) -> List[int]:
    """The values modulo p of the maximal minors of a reduced pencil at a
    point, in lexicographic column-subset order: the integer kernel
    modp.maximal_minors_mod_p on the reduced N(point)."""
    return maximal_minors_mod_p([[_form_at(form, point, p) for form in row] for row in forms],
                                p)


def _minor_screen(p: PencilMatrix) -> bool:
    """True when, modulo the pencil's prime, every maximal minor of an exact
    pencil is nonzero at a random point and some minor is not a monomial.

    Reduction and evaluation are ring maps, so a nonzero value proves the
    minor nonzero over Q(i): V is not Full.  A monomial f satisfies
    f(1) f(r o r') = f(r) f(r') in any commutative ring, so one minor that
    fails it is not a monomial, and the monomial test for Empty cannot
    hold.  False proves nothing; the caller then expands the minors.  Each
    of the four points costs one run of the integer minor kernel.  Only an
    exact pencil with t > n in m >= 3 variables is screened
    (variety_generators)."""
    prime, forms = p.mod_p()
    rng = random.Random("minor-screen")
    r = [rng.randrange(1, prime) for _ in range(p.m)]
    at_r = _minor_values(forms, r, prime)
    if not all(at_r):
        return False
    r2 = [rng.randrange(1, prime) for _ in range(p.m)]
    rr2 = [a * b % prime for a, b in zip(r, r2)]
    values = zip(at_r, _minor_values(forms, [1] * p.m, prime),
                 _minor_values(forms, r2, prime), _minor_values(forms, rr2, prime))
    return any(f1 * frr2 % prime != fr * fr2 % prime for fr, f1, fr2, frr2 in values)


def _numerical_essential(p: PencilMatrix) -> int:
    """The nonzero maximal minors of a float pencil: the n-column blocks of
    N(r), r from a fixed stream of its own, of numerical rank (_gap_rank) n,
    from one stacked SVD.  A minor that is rounding noise counts as zero."""
    r = np.array(_random_approx_point(random.Random("essential"), p.m))
    at_r = np.einsum("i,ikl->kl", r, p.floats[0])
    blocks = at_r[:, list(combinations(range(p.t), p.n))].transpose(1, 0, 2)
    return sum(_gap_rank(svals, p.n) == p.n
               for svals in np.linalg.svd(blocks, compute_uv=False))


def variety_generators(p: PencilMatrix) -> Variety:
    """The variety of the pencil's maximal minors; Full when t < n.

    A float pencil is never expanded, and neither screened nor reduced
    modulo a prime here; its dimension is for _dimension_verdict alone,
    and its count of nonzero minors is taken when first read.  An exact pencil with t > n
    in m >= 3 variables is screened: where the screen passes every minor
    is nonzero and V is neither Full nor Empty by the monomial test, and
    the minors are built when something reads them.  The exact peel reads
    them only where it cannot first certify that nothing is to be peeled
    (_peel_linear_factors).  A square pencil, whose determinant the exact
    peel always splits, a pencil in m <= 2 variables, and a pencil the
    screen proves nothing about, are expanded at once.
    """
    if p.t < p.n:
        return Variety(p, [], "Full", essential_count=0)
    if p.kind != "exact":
        return Variety(p, None, None)
    if p.m >= 3 and p.t > p.n and _minor_screen(p):
        return Variety(p, None, None, essential_count=comb(p.t, p.n))
    gens = _pencil_minors(p)
    return Variety(p, gens, _structural(gens, p.m))


def variety_of_state(s: BipartiteState, side: str = "A") -> Variety:
    return variety_generators(pencil_matrix(s, side))


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def _complex_point(point: Sequence) -> List[complex]:
    return [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in point]


def project_normalize(point: Sequence):
    """Scale by the inverse of the max-modulus coordinate, the pivot (ties
    broken by lowest index): exactly 1 on an exact point, 1 within a few
    ulp on a float one, whose low bits may move if normalized again."""
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
    pt = _complex_point(point)
    mods = [abs(x) for x in pt]
    best = max(range(len(pt)), key=lambda i: (mods[i], -i))
    if mods[best] == 0:
        raise ValueError("cannot normalize the zero point")
    inv = 1.0 / pt[best]
    return tuple(x * inv for x in pt)


def _require_arity(v: Variety, point: Sequence) -> None:
    if len(point) != v.m:
        raise ArityMismatch(f"a point of CP^{v.m - 1} has {v.m} coordinates, "
                            f"not {len(point)}")


def membership(v: Variety, point: Sequence, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Point membership by both criteria, rank N(r) < n and the Hermitian
    determinant; they must agree.  An exact point of an exact V is tested
    exactly: the exact rank of N(p) and the exact determinant of M(p)."""
    _require_arity(v, point)
    point = project_normalize(point)
    if v.structural == "Full":
        return True
    if v.mode == "exact" and all(isinstance(x, ExactComplex) for x in point):
        at_p = [[sum((c * x for c, x in zip(e, point)), EC_ZERO) for e in row]
                for row in v.pencil.entries]
        on_pencil = rank_exact(Matrix.exact(at_p)) < v.n
        herm = v.hermitian_value(point)
        on_herm = herm.is_zero() if isinstance(herm, ExactComplex) else herm == 0
        detail = "exact"
    else:
        gen, herm = v.generator_residual(point), v.hermitian_residual(point)
        on_pencil, on_herm = gen <= tol.abs_eps, herm <= tol.abs_eps
        detail = f"pencil residual {gen:.3e}, Hermitian residual {herm:.3e}"
    if on_pencil != on_herm:
        raise InconsistentRepresentations(
            f"membership criteria disagree at {point}: rank N(r) < n {on_pencil}, "
            f"Hermitian determinant zero {on_herm} ({detail})")
    return on_pencil


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


def _analysis_system(v: Variety) -> Tuple[List[LinearForm], Optional[List[Poly]]]:
    """The certified linear factors peeled off the generators of an exact
    V, and the generators that remain, None where nothing is peeled and
    what remains is V's own minors, unexpanded (_peel_linear_factors);
    peeled once and cached on the variety.  The sampler reads the peeled
    forms, to keep its points off them, and whether anything remains."""
    if v._analysis_cache is None:
        v._analysis_cache = _peel_linear_factors(v)
    return v._analysis_cache


def _peel_linear_factors(v: Variety) -> Tuple[List[LinearForm], Optional[List[Poly]]]:
    """Peel exact common linear factors off the generators of an exact V.

    A hyperplane dividing every minor is a full linear component of the
    variety; random lines land on it constantly, hiding any codimension-2
    components behind it from the sampler.  Each peeled hyperplane is
    verified by exact division first, so the result is a certificate, not
    a guess.

    For t > n, the Cauchy-Binet certificate (_cauchy_binet_certificate,
    on a line from a stream of its own) may prove before any minor is
    expanded that the minors share no factor, which is the line peel's own
    stop rule, certified; then ([], None) is returned: nothing peeled, V's
    own minors remain.  Otherwise the minors are read and go to the line
    peel (factorization.linear_factors), one generator or several.

    One generator, an exact hypersurface, is split into its factor list
    (linear_factorization), which is kept on the variety.  When a residual
    survives, the system is that residual, whose zero locus is the only
    place a witness can live.  A full split is left unpeeled:
    linearity_decide reports it from the factor list, and its hyperplanes
    stay open to sampling.
    """
    pencil = v.pencil
    if pencil.t > v.n:
        rng = random.Random("cauchy-binet")
        base, direction = _random_exact_point(rng, v.m), _random_exact_point(rng, v.m)
        if _cauchy_binet_certificate(pencil, base, direction, rng):
            return [], None
    gens = v.essential_generators
    if len(gens) != 1:
        return linear_factors(gens, v.m)
    fl = v._factor_list = linear_factorization(gens[0])
    return ([], gens) if fl.residual is None else (fl.linear_factors, [fl.residual])


def _cauchy_binet_certificate(p: PencilMatrix, base: Sequence[ExactComplex],
                              direction: Sequence[ExactComplex], rng: random.Random) -> bool:
    """True when the maximal minors of an exact pencil with t > n are
    proved to share no factor over Q(i); False proves nothing.  No minor is
    expanded.

    Modulo the pencil's prime, f_k(s) = det(N(base + s direction) W_k)
    for two t x n matrices W_k with entries from rng, each a polynomial of
    degree at most n taken from n + 1 values.  By Cauchy-Binet f_k is
    sum_S det(W_k[S]) minor_S(base + s direction).  Suppose the minors have
    a common factor g of positive degree, primitive over Z[i] (Gauss's
    lemma: each minor is g times a form over Z[i] with the pencil's
    denominators, which p does not divide).  Where some f_k has degree n,
    its leading coefficient sum_S det(W_k[S]) minor_S(direction) is nonzero,
    so g(direction) is nonzero modulo p, and g restricted to the line,
    of positive degree modulo p, divides f_1 and f_2.  So a constant
    gcd(f_1, f_2) with some f_k of degree n proves there is no g."""
    prime, forms = p.mod_p()
    at_line = [[[_form_at(f, point, prime) for f in row] for row in forms]
               for point in ([reduce_scalar(x, prime) for x in pt] for pt in (base, direction))]
    fs = []
    for _ in range(2):
        cols = [[rng.randrange(prime) for _ in range(p.t)] for _ in range(p.n)]
        pb, pd = ([[sum(a * w for a, w in zip(row, col)) % prime for col in cols]
                   for row in at] for at in at_line)
        values = [maximal_minors_mod_p([[x + s * y for x, y in zip(rb, rd)]
                                        for rb, rd in zip(pb, pd)], prime)[0]
                  for s in range(p.n + 1)]
        fs.append(interpolate_mod_p(values, prime))
    return len(gcd_mod_p(fs[0], fs[1], prime)) == 1 and any(f[-1] for f in fs)


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


def _line_roots(v: Variety, base: np.ndarray, direction: np.ndarray) -> Optional[np.ndarray]:
    """The roots s of det N(base + s direction) for a square float pencil:
    the eigenvalues of -N(direction)^-1 N(base), with no determinant
    polynomial.  None where N(direction) is singular or the eigenvalues
    cannot be taken; the line then has fewer than n finite roots."""
    tensor = v.pencil.floats[0]
    at_base = np.einsum("i,ikl->kl", base, tensor)
    at_direction = np.einsum("i,ikl->kl", direction, tensor)
    try:
        return np.linalg.eigvals(np.linalg.solve(at_direction, -at_base))
    except np.linalg.LinAlgError:
        return None


def _incidence_point(v: Variety, start: np.ndarray, tol: Tolerance) -> Optional[np.ndarray]:
    """A point r of V near `start`, or None: damped Gauss-Newton with lstsq
    steps on the t bilinear equations y^T N(r) / ||A|| = 0 of the incidence
    variety {(r, y) : y^T N(r) = 0} (Bates, Hauenstein, Peterson and
    Sommese 2009).  r and y are pinned in the charts of their max-modulus
    coordinates at the start, and y starts as the left singular vector of
    N(start) for its smallest singular value.  The run stops at ||f|| <=
    1e-4 abs_eps, a thousand times above the system's float floor, or
    where a step no longer lowers ||f||; r is returned if ||f|| is then
    within half the sampler's acceptance bar, which, as ||y|| >= 1 and
    ||r|| >= 1, bounds the pencil oracle at r."""
    tensor, scale = v.pencil.floats
    m, n = v.m, v.n
    unit = tensor / scale
    pin_r = int(np.argmax(np.abs(start)))
    r = start / start[pin_r]
    y = np.linalg.svd(np.einsum("i,ikl->kl", r, unit))[0][:, n - 1].conj()
    pin_y = int(np.argmax(np.abs(y)))
    y = y / y[pin_y]
    free_r, free_y = np.arange(m) != pin_r, np.arange(n) != pin_y

    def equations(rr, yy):
        at = np.einsum("i,ikl->kl", rr, unit)
        f = yy @ at
        return at, f, float(np.linalg.norm(f))

    target = 1e-4 * tol.abs_eps
    at, f, fnorm = equations(r, y)
    for _ in range(NEWTON_MAX_STEPS):
        if fnorm <= target:
            return r
        jac = np.hstack([np.einsum("k,ikl->li", y, unit)[:, free_r], at.T[:, free_y]])
        step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        dr, dy = np.zeros(m, dtype=complex), np.zeros(n, dtype=complex)
        dr[free_r], dy[free_y] = step[:m - 1], step[m - 1:]
        for damp in range(9):
            cand_r, cand_y = r + dr / 2 ** damp, y + dy / 2 ** damp
            cand = equations(cand_r, cand_y)
            if cand[2] < fnorm:
                r, y, (at, f, fnorm) = cand_r, cand_y, cand
                break
        else:
            break
    return r if fnorm <= 0.05 * tol.abs_eps else None


def _on_peeled_note(on_peeled: int) -> str:
    return f"; {on_peeled} on peeled hyperplanes" if on_peeled else ""


def _point_stream(v: Variety, count: int, seed: int,
                  tol: Tolerance) -> Generator[Tuple[complex, ...], None, int]:
    """The sampler behind sample_points, yielding each point as soon as it
    is accepted, so a caller can stop at the first one that serves it.
    Raises SamplingExhausted once the budget runs out short of `count`;
    otherwise returns the number of candidates rejected on peeled
    hyperplanes.

    Candidates come from one of three sources.  A float V whose pencil has
    numerical rank below n is all of CP^{m-1} to working precision: random
    points, which the Hermitian oracle alone accepts.  Every other V is
    sampled on its pencil tensor (an exact pencil as its float image): for
    t = n the roots of det N on random lines (_line_roots), for t > n the
    incidence system from random starts (_incidence_point), NEWTON_TRIES
    per requested point; both oracles must accept.  An exact V is first
    peeled (_analysis_system): a candidate whose relative distance
    |l(p)| / (||l|| ||p||) to a peeled form l is below PEELED_MARGIN is
    rejected, as V there is a peeled hyperplane, linear already."""
    if v.structural in ("Empty", "Full"):
        raise SamplingExhausted(f"variety verdict is structurally {v.structural}")
    rng = random.Random(seed)
    deficient = _rank_deficient(v, seed)
    normals: Optional[np.ndarray] = None
    if v.mode == "exact":
        forms, rest = _analysis_system(v)
        if rest is not None and not rest:
            raise SamplingExhausted(
                "variety equals the union of its peeled hyperplanes; nothing left to sample")
        if forms:
            normals = np.array([_complex_point(f.coefficients) for f in forms])
            normals /= np.linalg.norm(normals, axis=1)[:, None]
    if deficient:
        draws, unit = SAMPLING_BUDGET * count, "draws"

        def candidates() -> List[List[complex]]:
            return [_random_approx_point(rng, v.m)]
    elif v.pencil.t == v.n:
        draws, unit = SAMPLING_BUDGET * count, "line draws"

        def candidates() -> List[List[complex]]:
            base = np.array(_random_approx_point(rng, v.m))
            direction = np.array(_random_approx_point(rng, v.m))
            roots = _line_roots(v, base, direction)
            return [] if roots is None else [(base + s * direction).tolist()
                                             for s in roots.tolist()]
    else:
        draws, unit = NEWTON_TRIES * count, "incidence tries"

        def candidates() -> List[List[complex]]:
            r = _incidence_point(v, np.array(_random_approx_point(rng, v.m)), tol)
            return [] if r is None else [r.tolist()]
    clean = 0.1 * tol.abs_eps
    found = on_peeled = 0
    for _ in range(draws):
        for cand in candidates():
            if max(abs(z) for z in cand) < 1e-12:
                continue
            cand = project_normalize(cand)
            if normals is not None and (
                    np.abs(normals @ cand) < PEELED_MARGIN * np.linalg.norm(cand)).any():
                on_peeled += 1
                continue
            if ((deficient or v.generator_residual(cand) <= clean)
                    and v.hermitian_residual(cand) <= clean):
                found += 1
                yield cand
                if found >= count:
                    return on_peeled
    raise SamplingExhausted(f"found {found}/{count} points after {draws} {unit}"
                            + _on_peeled_note(on_peeled))


def sample_points(v: Variety, count: int, seed: int,
                  tol: Tolerance = DEFAULT_TOL) -> List[Tuple[complex, ...]]:
    """Sample `count` membership-verified points of the variety, with no
    minor expanded for them (_point_stream).  Every returned point passes
    both oracles with a healthy margin, the Hermitian one alone where the
    pencil has numerical rank below n, and keeps off the hyperplanes the
    exact peel of an exact V certified (the certified common linear factors
    of its generators, or the linear factors of an exact hypersurface
    split)."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    return list(_point_stream(v, count, seed, tol))


def tangent_form(v: Variety, point: Sequence) -> LinearForm:
    """A tangent hyperplane at a smooth point: the first row of the
    pencil's tangent matrix T (_tangent_data), scaled so its largest
    coefficient is 1 (_row_form).  For t = n, T is the gradient of det N up
    to scale.  Raises SingularPoint where the pencil does not show the
    point smooth."""
    _require_arity(v, point)
    data = _tangent_data(v, project_normalize(point))
    if data is None:
        raise SingularPoint("the pencil does not show the point smooth")
    return _row_form(data[0][0])


def _row_form(row: np.ndarray) -> LinearForm:
    """A row of T as a form whose first largest coefficient is 1."""
    coeffs = row.tolist()
    top = max(range(len(coeffs)), key=lambda i: abs(coeffs[i]))
    inv = 1.0 / coeffs[top]
    return LinearForm([x * inv for x in coeffs], 0j, normalize=False)


_RANK_GAP_MIN = 1e3


def _gap_rank(svals: np.ndarray, ncols: int) -> Optional[int]:
    """Numerical rank by the dominant spectral gap; None when ambiguous.

    Singular values are floored at the float-noise scale of the top value,
    so phantom directions cannot inflate the rank.
    """
    s = [max(float(x), 0.0) for x in svals] + [0.0] * (ncols - len(svals))
    if s[0] < 1e-12:
        return 0
    noise = 1e-13 * s[0]
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


def _tangent_data(v: Variety, point: Sequence
                  ) -> Optional[Tuple[np.ndarray, List[np.ndarray]]]:
    """(T, directions) at a point of V from one SVD of the pencil N(p), or
    None where the pencil does not show p smooth.

    With y spanning the left kernel of N(p) and K (t x (t - n + 1)) its
    right kernel, row j of T is (y^T A_i K_j)_i; the minors' tangent space
    at p is ker T (Harris, Algebraic Geometry, Example 14.16).  p counts
    as smooth when the margin sigma_{n-1}(N(p)) / (||A|| ||p||) is at
    least SMOOTH_MARGIN, so rank N(p) = n - 1 and p is off the base locus,
    and T has rank t - n + 1 by a clean spectral gap, so V is smooth there
    with ker T for its tangent space.  The directions are the columns of
    the orthogonal projector onto ker T and p's complement, or [] where
    that is zero: a probe P g needs no basis of ker T, which would move
    with the power-of-two column scaling of a float pencil."""
    tensor, scale = v.pencil.floats
    p = np.array(_complex_point(point))
    n, rows = v.n, v.pencil.t - v.n + 1
    if rows < 1:  # t < n: V is all of CP^{m-1}
        return None
    u, s, vh = np.linalg.svd(np.einsum("i,ikl->kl", p, tensor))
    if n > 1 and s[n - 2] < SMOOTH_MARGIN * scale * float(np.linalg.norm(p)):
        return None
    tmat = np.einsum("k,ikl,jl->ji", u[:, n - 1].conj(), tensor, vh[n - 1:].conj())
    _, st, vt = np.linalg.svd(tmat)
    if _gap_rank(st, rows) != rows:
        return None
    if rows + 1 >= v.m:
        return tmat, []
    unit = p / np.linalg.norm(p)
    span = np.vstack([vt[:rows], unit.conj()])
    proj = np.eye(v.m) - span.conj().T @ span
    return tmat, list(proj.T)


def _witness_search_at(v: Variety, point: Sequence, rng: random.Random, tol: Tolerance
                       ) -> Optional[Tuple[Tuple[complex, ...], float, np.ndarray]]:
    """Probe the tangent space at a point, from one _tangent_data: PROBES
    steps of relative length HYPERPLANE_RADIUS along P g (its projector,
    complex Gaussian g from rng).  A probe that both oracles put off V,
    its Hermitian residual and its pencil residual above threshold,
    certifies local curvature; the hit is (probe, Hermitian residual, first
    row of T) for the probe of largest Hermitian residual, or None.  Raises
    SingularPoint where the pencil does not show the point smooth."""
    pt = _complex_point(project_normalize(point))
    data = _tangent_data(v, pt)
    if data is None:
        raise SingularPoint("the pencil does not show the point smooth")
    dirs = data[1]
    if not dirs:
        # a zero-dimensional component, whose tangent space is the point
        # itself: nothing to probe
        return None
    coeffs = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(PROBES * len(dirs))]).reshape(PROBES, len(dirs))
    combos = sum(coeffs[:, j, None] * d for j, d in enumerate(dirs))
    norms = np.array([float(np.linalg.norm(combo)) for combo in combos])
    keep = norms >= 1e-12
    steps = np.array(pt) + HYPERPLANE_RADIUS * combos[keep] / norms[keep][:, None]
    qs = [project_normalize(q) for q in steps.tolist()]
    threshold = WITNESS_FACTOR * tol.abs_eps
    mats = v.hermitian_stack(qs)
    hit = _best_probe(mats, threshold)
    if hit is not None and v.generator_residual(qs[hit[0]]) <= threshold:
        # the pencil puts that probe on V, and a witness needs both oracles:
        # the best probe that both put off V is the best one left
        off = np.flatnonzero(v.pencil_residuals(qs) > threshold)
        hit = _best_probe(mats[off], threshold)
        hit = None if hit is None else (int(off[hit[0]]), hit[1])
    return None if hit is None else (qs[hit[0]], hit[1], data[0][0])


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


def _pencil_mod_p(pencil: PencilMatrix, p: int) -> Optional[List[List[List[int]]]]:
    """The coefficient vectors of the pencil entries modulo p; None when p
    divides a denominator."""
    rows = [[[reduce_scalar(c, p) for c in e] for e in row] for row in pencil.entries]
    return None if any(None in c for row in rows for c in row) else rows


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
        rng = random.Random(f"rank:{seed}")
        r = _random_approx_point(rng, v.m)
        mat = np.einsum("i,ikl->kl", np.array(r), v.pencil.floats[0])
        rank = _gap_rank(np.linalg.svd(mat, compute_uv=False), v.n)
        v._rank_memo[seed] = rank is not None and rank < v.n
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
    (exact states only) carries one of kind "macaulay" when the minors are
    proved to have no common zero, and none when the minors are monomials
    that leave no point.  A float state is "Full" only where t < n; one
    whose V is certified finite or empty stays "Inconclusive", with the
    certificate and a reason saying so for the ensemble as given.
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


def nonlinearity_witness(v: Variety, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                         tol: Tolerance = DEFAULT_TOL) -> VarietyVerdict:
    """Search for a smooth point whose tangent space leaves the variety.

    Points come from the sampler of sample_points (on the pencil, and for
    an exact V off the hyperplanes its peel certified) and each is probed
    as soon as it is accepted, so the search stops at the first witness.
    Sound because a union of linear subspaces contains, at each smooth
    point, its own tangent space: surviving probe residuals certify that
    no such union can cut out the variety, hence (by the separability
    criterion) the state is entangled.  Each point costs one
    _tangent_data (_witness_search_at), which reads smoothness off the
    pencil and gives a witness its tangent form; a point it does not show
    smooth is not probed.  An Inconclusive reason
    says how many points were skipped, and how many candidates the sampler
    rejected on peeled hyperplanes.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if v.structural in ("Empty", "Full"):
        return VarietyVerdict(v.structural)
    if v.mode == "exact":
        forms, rest = _analysis_system(v)
        if forms and not rest:
            # every generator is a constant times the same hyperplane product:
            # the variety is certified to be exactly that union
            return VarietyVerdict("LinearUnion", forms=forms)
    if v.n == 1:
        return VarietyVerdict("Inconclusive",
                              reason="criterion vacuous: n = 1, so every minor is a "
                                     "linear form and V is a linear subspace")
    rng = random.Random(seed)
    stream = _point_stream(v, samples, seed, tol)
    sampled = skipped = 0
    try:
        while True:
            p = next(stream)
            sampled += 1
            try:
                hit = _witness_search_at(v, p, rng, tol)
            except SingularPoint:
                skipped += 1
                continue
            if hit is not None:
                q, res, row = hit
                return VarietyVerdict("NonlinearWitness", point=tuple(p),
                                      tangent=_row_form(row), residual=res, probe=q)
    except StopIteration as done:  # the stream returns its count on peeled hyperplanes
        reason = f"no witness found in {sampled} samples" + _on_peeled_note(done.value)
    except SamplingExhausted as exc:
        reason = f"sampling exhausted: {exc}"
    if skipped:
        reason += f"; {skipped} not probed (not smooth)"
    return VarietyVerdict("Inconclusive", reason=reason)


def linearity_decide(v: Variety, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES,
                     tol: Tolerance = DEFAULT_TOL) -> VarietyVerdict:
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

    Exact hypersurface case: the line peel either splits the determinant
    completely into linear forms (LinearUnion) or leaves a residual, free
    of Q(i)-linear factors wherever a line certified it (linear_factors),
    in which case the witness search probes the residual's zero locus; the
    verdict carries the factor list either way.
    """
    if v.structural in ("Empty", "Full"):
        return VarietyVerdict(v.structural)
    finite = _dimension_verdict(v, seed)
    if finite is not None:
        return finite
    if v.mode == "exact":
        _analysis_system(v)
    fl = v._factor_list
    if fl is not None and fl.residual is None:
        return VarietyVerdict("LinearUnion", forms=fl.linear_factors, factor_list=fl)
    verdict = nonlinearity_witness(v, samples, seed, tol)
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


def verify_lu_covariance(s: BipartiteState, u, samples: int = 5, seed: int = DEFAULT_SEED,
                         tol: Tolerance = DEFAULT_TOL) -> CovarianceResult:
    """Check V_A(T(rho)) = U_A^{-1}(V_A(rho)) by point mapping.

    Points r sampled on V_A(T(rho)) are pushed through r'_l = sum_i r_i
    (U_A)_{il} and must land on V_A(rho); the converse direction uses the
    inverse map.  Residuals are Hermitian-determinant residuals at the
    mapped points.  A side whose V is structurally Empty or Full, or that
    the Macaulay test proves empty, is not sampled: the check then holds,
    vacuously, only if both sides carry the same verdict.  A float side of
    numerical rank below n is never taken for empty; it counts as Full.
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
    # the Empty test alone (finite=False) runs; a noise pencil is kept from it
    verdicts = [v.structural or ("Empty" if not _rank_deficient(v, seed)
                                 and _macaulay_certificate(v, seed, finite=False) else None)
                for v, _, _ in sides]
    if any(verdicts):
        verdicts = [k or ("Full" if _rank_deficient(v, seed) else None)
                    for k, (v, _, _) in zip(verdicts, sides)]
        return CovarianceResult(verdicts[0] == verdicts[1], 0.0, 0)
    max_res = 0.0
    checked = 0
    for variety_from, variety_to, mat in sides:
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
    ok = max_res <= threshold and checked > 0
    return CovarianceResult(ok, max_res, checked)


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
makes it Full.  An exact square pencil (t = n) in m >= 3 variables whose
every column is a product (a_l . r) b_l is split off its columns,
det N = det[b] * prod_l a_l . r, with no minor expanded (_column_split);
any other square pencil is expanded at once: its one minor, det N, goes
to the line peel in any number of variables.  On an exact pencil with
t > n in m >= 3 variables, a screen modulo a prime shows that every
minor is nonzero and that some minor is not a monomial.  The Macaulay
certificate reads the same reduction, so a V certified finite or empty
never builds a symbolic minor; nor does the exact peel where the binary
no-common-zero test modulo the same prime, on an exact line, shows first
that nothing is to be peeled.

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
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from math import comb
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

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
from .factorization import (
    FactorList,
    _exact_points,
    linear_factorization,
    linear_factors,
    product_factorization,
)
from .linalg import as_array, det_exact, exact_matrix, rank_exact
from .modp import (
    RANK_PRIME,
    binary_minors_coprime,
    macaulay_full_rank,
    minor_values,
    reduce_scalar,
    restrict_mod_p,
    split_primes,
)
from .multipoly import (
    CompiledSystem,
    LinearForm,
    Poly,
    minors,
    sylvester_resultant,
    univariate_coeffs,
    univariate_roots,
)
from .scalars import DEFAULT_TOL, ExactComplex, Tolerance
from .states import BipartiteState, Stream, _complex_gaussians, _fixed_draw, apply_local_unitary

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
KEPT_GAUSSIANS = 1024      # complex Gaussians kept per seed for the sampler and the probes

# what restricting to a line and root-finding raise when a draw is merely
# unlucky (degenerate restriction, zero direction, a root off its residual bar)
_LINE_MISSES = (DegenerateLeadingCoefficient, NoConvergence, ZeroDirection)


# ---------------------------------------------------------------------------
# pencil
# ---------------------------------------------------------------------------

class PencilMatrix:
    """n x t matrix of homogeneous linear forms in the m side variables.

    `coeffs` is one C-contiguous, read-only (n, t, m) array: coeffs[k, l]
    holds the m coefficients of entry (k, l), which equals
    sum_i r_i * (A_i)[k, l].  Its dtype gives the kind: ExactComplex
    objects for an exact pencil, the raw ensemble coefficients, so the
    matrix printed for the worked examples matches the construction on the
    nose; complex numbers for a float one, cut from the state's unit-scaled
    rays (BipartiteState.unit_rays): a power of two per column, which
    leaves every ratio downstream bit-identical but keeps the minors of
    very small or very large rays inside the float range.  The float
    tensor (floats) and the reduction modulo p (mod_p) are cached
    properties of it.
    """

    def __init__(self, side: str, coeffs: np.ndarray, state: BipartiteState):
        coeffs.flags.writeable = False
        self.side, self.coeffs = side, coeffs
        self.n, self.t, self.m = coeffs.shape
        self.kind = "exact" if coeffs.dtype == object else "approx"
        self.state = state  # as given, before any swap for side B

    def entry_polys(self) -> List[List[Poly]]:
        """The entries of an exact pencil as linear Polys; FloatMinors on a
        float pencil, which builds no polynomial."""
        if self.kind != "exact":
            raise FloatMinors("a float pencil has no polynomial entries")
        units = [tuple(int(i == j) for j in range(self.m)) for i in range(self.m)]
        return [[Poly(self.m, dict(zip(units, e))) for e in row] for row in self.coeffs.tolist()]

    @cached_property
    def mod_p(self) -> Tuple[int, np.ndarray]:
        """The first prime p = 1 (mod 4) from RANK_PRIME that divides no
        denominator of the pencil, and the coefficient vectors of the
        entries modulo p (_pencil_mod_p).  The minor screen and the peel's
        certificate (exact pencils only) and the Macaulay test all read it."""
        for p in split_primes(RANK_PRIME):
            forms = _pencil_mod_p(self, p)
            if forms is not None:
                return p, forms

    @cached_property
    def floats(self) -> Tuple[np.ndarray, float]:
        """The pencil as a complex (m, n, t) tensor A, N(r) = sum_i r_i A[i],
        and ||A||, the spectral norm of its m x nt unfolding: a transpose of
        the coefficients, an exact pencil's rounded (complex(c)).  ||A|| is
        the first of the unfolding's singular values, which come sorted;
        np.linalg.norm(., 2) takes the amax of the same values."""
        tensor = self.coeffs.astype(complex, copy=False).transpose(2, 0, 1)
        return tensor, float(np.linalg.svd(tensor.reshape(self.m, -1), compute_uv=False)[0])

    def __repr__(self):
        return f"PencilMatrix(side={self.side}, {self.n}x{self.t} in {self.m} vars)"


def pencil_matrix(s: BipartiteState, side: str = "A") -> PencilMatrix:
    """Assemble the pencil from the ensemble blocks (side B re-blocks): the
    side's rays, exact or unit-scaled, reshaped, ray l holding entry
    (k, l)'s coefficient i at i * n + k, and copied C-contiguous.  A float
    entry whose coefficients are all zero (-0.0 parts too) becomes 0j."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    state = s if side == "A" else s.swapped()
    terms = state.ensemble_terms()  # MissingEnsemble if absent
    exact = state.exact_ensemble
    rays = np.array([v for _, v in terms], dtype=object) if exact else state.unit_rays
    coeffs = rays.reshape(len(terms), state.m, state.n).transpose(2, 0, 1).copy()
    if not exact:
        coeffs[(coeffs == 0).all(axis=2)] = 0j
    return PencilMatrix(side, coeffs, s)


# ---------------------------------------------------------------------------
# variety
# ---------------------------------------------------------------------------

class Variety:
    """Generators, the pencil oracle and the Hermitian-form evaluator for
    one side, built from its pencil alone: side, m, n, state and mode (the
    kind) are the pencil's, and so is all it knows at once.  For t < n V is
    structurally Full, with no minors and a nonzero count of 0.  A float V
    has no generators (reading them, or `essential_generators`, raises
    FloatMinors) and counts its nonzero minors numerically
    (_numerical_essential) on the first read of `essential_count`, which no
    sampler, oracle or covariance check makes.  `generators` are the maximal
    minors of an exact pencil, in lexicographic column-subset order, checked
    homogeneous of degree n.  With t > n in m >= 3 variables, where the
    screen modulo a prime (_minor_screen) shows all C(t, n) of them nonzero
    and V neither Full nor Empty, they are expanded on first read.  So they
    are with t = n in m >= 3 variables where every column of the pencil is
    a product: det N is then split off the columns at build (_column_split)
    and kept for the peel as `split`, None on any other V.  Any other exact
    pencil expands them at once and reads `structural` off them.
    Each derived value (generators, essential_count, rank_deficient, the
    peel behind _analysis_system) is a cached property, which the build
    assigns where it already knows the value.
    The sampler and the generator oracle read the pencil tensor
    (PencilMatrix.floats, pencil_residuals): no minor is read there.
    The Hermitian form reads rho through the side's state, as pencil_matrix
    does: the state's float image (BipartiteState.float_images), or its
    exact density only for an exact point on an exact density.
    """

    def __init__(self, pencil: PencilMatrix):
        self.pencil = pencil
        self.side, self.m, self.n = pencil.side, pencil.m, pencil.n
        self.state, self.mode = pencil.state, pencil.kind
        self.structural = None  # "Full" | "Empty" where the build decides it
        self.split = None       # det N's factor list off product columns (_column_split)
        if pencil.t < pencil.n:
            self.essential_count, self.structural = 0, "Full"
        elif self.mode == "exact":
            if pencil.m >= 3 and pencil.t > pencil.n and _minor_screen(pencil):
                self.essential_count = comb(pencil.t, pencil.n)
            elif pencil.m >= 3 and pencil.t == pencil.n and (
                    split := _column_split(pencil)) is not None:
                self.split, self.essential_count = split, 1
            else:
                self.structural = _structural(self.generators, self.m)

    @cached_property
    def generators(self) -> List[Poly]:
        if self.mode != "exact":
            raise FloatMinors("a float variety is read on its pencil, not its minors")
        if self.pencil.t < self.n:
            return []
        gens = minors(self.pencil.entry_polys(), self.n)
        for g in gens:
            if not g.is_zero() and (not g.is_homogeneous() or g.degree() != self.n):
                raise InconsistentRepresentations(
                    "minor generator is not homogeneous of the pencil size")
        return gens

    @property
    def generator_count(self) -> int:
        """C(t, n), the number of maximal minors (0 when t < n)."""
        return comb(self.pencil.t, self.n)

    @cached_property
    def essential_count(self) -> int:
        """The number of nonzero minors, expanding none already counted; a
        float V's is numerical."""
        return (_numerical_essential(self.pencil) if self.mode != "exact"
                else len(self.essential_generators))

    @property
    def essential_generators(self) -> List[Poly]:
        return [g for g in self.generators if not g.is_zero()]

    @cached_property
    def _peeled(self) -> Tuple[List[LinearForm], Optional[List[Poly]], Optional[FactorList]]:
        return _peel_linear_factors(self)

    @cached_property
    def rank_deficient(self) -> bool:
        """True when V is a float variety whose pencil, evaluated at a
        random point drawn from the fixed stream "rank", has a clean
        numerical rank below n.  Then every minor vanishes to working
        precision: V is all of CP^{m-1}, what is left of the minors is
        rounding noise, and no certificate may be read off it."""
        if self.mode == "exact":
            return False
        r = _fixed_draw(_complex_gaussians, "rank", self.m)
        mat = np.einsum("i,ikl->kl", r, self.pencil.floats[0])
        rank = _gap_rank(np.linalg.svd(mat, compute_uv=False), self.n)
        return rank is not None and rank < self.n

    # -- Hermitian-form evaluator (the independent membership oracle) ------

    def _state_blocks(self, exact: bool) -> np.ndarray:
        """rho as (m, n, m, n) blocks, [i, r, j, c] = (rho_ij)[r, c], a
        reshape view of a density of this side's state (side B: the swapped
        state, rounded on its own): the exact entries as an object array
        when `exact` and the density is exact, else the float image that
        spectra and PPT read."""
        base = self.state if self.side == "A" else self.state.swapped()
        exact = exact and base.density_matrix().dtype == object
        rho = base.density_matrix() if exact else base.float_images[0]
        return rho.reshape(self.m, self.n, self.m, self.n)

    def hermitian_matrix(self, point: Sequence):
        """M(r) = sum_ij r_i conj(r_j) rho_ij: an exact matrix for an exact
        point on an exact density, else a complex numpy array; one einsum
        (_hermitian_forms) serves both."""
        exact = self.mode == "exact" and all(isinstance(x, ExactComplex) for x in point)
        blocks = self._state_blocks(exact)
        if blocks.dtype == object:
            return exact_matrix(_hermitian_forms(np.array([point], dtype=object), blocks)[0])
        return self.hermitian_stack([point])[0]

    def hermitian_stack(self, points: Sequence[Sequence]) -> np.ndarray:
        """The float M(r) of each point (complex coordinates), shape (b, n, n)."""
        pts = np.array(points, dtype=complex).reshape(-1, self.m)
        return _hermitian_forms(pts, self._state_blocks(False))

    def hermitian_residuals(self, points: Sequence[Sequence]) -> np.ndarray:
        """The Hermitian oracle, the one float one: |det M(r)| over the Hadamard
        bound of M(r) at each point, by one hermitian_stack and one
        _hadamard_ratios, each the bits of a stack of one (an exact point on
        an exact density reads its exact M(p), rounded).  For n = 1, where that
        ratio is 1 wherever M(r) is not 0, it is |M(r)| / (||rho||_2 ||r||^2),
        by hypot and each row's vdot: the bits of that formula in Python floats."""
        exact = self.mode == "exact" and any(isinstance(x, ExactComplex) for p in points for x in p)
        mats = (np.array([as_array(self.hermitian_matrix(p)) for p in points]) if exact
                else self.hermitian_stack(points))
        if self.n > 1:
            return _hadamard_ratios(mats)
        cell, rho = mats[:, 0, 0], self._state_blocks(False).reshape(self.m, self.m)
        sq = np.array([np.vdot(r, r).real for r in np.array(points, dtype=complex)])
        return np.hypot(cell.real, cell.imag) / np.maximum(np.linalg.norm(rho, 2) * sq, 1e-300)

    def hermitian_residual(self, point: Sequence) -> float:
        """hermitian_residuals on a stack of one."""
        return float(self.hermitian_residuals([point])[0])

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
        return float(self.pencil_residuals([point])[0])

    def __repr__(self):
        return (f"Variety(side={self.side}, {self.generator_count} generators "
                f"of degree {self.n} in CP^{self.m - 1}, mode={self.mode})")


def _hermitian_forms(points: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_ij r_i conj(r_j) blocks[i, :, j, :] for each row r of points, over
    complex or ExactComplex (object) arrays alike."""
    w = np.einsum("bi,bj->bij", points, points.conj())
    return np.einsum("bij,irjc->brc", w, blocks)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row (last axis) of a complex array, bit for
    bit: numpy's own formula for a complex vector, sqrt(re . re + im . im),
    each dot a matmul of a strided view of the row's parts, never a copy (a
    contiguous dot may sum in another order).  A square past the float
    range reads inf and warns, as in norm."""
    re, im = rows.real, rows.imag
    return np.sqrt((re[..., None, :] @ re[..., None] + im[..., None, :] @ im[..., None])[..., 0, 0])


def _hadamard_ratios(mats: np.ndarray) -> np.ndarray:
    """|det| over the product of the row norms (_row_norms), each at least
    1e-300, of every matrix of a (b, n, n) stack: one stacked det, |det| as
    hypot of its parts (Python's abs of a complex) and the product taken
    row by row, so each ratio is what the same steps give one matrix at a
    time.  Where the product underflows to 0 or overflows, a zero row reads
    0.0 and other rows are first scaled to unit max modulus, which leaves
    the ratio as it was and keeps det and bound in range."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        det = np.linalg.det(mats)
        bound = np.multiply.reduce(np.maximum(_row_norms(mats), 1e-300), axis=1)
        ratios = np.hypot(det.real, det.imag) / bound
        out = (bound == 0.0) | (bound == np.inf)
        if out.any():
            far = mats[out]
            peaks = np.abs(far).max(axis=2, keepdims=True)
            rows = peaks.all(axis=(1, 2))
            ratios[out] = 0.0
            # divided as real pairs: numpy's complex division overflows on a subnormal
            ratios[np.flatnonzero(out)[rows]] = _hadamard_ratios(
                (far[rows].view(float) / peaks[rows]).view(complex))
    return ratios


def _best_probe(ratios: np.ndarray, threshold: float) -> Optional[Tuple[int, float]]:
    """(k, ratios[k]) for the first k at the largest ratio above threshold,
    or None; a NaN ratio is never above it."""
    above = np.flatnonzero(ratios > threshold)
    if not len(above):
        return None
    k = int(above[np.argmax(ratios[above])])
    return k, float(ratios[k])


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


def _minor_screen(p: PencilMatrix) -> bool:
    """True when, modulo the pencil's prime, every maximal minor of an exact
    pencil is nonzero at a random point and some minor is not a monomial.

    Reduction and evaluation are ring maps, so a nonzero value proves the
    minor nonzero over Q(i): V is not Full.  A monomial f satisfies
    f(1) f(r o r') = f(r) f(r') in any commutative ring, so one minor that
    fails it is not a monomial, and the monomial test for Empty cannot
    hold.  False proves nothing; the caller then expands the minors.  The
    values at the four points (_screen_points, drawn once per prime and m)
    come from one call of modp.minor_values.  Only an exact pencil with
    t > n in m >= 3 variables is screened (Variety)."""
    prime, forms = p.mod_p
    points = _fixed_draw(_screen_points, "minor-screen", prime, p.m)
    values = minor_values(forms, points, prime).tolist()
    return all(fr for fr, *_ in values) and any(f1 * frr2 % prime != fr * fr2 % prime
                                                for fr, f1, fr2, frr2 in values)


def _column_split(p: PencilMatrix) -> Optional[FactorList]:
    """The factor list of det N for an exact square pencil whose every
    column is a product, or None.  Column l's n x m coefficient block is
    tested for rank one exactly: a nonzero pivot, and every 2 x 2 minor
    through it zero.  Then column l of N(r) is (a_l . r) b_l, with a_l the
    pivot's row and b_l its column over the pivot, and by multilinearity
    det N = det[b_1 .. b_n] * prod_l a_l . r: a hypersurface split
    completely into linear forms, certified, where det[b] != 0
    (factorization.product_factorization).  No minor is expanded."""
    rays, columns = [], []
    for block in p.coeffs.transpose(1, 0, 2).tolist():
        at = next(((k, i) for k, row in enumerate(block)
                   for i, c in enumerate(row) if not c.is_zero()), None)
        if at is None:
            return None
        k0, i0 = at
        top, pivot = block[k0], block[k0][i0]
        if any(row[i] * pivot != row[i0] * top[i] for row in block for i in range(p.m)):
            return None
        rays.append(top)
        columns.append([row[i0] / pivot for row in block])
    scale = det_exact(exact_matrix(columns))  # the b_l as rows: det of [b] transposed
    return None if scale.is_zero() else product_factorization(scale, rays)


def _numerical_essential(p: PencilMatrix) -> int:
    """The nonzero maximal minors of a float pencil: the n-column blocks of
    N(r), r from a fixed stream of its own, of numerical rank (_gap_rank) n,
    from one stacked SVD.  A minor that is rounding noise counts as zero."""
    r = _fixed_draw(_complex_gaussians, "essential", p.m)
    at_r = np.einsum("i,ikl->kl", r, p.floats[0])
    blocks = at_r[:, list(combinations(range(p.t), p.n))].transpose(1, 0, 2)
    return sum(_gap_rank(svals, p.n) == p.n
               for svals in np.linalg.svd(blocks, compute_uv=False))


def variety_of_state(s: BipartiteState, side: str = "A") -> Variety:
    return Variety(pencil_matrix(s, side))


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def project_normalize(point: Sequence):
    """Scale by the inverse of the max-modulus coordinate, the pivot (ties
    broken by lowest index): exactly 1 on an exact point, 1 within a few
    ulp on a float one, whose low bits may move if normalized again.  Any
    other point is read as complex(x) and goes to _normalize_floats."""
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
    return _normalize_floats([complex(x) for x in point])


def _normalize_floats(point: Sequence[complex]) -> Tuple[complex, ...]:
    """The float half of project_normalize, for python complex coordinates
    only, read as given: the first coordinate of largest abs is the pivot,
    and each coordinate is multiplied by 1.0 / pivot in python arithmetic
    (numpy's complex division rounds differently)."""
    mods = [abs(x) for x in point]
    top = max(mods)
    if top == 0:
        raise ValueError("cannot normalize the zero point")
    inv = 1.0 / point[mods.index(top)]
    return tuple(x * inv for x in point)


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
        on_pencil = rank_exact(v.pencil.coeffs @ np.array(point, dtype=object)) < v.n
        on_herm = det_exact(v.hermitian_matrix(point)) == 0
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


def _screen_points(rng: random.Random, prime: int, m: int) -> np.ndarray:
    """The four points of _minor_screen modulo prime: r, 1, r' and r o r'."""
    r, r2 = ([rng.randrange(1, prime) for _ in range(m)] for _ in range(2))
    return np.array([r, [1] * m, r2, [a * b % prime for a, b in zip(r, r2)]])


def _hyperplane(rng: random.Random, k: int) -> Tuple[ExactComplex, ...]:
    """The k Gaussian integers in [-99, 99] + [-99, 99] i of the Macaulay
    certificate's hyperplane."""
    return tuple(ExactComplex(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(k))


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


def _analysis_system(v: Variety) -> Tuple[List[LinearForm], Optional[List[Poly]],
                                           Optional[FactorList]]:
    """_peel_linear_factors(v) of an exact V, peeled once (a cached
    property of the variety).  The decision reads the split; the sampler
    reads the peeled forms, to keep its points off them, and whether
    anything remains."""
    return v._peeled


def _peel_linear_factors(v: Variety) -> Tuple[List[LinearForm], Optional[List[Poly]],
                                               Optional[FactorList]]:
    """Peel exact common linear factors off the generators of an exact V:
    (forms, rest, factor list), the certified linear factors, the
    generators that remain, and the factor list of a hypersurface.

    A square pencil whose det N was split off its product columns at
    build (_column_split) needs no peel: ([], None, that factor list) is
    returned, with no minor expanded and no line drawn.

    A hyperplane dividing every minor is a full linear component of the
    variety; random lines land on it constantly, hiding any codimension-2
    components behind it from the sampler.  Each peeled hyperplane is
    verified by exact division first, so the result is a certificate, not
    a guess.

    For t > n, the Cauchy-Binet certificate (_cauchy_binet_certificate,
    the binary no-common-zero test modulo the pencil's prime on an exact
    line from a stream of its own) may prove before any minor is expanded
    that the minors share no factor, which is the line peel's own stop
    rule, certified; then ([], None, None) is returned: nothing peeled,
    V's own minors remain.  Otherwise the minors are read and go to the
    line peel (factorization.linear_factors), one generator or several;
    several have no factor list.

    Any other exact hypersurface, one generator, is split into its factor
    list (linear_factorization), returned third.  When a residual survives,
    the system is that residual, whose zero locus is the only place a
    witness can live.  A full split is left unpeeled: linearity_decide reports it
    from the factor list, and its hyperplanes stay open to sampling.
    """
    if v.split is not None:
        return [], None, v.split
    pencil = v.pencil
    if pencil.t > v.n:
        base, direction = _fixed_draw(_exact_points, "cauchy-binet", 2, v.m)
        if _cauchy_binet_certificate(pencil, base, direction):
            return [], None, None
    gens = v.essential_generators
    if len(gens) != 1:
        return (*linear_factors(gens, v.m), None)
    fl = linear_factorization(gens[0])
    return ([], gens, fl) if fl.residual is None else (fl.linear_factors, [fl.residual], fl)


def _cauchy_binet_certificate(p: PencilMatrix, base: Sequence[ExactComplex],
                              direction: Sequence[ExactComplex]) -> bool:
    """True when the maximal minors of an exact pencil with t > n are
    proved to share no factor over Q(i); False proves nothing.  No minor is
    expanded: modp.binary_minors_coprime decides whether the minors of the
    reduced pencil restricted to the line through base and direction (by
    Cauchy-Binet, the restricted minors) have a common zero on P^1.

    Suppose the minors have a common factor g of positive degree, primitive
    over Z[i] (Gauss's lemma: each minor is g times a form over Z[i] with
    the pencil's denominators, which p does not divide).  Its image modulo
    p is nonzero, so on the line it either vanishes or is a binary form of
    positive degree, with a zero on P^1 over F_p-bar: either way a common
    zero.  This is the mod-p twin of factorization._line_gcd's stop rule."""
    prime, forms = p.mod_p
    line = np.array([[reduce_scalar(x, prime) for x in pt] for pt in (base, direction)])
    return binary_minors_coprime(restrict_mod_p(forms, line, prime), p.n, prime)


def _plane_slice_candidates(gens: List[Poly], m: int, rng: random.Random,
                            tol: Tolerance) -> List[Tuple[complex, ...]]:
    """Intersect the first two generators with a random projective 2-plane
    and return the finitely many candidate points (resultant + roots).

    This is what reaches codimension-2 components that random lines miss.
    """
    a, b, c = (_complex_gaussians(rng, m) for _ in range(3))

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


def _point_stream(v: Variety, count: int, seed: int, tol: Tolerance
                  ) -> Iterator[Tuple[Tuple[complex, ...], int]]:
    """The sampler behind sample_points: each point is yielded once accepted,
    with the number of candidates rejected on peeled hyperplanes by then,
    and no candidate is drawn after the last one.  Raises SamplingExhausted
    once the budget runs out short of `count`.

    Candidates come from one of three sources.  A float V whose pencil has
    numerical rank below n is all of CP^{m-1} to working precision: random
    points, which the Hermitian oracle alone accepts.  Every other V is
    sampled on its pencil tensor (an exact pencil as its float image): for
    t = n the roots of det N on random lines (_line_roots), for t > n the
    incidence system from random starts (_incidence_point), NEWTON_TRIES
    per requested point; both oracles must accept, each read once on the
    candidates of a draw (hermitian_residuals, pencil_residuals).  An exact
    V is first peeled (_analysis_system): a candidate whose relative
    distance |l(p)| / (||l|| ||p||) to a peeled form l is below
    PEELED_MARGIN is rejected, as V there is a peeled hyperplane.  Draws
    read random.Random(seed)'s Gaussians in turn (Stream); the caller keeps
    a structurally Empty or Full V away."""
    gauss = Stream(_complex_gaussians, seed, KEPT_GAUSSIANS)
    normals: Optional[np.ndarray] = None
    if v.mode == "exact":
        forms, rest, _ = _analysis_system(v)
        if rest is not None and not rest:
            raise SamplingExhausted(
                "variety equals the union of its peeled hyperplanes; nothing left to sample")
        if forms:
            normals = np.array([f.coefficients for f in forms], dtype=complex)
            normals /= np.linalg.norm(normals, axis=1)[:, None]
    if v.rank_deficient:
        draws, unit = SAMPLING_BUDGET * count, "draws"

        def candidates() -> List[List[complex]]:
            return [gauss.read(v.m).tolist()]
    elif v.pencil.t == v.n:
        draws, unit = SAMPLING_BUDGET * count, "line draws"

        def candidates() -> List[List[complex]]:
            base, direction = gauss.read(v.m), gauss.read(v.m)
            roots = _line_roots(v, base, direction)
            return [] if roots is None else [(base + s * direction).tolist()
                                             for s in roots.tolist()]
    else:
        draws, unit = NEWTON_TRIES * count, "incidence tries"

        def candidates() -> List[List[complex]]:
            r = _incidence_point(v, gauss.read(v.m), tol)
            return [] if r is None else [r.tolist()]
    clean = 0.1 * tol.abs_eps
    found = on_peeled = 0
    for _ in range(draws):
        kept = []  # (candidate, on_peeled when it was reached), off every peeled form
        for cand in candidates():
            if max(abs(z) for z in cand) < 1e-12:
                continue
            cand = _normalize_floats(cand)
            if normals is not None and (
                    np.abs(normals @ cand) < PEELED_MARGIN * np.linalg.norm(cand)).any():
                on_peeled += 1
                continue
            kept.append((cand, on_peeled))
        if kept:
            cands = [c for c, _ in kept]
            ok = (v.hermitian_residuals(cands) <= clean) & (
                v.rank_deficient or v.pencil_residuals(cands) <= clean)
            for cand, peeled in compress(kept, ok):
                found += 1
                yield cand, peeled
                if found >= count:
                    return
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
    if v.structural in ("Empty", "Full"):
        raise SamplingExhausted(f"variety verdict is structurally {v.structural}")
    return [p for p, _ in _point_stream(v, count, seed, tol)]


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
    p = np.array(point, dtype=complex)
    n, rows = v.n, v.pencil.t - v.n + 1
    if rows < 1:  # t < n: V is all of CP^{m-1}
        return None
    u, s, vh = np.linalg.svd(np.einsum("i,ikl->kl", p, tensor))
    pnorm = float(np.linalg.norm(p))
    if n > 1 and s[n - 2] < SMOOTH_MARGIN * scale * pnorm:
        return None
    tmat = np.einsum("k,ikl,jl->ji", u[:, n - 1].conj(), tensor, vh[n - 1:].conj())
    _, st, vt = np.linalg.svd(tmat)
    if _gap_rank(st, rows) != rows:
        return None
    if rows + 1 >= v.m:
        return tmat, []
    unit = p / pnorm
    span = np.vstack([vt[:rows], unit.conj()])
    proj = np.eye(v.m) - span.conj().T @ span
    return tmat, list(proj.T)


def _witness_search_at(v: Variety, pt: Sequence[complex],
                       data: Tuple[np.ndarray, List[np.ndarray]], gauss: Stream,
                       tol: Tolerance) -> Optional[Tuple[Tuple[complex, ...], float, np.ndarray]]:
    """Probe the tangent space at a smooth point pt, given its _tangent_data:
    PROBES steps of relative length HYPERPLANE_RADIUS along P g (its
    projector, complex Gaussian g from gauss).  A probe that both oracles put
    off V, its Hermitian residual and its pencil residual above threshold,
    certifies local curvature; the hit is (probe, Hermitian residual, first
    row of T) for the probe of largest Hermitian residual, or None.

    The Gaussians come from one read of the stream, PROBES rows of one
    per direction, each drawn pair by pair, real part first.  Each step's
    norm is numpy's own formula (_row_norms), and each probe is normalized
    by _normalize_floats.  The probes' Hermitian residuals are one
    hermitian_residuals, which both selections read."""
    dirs = data[1]
    if not dirs:
        # a zero-dimensional component, whose tangent space is the point
        # itself: nothing to probe
        return None
    coeffs = gauss.read(PROBES * len(dirs)).reshape(PROBES, len(dirs))
    combos = sum(coeffs[:, j, None] * d for j, d in enumerate(dirs))
    norms = _row_norms(combos)
    keep = norms >= 1e-12
    steps = np.array(pt) + HYPERPLANE_RADIUS * combos[keep] / norms[keep][:, None]
    qs = [_normalize_floats(q) for q in steps.tolist()]
    threshold = WITNESS_FACTOR * tol.abs_eps
    ratios = v.hermitian_residuals(qs)
    hit = _best_probe(ratios, threshold)
    if hit is not None and v.generator_residual(qs[hit[0]]) <= threshold:
        # the pencil puts that probe on V, and a witness needs both oracles:
        # the best probe that both put off V is the best one left
        hit = _best_probe(np.where(v.pencil_residuals(qs) > threshold, ratios, np.nan), threshold)
    return None if hit is None else (qs[hit[0]], hit[1], data[0][0])


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

class FiniteCertificate(NamedTuple):
    """Why dim V <= 0.

    kind "ambient_dimension": V lies in CP^1 and is not all of it.
    kind "macaulay": the degree-`degree` Macaulay matrix of the minors has
    full column rank modulo the prime `prime`, with i sent to
    modp.sqrt_minus_one(prime), read at lattice points (see modp) or, as a
    re-check may, on monomials: the rank is the same.  Without a hyperplane
    the minors have no common zero: V is empty.  With the Gaussian integers
    `hyperplane` = (h_0, .., h_{m-2}) the minors are restricted to the
    hyperplane H: x_{m-1} = sum_i h_i x_i, read in the coordinates
    x_0 .. x_{m-2}; then V misses H (a variety of dimension >= 1 meets
    every hyperplane), so V is finite.  For m = 3 the restricted minors
    are binary forms of degree n, and `degree` is 2n - 1; full rank there
    is decided by modp.binary_minors_coprime, without taking the rank.
    """

    kind: str
    hyperplane: Optional[Tuple[ExactComplex, ...]] = None
    prime: Optional[int] = None
    degree: Optional[int] = None


def _pencil_mod_p(pencil: PencilMatrix, p: int) -> Optional[np.ndarray]:
    """The coefficient vectors of the pencil entries modulo p, an (n, t, m)
    int64 array; None when p divides a denominator."""
    flat = [reduce_scalar(c, p) for c in pencil.coeffs.ravel().tolist()]
    return None if None in flat else np.array(flat, np.int64).reshape(pencil.coeffs.shape)


def _macaulay_certificate(v: Variety, seed: int, finite: bool = True
                          ) -> Optional[Tuple[str, FiniteCertificate]]:
    """("Empty", cert) or ("Finite", cert) from the Macaulay test modulo a
    prime, or None, which proves nothing.  The caller keeps a float pencil
    of numerical rank below n (``Variety.rank_deficient``) away from it:
    the test would read a proof off its noise minors.

    Where t - n + 1 > m - 1 the minors themselves are tried first, for
    Empty.  Then, unless `finite` is off, their restriction to a hyperplane
    with Gaussian-integer coefficients drawn from a stream of its own
    (seeded from the analysis seed, apart from the sampler's), for Finite.
    No minor is expanded.  In three or more variables the Macaulay rank is
    tried in degrees n + 1 .. n + 3, on the values of the minors at the
    lattice points of each degree (modp.macaulay_full_rank).  In two
    variables (m = 3 on the hyperplane, m = 2 without one) no rank is
    taken: modp.binary_minors_coprime decides, by a gcd of the
    interpolated minors, exactly what full rank in degree 2n - 1 decides,
    and the certificate records that degree, so it re-checks as before.
    The prime is the pencil's (PencilMatrix.mod_p), which passes over any
    prime dividing a denominator of the pencil.
    """
    tests: List[Tuple[str, Optional[Tuple[ExactComplex, ...]]]] = []
    if v.pencil.t - v.n + 1 > v.m - 1:
        tests.append(("Empty", None))
    if finite:
        tests.append(("Finite", _fixed_draw(_hyperplane, f"modp:{seed}", v.m - 1)))
    if not tests:
        return None
    p, forms = v.pencil.mod_p
    for tag, h in tests:
        # H: x_{m-1} = sum_i h_i x_i is spanned by the points e_i + h_i e_{m-1}
        # for every h, and a form c reads c_i + h_i c_{m-1} on it
        reduced = forms if h is None else restrict_mod_p(forms, np.array([
            [int(i == j) for j in range(v.m - 1)] + [reduce_scalar(x, p)]
            for i, x in enumerate(h)]), p)
        if reduced.shape[2] == 2:
            if binary_minors_coprime(reduced, v.n, p):
                return tag, FiniteCertificate("macaulay", hyperplane=h, prime=p,
                                              degree=2 * v.n - 1)
            continue
        for degree in range(v.n + 1, v.n + 1 + MACAULAY_DEGREES):
            if macaulay_full_rank(reduced, v.n, degree, p):
                return tag, FiniteCertificate("macaulay", hyperplane=h, prime=p, degree=degree)
    return None


def _dimension_verdict(v: Variety, seed: int) -> Optional["VarietyVerdict"]:
    """The verdict of a V on which the criterion cannot fire, decided with
    no sampling; None when neither finiteness nor emptiness is certified.

    A float V with m >= 3 whose pencil has numerical rank below n
    (``Variety.rank_deficient``) is all of CP^{m-1} to working precision,
    whatever t: it gets a vacuous Inconclusive before the Eagon-Northcott
    gate, so it is neither sampled nor certified from its noise minors."""
    if v.m <= 2:
        # not Full, so its minors leave finitely many points of CP^1
        if v.mode == "exact":
            return VarietyVerdict("Finite", certificate=FiniteCertificate("ambient_dimension"))
        return VarietyVerdict("Inconclusive",
                              reason=f"criterion vacuous: V lies in CP^{v.m - 1}")
    if v.rank_deficient:
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


class VarietyVerdict(NamedTuple):
    """Outcome of the linearity analysis, built once by linearity_decide.

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

    tag: str
    forms: Optional[List[LinearForm]] = None
    factor_list: Optional[FactorList] = None
    point: Optional[Tuple[complex, ...]] = None
    tangent: Optional[LinearForm] = None
    residual: Optional[float] = None
    probe: Optional[Tuple[complex, ...]] = None
    reason: Optional[str] = None
    certificate: Optional[FiniteCertificate] = None

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


def _witness_search(v: Variety, samples: int, seed: int, tol: Tolerance,
                    factor_list: Optional[FactorList] = None) -> VarietyVerdict:
    """Search for a smooth point whose tangent space leaves the variety:
    the last step of linearity_decide, whose verdict carries `factor_list`.

    Points come from the sampler of sample_points (on the pencil, and for
    an exact V off the hyperplanes its peel certified) and each is probed
    as soon as it is accepted, so the search stops at the first witness.
    Sound because a union of linear subspaces contains, at each smooth
    point, its own tangent space: surviving probe residuals certify that
    no such union can cut out the variety, hence (by the separability
    criterion) the state is entangled.  Each point costs one
    _tangent_data, which reads smoothness off the pencil and gives the
    probe (_witness_search_at) its directions and a witness its tangent
    form; a point it does not show smooth is not probed.  An Inconclusive
    reason says how many points were skipped, and how many candidates the
    sampler rejected on peeled hyperplanes.
    """
    if v.n == 1:
        return VarietyVerdict("Inconclusive", factor_list=factor_list,
                              reason="criterion vacuous: n = 1, so every minor is a "
                                     "linear form and V is a linear subspace")
    gauss = Stream(_complex_gaussians, seed, KEPT_GAUSSIANS)
    sampled = skipped = on_peeled = 0
    try:
        for p, on_peeled in _point_stream(v, samples, seed, tol):
            sampled += 1
            pt = _normalize_floats(p)
            data = _tangent_data(v, pt)
            if data is None:
                skipped += 1
                continue
            hit = _witness_search_at(v, pt, data, gauss, tol)
            if hit is not None:
                q, res, row = hit
                return VarietyVerdict("NonlinearWitness", factor_list=factor_list,
                                      point=tuple(p), tangent=_row_form(row), residual=res,
                                      probe=q)
        reason = f"no witness found in {sampled} samples" + _on_peeled_note(on_peeled)
    except SamplingExhausted as exc:
        reason = f"sampling exhausted: {exc}"
    if skipped:
        reason += f"; {skipped} not probed (not smooth)"
    return VarietyVerdict("Inconclusive", factor_list=factor_list, reason=reason)


def linearity_decide(v: Variety, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES,
                     tol: Tolerance = DEFAULT_TOL) -> VarietyVerdict:
    """The linearity verdict of V: the first of these steps to give one
    decides, and nothing is sampled before the last.

    1. `samples` must be at least 1, whatever V.
    2. Structure: a V that is structurally Empty or Full (t < n, or
       minors that leave no point or all of them) is that.
    3. Dimension (_dimension_verdict).  In CP^1 (m <= 2) V is finite:
       "Finite" for an exact state, a vacuous Inconclusive for an
       approximate one.  For m >= 3, an approximate pencil of numerical
       rank below n, whatever t, has V all of CP^{m-1} to working
       precision: it gets a vacuous Inconclusive saying so.  For m >= 3
       and t - n + 1 >= m - 1, the only shapes where V can be finite or
       empty (Eagon-Northcott), the Macaulay test modulo a prime may prove
       V empty ("Empty") or disjoint from an exact hyperplane ("Finite");
       an approximate state so certified gets a vacuous Inconclusive with
       the certificate.
    4. Split, exact V only (_analysis_system): a hypersurface (one
       nonzero minor) that splits completely into linear forms, or
       several minors that are each a constant times the same product of
       peeled hyperplanes, is certified to be that union: LinearUnion,
       with its factor list in the first case only.  A hypersurface's
       split has two sources: a square pencil of product columns, read
       off the columns at build (_column_split, certified by the
       multilinearity of det and unique factorization), and the line
       peel of its expanded determinant.
    5. The witness search (_witness_search), on what the peel leaves; the
       verdict of an exact hypersurface carries its factor list, whose
       residual is free of Q(i)-linear factors wherever a line certified
       it (linear_factors).
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if v.structural in ("Empty", "Full"):
        return VarietyVerdict(v.structural)
    verdict = _dimension_verdict(v, seed)
    if verdict is not None:
        return verdict
    fl = None
    if v.mode == "exact":
        forms, rest, fl = _analysis_system(v)
        if fl is not None and fl.residual is None:
            return VarietyVerdict("LinearUnion", forms=fl.linear_factors, factor_list=fl)
        if forms and not rest:
            return VarietyVerdict("LinearUnion", forms=forms)
    return _witness_search(v, samples, seed, tol, fl)


@dataclass(frozen=True)
class CovarianceResult:
    """Boolean outcome plus the residual evidence behind it."""

    ok: bool
    max_residual: float
    checked: int

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return (f"CovarianceResult(ok={self.ok}, max_residual="
                f"{self.max_residual:.3e}, checked={self.checked})")


def verify_lu_covariance(s: BipartiteState, u, samples: int = 5, seed: int = DEFAULT_SEED,
                         tol: Tolerance = DEFAULT_TOL) -> CovarianceResult:
    """Check V_A(T(rho)) = U_A^{-1}(V_A(rho)) by point mapping.

    Points r sampled on V_A(T(rho)) are pushed through r'_l = sum_i r_i
    (U_A)_{il} and must land on V_A(rho), by one hermitian_residuals per
    side; the converse direction uses the inverse map.  A side whose V is
    structurally Empty or Full, or that the Macaulay test proves empty, is
    not sampled: the check then holds, vacuously, only if both sides carry
    the same verdict.  A float side of numerical rank below n is never
    taken for empty; it counts as Full."""
    threshold = WITNESS_FACTOR * tol.abs_eps
    transformed = apply_local_unitary(s, u)
    ua = as_array(u.u_a)
    fwd = ua.T                      # r -> r' = U_A^T r
    bwd = ua.conj()                 # inverse direction: ((U_A)^T)^-1 = conj(U_A)
    v_orig = variety_of_state(s, "A")
    v_trans = variety_of_state(transformed, "A")
    sides = ((v_trans, v_orig, fwd), (v_orig, v_trans, bwd))
    # the Empty test alone (finite=False) runs; a noise pencil is kept from it
    verdicts = [v.structural or ("Empty" if not v.rank_deficient
                                 and _macaulay_certificate(v, seed, finite=False) else None)
                for v, _, _ in sides]
    if any(verdicts):
        verdicts = [k or ("Full" if v.rank_deficient else None)
                    for k, (v, _, _) in zip(verdicts, sides)]
        return CovarianceResult(verdicts[0] == verdicts[1], 0.0, 0)
    max_res, checked = 0.0, 0
    for variety_from, variety_to, mat in sides:
        try:
            pts = sample_points(variety_from, samples, seed, tol)
        except SamplingExhausted:
            continue
        mapped = [_normalize_floats((mat @ np.array(p)).tolist()) for p in pts]
        max_res = max([max_res, *variety_to.hermitian_residuals(mapped).tolist()])
        checked += len(mapped)
    ok = max_res <= threshold and checked > 0
    return CovarianceResult(ok, max_res, checked)


"""Bipartite mixed states: ensembles, densities, local unitaries, PPT, spectra.

A state stores an ensemble [(p_l, v_l)] and/or an mn x mn density matrix:
an exact matrix over Q(i) (``linalg.exact_matrix``), or a complex numpy
array; either is kept as a read-only copy.
Weights are probabilities summing to one; vectors are rays (any nonzero
scalar multiple of the intended unit vector) and the density is assembled
as

    rho = sum_l p_l * v_l v_l^dagger / ||v_l||^2 .

Keeping vectors unnormalized is what lets the whole exact pathway work:
1/sqrt(3)-style normalizations never leave Q(i) because only p_l/||v_l||^2
enters, and that is rational.  On the approx pathway vectors are typically
unit norm and the same formula is harmless.

A density-only state forces the approximate pathway downstream, since
recovering an ensemble requires an eigendecomposition.  A local unitary
is an exact matrix or a complex array, and every float image a state
hands on (its density, partial traces, eigenvectors) is an array; so are
a float ensemble's rays, unit-scaled once per state (``unit_rays``) for
its density and its pencil.  Each derived value is a cached property,
built on first read; ``spectral`` hands the new state what it already
holds by plain assignment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadDims,
    DimensionMismatch,
    MissingEnsemble,
    NotAState,
    NotHermitian,
)
from .linalg import (
    Decomposition,
    EigenResult,
    as_array,
    eigh_stack,
    exact_matrix,
    partial_trace,
    partial_transpose,
    psd_check,
    spectral_cutoff,
)
from .scalars import DEFAULT_TOL, ExactComplex, Tolerance, from_fields

Weight = object  # Fraction (exact) or float (approx)
Vector = Tuple[object, ...]  # ExactComplex or complex entries
SLACK = 1e3 * DEFAULT_TOL.abs_eps  # the fixed slack of a float state's or unitary's checks


def unit_rows(rays: np.ndarray) -> np.ndarray:
    """Each row of a complex (t, mn) array times 2**-e, e the binary
    exponent of its largest real or imaginary part, which then lies in
    [1/2, 1).  Scaling by a power of two is exact, so every ratio built
    from a ray keeps its bits, while its products (minors, outer products,
    norms) no longer underflow or overflow."""
    e = np.frexp(np.maximum(np.abs(rays.real), np.abs(rays.imag)).max(axis=1))[1]
    out = np.empty_like(rays)
    out.real = np.ldexp(rays.real, -e[:, None])
    out.imag = np.ldexp(rays.imag, -e[:, None])
    return out


class BipartiteState:
    """Mixed state on C^m (x) C^n in the row-major product basis, checked
    within the fixed SLACK; a caller's tolerance reaches eigen and spectral."""

    def __init__(self, m: int, n: int,
                 ensemble: Optional[List[Tuple[Weight, Sequence]]] = None,
                 density=None,  # an exact matrix or a complex array
                 label: Optional[str] = None,
                 validate: bool = True):
        if m < 1 or n < 1:
            raise BadDims(f"dimensions must be >= 1, got ({m}, {n})")
        if ensemble is None and density is None:
            raise NotAState("state needs an ensemble or a density matrix")
        self.m = m
        self.n = n
        self.label = label
        self.ensemble = None
        if ensemble is not None:
            self.ensemble = [(w, tuple(v)) for w, v in ensemble]
        if density is not None:  # a read-only copy
            if density.dtype == object:
                density = exact_matrix(density)
            else:
                density = np.array(density, dtype=complex)
                density.flags.writeable = False
        self.density = density
        if validate:
            self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self):
        mn = self.m * self.n
        if self.ensemble is not None:
            total = 0
            for idx, (w, v) in enumerate(self.ensemble):
                if len(v) != mn:
                    raise NotAState(f"ensemble vector {idx} has length {len(v)}, expected {mn}")
                if isinstance(w, bool):
                    raise NotAState(f"ensemble weight {idx} is a boolean, not a number")
                if not w > 0:  # NaN too
                    raise NotAState(f"ensemble weight {idx} must be positive")
                if not any(v):
                    raise NotAState(f"ensemble vector {idx} is zero")
                total = total + w
            if self.exact_ensemble:
                if total != 1:
                    raise NotAState(f"exact ensemble weights sum to {total}, not 1")
            elif abs(float(total) - 1.0) > SLACK:
                raise NotAState(f"ensemble weights sum to {float(total)}, not 1")
        rho = self.density
        if rho is not None:
            _check_density(rho, mn)
            if rho.dtype == object:   # exact: trace 1, rho = rho^dagger and PSD, exactly
                tr = rho.trace()
                if tr != 1:
                    raise NotAState(f"density trace is {tr.render()}, not 1")
                if not np.array_equal(rho, rho.conj().T):
                    raise NotHermitian("exact density is not Hermitian")
                psd = psd_check(rho)
            else:
                tr = complex(sum(rho.diagonal(), 0j))
                if abs(tr - 1.0) > SLACK:
                    raise NotAState(f"density trace is {tr}, not 1")
                eigs = self.eigen().eigenvalues
                psd = not eigs or min(eigs) >= -spectral_cutoff(eigs)
            if not psd:
                raise NotAState("density is not positive semidefinite")
        if self.ensemble is not None and rho is not None:
            built = density_from_ensemble(self)
            if built.dtype == object and rho.dtype == object:
                if not np.array_equal(built, rho):
                    raise NotAState("ensemble and density disagree")
            elif float(np.max(np.abs(as_array(built) - as_array(rho)))) > SLACK:
                raise NotAState("ensemble and density disagree")

    # -- representation queries --------------------------------------------

    @cached_property
    def exact_ensemble(self) -> bool:
        """True when the preferred (ensemble) pathway is fully exact."""
        return self.ensemble is not None and all(
            isinstance(w, (Fraction, int)) and all(isinstance(x, ExactComplex) for x in v)
            for w, v in self.ensemble)

    def density_matrix(self):
        """The given density, else the one built from the ensemble (an exact
        matrix or a complex array); the build runs once, since a state is
        immutable by convention."""
        return self._rho

    @cached_property
    def _rho(self):
        return density_from_ensemble(self) if self.density is None else self.density

    def eigen(self, tol: Tolerance = DEFAULT_TOL) -> EigenResult:
        """hermitian_eigen of the density's float image, read off the one
        decomposition (_decomposed) that the PSD check, the spectral
        ensemble and the spectrum share, whatever the tolerance."""
        return self._decomposed[0].eigen(tol)

    @cached_property
    def _decomposed(self) -> Tuple[Decomposition, ...]:
        """rho, rho^{T_A}, tr_B rho and tr_A rho (float_images) decomposed
        once, apart from the tolerance each reader checks: rho with rho^{T_A}
        in one stacked eigh, the partial traces in another if m = n."""
        rho, *reduced = self.float_images
        stacks = [[rho, partial_transpose(rho, self.m, self.n)]]
        stacks += [reduced] if self.m == self.n else [[x] for x in reduced]
        return tuple(d for mats in stacks for d in eigh_stack(mats))

    def spectral(self, tol: Tolerance = DEFAULT_TOL) -> "BipartiteState":
        """The state of this density with its spectral ensemble attached,
        read off this state's one decomposition (eigen), which it shares.

        Eigenvalues above ``spectral_cutoff`` are kept; their count is the
        numerical rank and the kept eigenvectors span the image.  The
        unit-scaled rays (``unit_rays``) are read off the kept eigenvector
        columns at once, with the values the ensemble's tuples hold; the
        float images are shared too.
        """
        _check_density(self.density, self.m * self.n)
        eig = self.eigen(tol)
        tr = sum(eig.eigenvalues)
        if abs(tr - 1.0) > 1e3 * tol.abs_eps:
            raise NotAState(f"trace {tr} is not 1")
        cut = spectral_cutoff(eig.eigenvalues, tol)
        if min(eig.eigenvalues) < -cut:
            raise NotAState("density has a negative eigenvalue")
        kept = [k for k, lam in enumerate(eig.eigenvalues) if lam > cut]
        ensemble = [(eig.eigenvalues[k], tuple(eig.eigenvectors[:, k].tolist())) for k in kept]
        out = BipartiteState(self.m, self.n, ensemble=ensemble, density=self.density,
                             label=self.label, validate=False)
        out._decomposed, out.float_images = self._decomposed, self.float_images
        out.unit_rays = unit_rows(np.ascontiguousarray(eig.eigenvectors[:, kept].T))
        out.unit_rays.flags.writeable = False
        return out

    @cached_property
    def _gaussian_sum(self) -> Tuple[List[List[int]], List[List[int]], int]:
        """(re, im, L), rho = (re + i*im)/L as full int matrices: the exact
        ensemble's density on Gaussian integers, summed once.  Rays are
        cleared to Z[i], v_l = V_l / d_l, so that p_l / ||v_l||^2 * v_l v_l^dagger
        = p_l / ||V_l||^2 * V_l V_l^dagger; these weights are put over one
        common denominator L and the upper triangle is summed on ints."""
        mn = self.m * self.n
        cleared = []
        for w, v in self.ensemble_terms():
            d = math.lcm(*(x.fields[2] for x in v))
            ray = [(a * (d // f), b * (d // f)) for a, b, f in (x.fields for x in v)]
            cleared.append((Fraction(w) / sum(a * a + b * b for a, b in ray), ray))
        den = math.lcm(*(c.denominator for c, _ in cleared))
        re = [[0] * mn for _ in range(mn)]
        im = [[0] * mn for _ in range(mn)]
        for c, ray in cleared:
            k = c.numerator * (den // c.denominator)
            for i, (a, b) in enumerate(ray):
                if not (a or b):
                    continue
                a, b = k * a, k * b
                re_i, im_i = re[i], im[i]
                for j in range(i, mn):
                    x, y = ray[j]
                    re_i[j] += a * x + b * y   # (a + bi)(x - yi)
                    im_i[j] += b * x - a * y
        for i in range(mn):
            for j in range(i):
                re[i][j], im[i][j] = re[j][i], -im[j][i]
        return re, im, den

    @cached_property
    def float_images(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """rho, tr_B rho and tr_A rho as complex arrays, for the spectra, the
        PPT test and the Hermitian oracle of a variety; built once.  Each
        entry is to_complex() of the exact entry wherever one exists: an
        exact ensemble's partial traces are summed on its Gaussian sum and
        every entry divided once by L (int true division rounds correctly),
        and an exact density's are summed exactly (partial_trace), then
        rounded (as_array).  A float density's are summed by the same
        partial_trace, block after block."""
        m, n = self.m, self.n
        if self.density is None and self.exact_ensemble:
            re, im, den = self._gaussian_sum
            re, im = np.array(re, dtype=object), np.array(im, dtype=object)

            def rounded(a, b) -> np.ndarray:
                z = np.empty(a.shape, dtype=complex)
                z.real, z.imag = a / den, b / den
                return z

            return (rounded(re, im), *(rounded(partial_trace(re, m, n, side),
                                               partial_trace(im, m, n, side))
                                       for side in "BA"))
        rho = self.density_matrix()
        return tuple(as_array(x) for x in (
            rho, partial_trace(rho, m, n, "B"), partial_trace(rho, m, n, "A")))

    @cached_property
    def unit_rays(self) -> np.ndarray:
        """The ensemble's rays as one read-only complex (t, mn) array, each
        row unit-scaled (unit_rows); built once, for the float density and
        the float pencil.  ExactComplex entries are rounded (complex(z))."""
        rays = unit_rows(np.array([v for _, v in self.ensemble_terms()], dtype=complex))
        rays.flags.writeable = False
        return rays

    def ensemble_terms(self) -> List[Tuple[Weight, Vector]]:
        if self.ensemble is None:
            raise MissingEnsemble(
                "state has no ensemble; call ensemble_from_density first")
        return list(self.ensemble)

    def swapped(self) -> "BipartiteState":
        """The same state on C^n (x) C^m (subsystems exchanged); built once."""
        return self._swapped

    @cached_property
    def _swapped(self) -> "BipartiteState":
        """An exact ensemble's Gaussian sum goes over with rows and columns
        permuted, (i, j) -> (j, i): the sum the swapped state would build.
        A float one's density is built anew (vdot sums in another order)."""
        m, n = self.m, self.n
        perm = [i * n + j for j in range(n) for i in range(m)]  # new (j, i) is old (i, j)
        ens = dens = None
        if self.ensemble is not None:
            ens = [(w, tuple(v[k] for k in perm)) for w, v in self.ensemble]
        if self.density is not None:  # permutation similarity
            dens = self.density[np.ix_(perm, perm)]
        out = BipartiteState(n, m, ensemble=ens, density=dens, label=self.label,
                             validate=False)
        if self.density is None and self.exact_ensemble:
            re, im, den = self._gaussian_sum
            out._gaussian_sum = ([[re[a][b] for b in perm] for a in perm],
                                 [[im[a][b] for b in perm] for a in perm], den)
        return out

    def __repr__(self):
        parts = [f"{self.m}x{self.n}"]
        if self.ensemble is not None:
            parts.append(f"ensemble[{len(self.ensemble)}]")
        if self.density is not None:
            parts.append("density")
        if self.label:
            parts.append(repr(self.label))
        return f"BipartiteState({', '.join(parts)})"


def _check_density(rho, mn: int):
    if rho.shape != (mn, mn):
        raise NotAState(f"density is {'x'.join(map(str, rho.shape))}, expected {mn}x{mn}")


class LocalUnitaryPair:
    """U_A on side A, U_B on side B, each an exact matrix or a complex
    array; the joint action is U_A (x) U_B."""

    def __init__(self, u_a, u_b, validate: bool = True):
        if u_a.shape[0] != u_a.shape[1] or u_b.shape[0] != u_b.shape[1]:
            raise DimensionMismatch("local unitaries must be square")
        self.u_a = u_a
        self.u_b = u_b
        if validate:
            for name, u in (("U_A", u_a), ("U_B", u_b)):
                if u.dtype == object:
                    if not np.array_equal(u.conj().T @ u, np.identity(len(u), dtype=int)):
                        raise NotAState(f"{name} is not exactly unitary")
                else:
                    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))
                    if defect > SLACK:
                        raise NotAState(f"{name} unitarity defect {defect:.3e}")

    @staticmethod
    def identity(m: int, n: int) -> "LocalUnitaryPair":
        return LocalUnitaryPair(*(exact_matrix(np.identity(k, dtype=int).tolist())
                                  for k in (m, n)), validate=False)

    def joint(self) -> np.ndarray:
        """U_A (x) U_B: exact when both are exact, else a complex array."""
        u_a, u_b = self.u_a, self.u_b
        if not u_a.dtype == u_b.dtype == object:
            u_a, u_b = as_array(u_a), as_array(u_b)
        return np.kron(u_a, u_b)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def density_from_ensemble(s: BipartiteState):
    """rho = A P A^dagger with A the (ray) ensemble columns and
    P = diag(p_l / ||v_l||^2); equals sum_l p_l P_{v_l} exactly.

    An exact ensemble gives an exact matrix, one from_fields per entry of
    the state's Gaussian-integer sum over L (``BipartiteState._gaussian_sum``).
    Float rays are read as the state's unit-scaled array (unit_rays) and
    summed term by term into a complex array.
    """
    mn = s.m * s.n
    if s.exact_ensemble:
        re, im, den = s._gaussian_sum
        return exact_matrix([[from_fields(a, b, den) for a, b in zip(re_i, im_i)]
                             for re_i, im_i in zip(re, im)])
    rho = np.zeros((mn, mn), dtype=complex)
    for (w, _), vec in zip(s.ensemble_terms(), s.unit_rays):
        nsq = float(np.vdot(vec, vec).real)
        rho += (float(w) / nsq) * np.outer(vec, vec.conj())
    return rho


def ensemble_from_density(rho, m: int, n: int,
                          tol: Tolerance = DEFAULT_TOL) -> BipartiteState:
    """Spectral ensemble of a density matrix (approximate pathway), an
    exact matrix or a complex array: BipartiteState.spectral."""
    return BipartiteState(m, n, density=rho, validate=False).spectral(tol)


def apply_local_unitary(s: BipartiteState, u: LocalUnitaryPair) -> BipartiteState:
    """(U_A (x) U_B) rho (U_A (x) U_B)^dagger, acting on whichever
    representations the state carries.  Probabilities are untouched; ray
    norms are preserved by unitarity."""
    if u.u_a.shape[0] != s.m or u.u_b.shape[0] != s.n:
        raise DimensionMismatch(
            f"unitary pair is {u.u_a.shape[0]}/{u.u_b.shape[0]}, state is {s.m}x{s.n}")
    t = u.joint()
    exact = t.dtype == object
    ens = dens = None
    if s.ensemble is not None and s.exact_ensemble and exact:
        ens = [(w, tuple(t @ np.array(v, dtype=object))) for w, v in s.ensemble]
    elif s.ensemble is not None:
        tf = as_array(t)
        ens = [(float(w), tuple((tf @ np.array(v, dtype=complex)).tolist()))
               for w, v in s.ensemble]
    if s.density is not None:
        rho = s.density
        if not (exact and rho.dtype == object):
            t, rho = as_array(t), as_array(rho)
        dens = t @ rho @ t.conj().T
    return BipartiteState(s.m, s.n, ensemble=ens, density=dens,
                          label=s.label, validate=False)


def ppt_check(s: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Peres criterion: is rho^{T_A} still PSD, as psd_check decides it, by
    its eigenvalues, decomposed with rho's (``BipartiteState._decomposed``)?"""
    eigs = s._decomposed[1].eigenvalues(tol)
    return min(eigs) >= -spectral_cutoff(eigs, tol)


@dataclass
class SpectraReport:
    spectrum: List[float]            # of rho, descending
    reduced_a_spectrum: List[float]  # of tr_B(rho)
    reduced_b_spectrum: List[float]  # of tr_A(rho)
    entropy: float
    entropy_reduced_a: float
    entropy_reduced_b: float


def _von_neumann(eigs: List[float], tol: Tolerance) -> float:
    cut = spectral_cutoff(eigs, tol)
    # at least +0.0: an eigenvalue rounded past 1, or a pure spectrum's -0.0
    return max(0.0, -sum(lam * math.log(lam) for lam in eigs if lam > cut))


def entropy_and_spectra(s: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> SpectraReport:
    """Spectra and von Neumann entropies of rho, tr_B rho and tr_A rho, read
    off the state's one decomposition of its float images (``_decomposed``),
    which a given density's PSD check and spectral ensemble share."""
    rho, _, tr_b, tr_a = s._decomposed
    glob, red_a, red_b = (d.eigenvalues(tol) for d in (rho, tr_b, tr_a))
    return SpectraReport(
        spectrum=glob,
        reduced_a_spectrum=red_a,
        reduced_b_spectrum=red_b,
        entropy=_von_neumann(glob, tol),
        entropy_reduced_a=_von_neumann(red_a, tol),
        entropy_reduced_b=_von_neumann(red_b, tol),
    )


# ---------------------------------------------------------------------------
# seeded random generators
# ---------------------------------------------------------------------------

def _complex_gaussians(rng: random.Random, count: int) -> np.ndarray:
    """`count` standard complex Gaussians complex(rng.gauss(0, 1),
    rng.gauss(0, 1)), bit for bit and leaving rng in the same state: the
    2 count Gaussians in the order it draws them, real part first, in one
    float array viewed as complex."""
    gauss = rng.gauss
    return np.array([gauss(0, 1) for _ in range(2 * count)]).view(complex)


@lru_cache(maxsize=256)
def _fixed_draw(draw, stream, *shape):
    """draw(random.Random(stream), *shape), drawn once per stream and shape.

    A stream seeded with a constant, or with the analysis seed as in
    f"modp:{seed}", and read once gives the same draw every time, so it is
    kept: the bound is there because a seed comes from the user.  The
    result is shared, so it is read-only: an array is flagged so, and
    anything else is a tuple.  A stream read step by step (the sampler's,
    the probes', the exact peel's) keeps its first items here (Stream)."""
    out = draw(random.Random(stream), *shape)
    if isinstance(out, np.ndarray):
        out.flags.writeable = False
    return out


class Stream:
    """Reads draw(random.Random(seed), count, *shape) count items at a time,
    each the bits the generator gives at its position, and counts them
    (consumed).  The first `kept` are drawn once per process (_fixed_draw),
    read-only; a read past them draws on a generator of the reader's own."""

    def __init__(self, draw, seed, kept: int, *shape):
        self._items = _fixed_draw(draw, seed, kept, *shape)
        self._key, self._rng, self.consumed = (draw, seed, *shape), None, 0

    def read(self, count: int):
        draw, seed, *shape = self._key
        start, self.consumed = self.consumed, self.consumed + count
        if self.consumed <= len(self._items):
            return self._items[start:self.consumed]
        if self._rng is None:  # the generator, past the items read so far
            self._rng = random.Random(seed)
            draw(self._rng, start, *shape)
        out = draw(self._rng, count, *shape)
        if isinstance(out, np.ndarray):
            out.flags.writeable = False
        return out


def random_mixed(m: int, n: int, rank: int, seed: int) -> BipartiteState:
    """Normalized Gram form of a random complex Gaussian ensemble."""
    if m < 1 or n < 1 or rank < 1:
        raise BadDims("dimensions and rank must be >= 1")
    rng = random.Random(seed)
    cols = [_complex_gaussians(rng, m * n).tolist() for _ in range(rank)]
    norms = [sum(abs(z) ** 2 for z in c) for c in cols]
    total = sum(norms)
    ensemble = [(nsq / total, tuple(c)) for nsq, c in zip(norms, cols)]
    return BipartiteState(m, n, ensemble=ensemble)


def _random_exact_entry(rng: random.Random) -> ExactComplex:
    den = rng.randint(1, 4)
    return ExactComplex(Fraction(rng.randint(-6, 6), den),
                        Fraction(rng.randint(-6, 6), den))


def random_separable(m: int, n: int, terms: int, seed: int) -> BipartiteState:
    """Random separable state: positive mixture of product rays a_u (x) b_u.

    Entries are Gaussian-rational so the state is exact and the downstream
    variety work (where separability must force a union of linear
    subspaces) stays fully symbolic.
    """
    if m < 1 or n < 1 or terms < 1:
        raise BadDims("dimensions and term count must be >= 1")
    rng = random.Random(seed)

    def rand_vec(dim: int) -> List[ExactComplex]:
        while True:
            v = [_random_exact_entry(rng) for _ in range(dim)]
            if any(not x.is_zero() for x in v):
                return v

    raw = [rng.randint(1, 9) for _ in range(terms)]
    total = sum(raw)
    ensemble = []
    for u in range(terms):
        a = rand_vec(m)
        b = rand_vec(n)
        prod = [a[i] * b[j] for i in range(m) for j in range(n)]
        ensemble.append((Fraction(raw[u], total), tuple(prod)))
    return BipartiteState(m, n, ensemble=ensemble)


def random_unitary(dim: int, rng: random.Random) -> np.ndarray:
    """Orthonormalization (modified Gram-Schmidt) of a complex Gaussian sample."""
    g = _complex_gaussians(rng, dim * dim).reshape(dim, dim)
    q = np.zeros_like(g)
    for k in range(dim):
        v = g[:, k].copy()
        for j in range(k):
            v -= np.vdot(q[:, j], v) * q[:, j]
        nv = np.linalg.norm(v)
        q[:, k] = v / nv
    return q


def random_local_unitary(m: int, n: int, seed: int) -> LocalUnitaryPair:
    if m < 1 or n < 1:
        raise BadDims("dimensions must be >= 1")
    rng = random.Random(seed)
    return LocalUnitaryPair(random_unitary(m, rng), random_unitary(n, rng))

"""Bipartite mixed states: ensembles, densities, local unitaries, PPT, spectra.

A state stores an ensemble [(p_l, v_l)] and/or an mn x mn density matrix.
Weights are probabilities summing to one; vectors are rays (any nonzero
scalar multiple of the intended unit vector) and the density is assembled
as

    rho = sum_l p_l * v_l v_l^dagger / ||v_l||^2 .

Keeping vectors unnormalized is what lets the whole exact pathway work:
1/sqrt(3)-style normalizations never leave Q(i) because only p_l/||v_l||^2
enters, and that is rational.  On the approx pathway vectors are typically
unit norm and the same formula is harmless.

A density-only state forces the approximate pathway downstream, since
recovering an ensemble requires an eigendecomposition.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadDims,
    DimensionMismatch,
    MissingEnsemble,
    NotAState,
)
from .linalg import (
    Matrix,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    psd_check,
    spectral_cutoff,
)
from .scalars import DEFAULT_TOL, ExactComplex, Tolerance, from_fields

Weight = object  # Fraction (exact) or float (approx)
Vector = Tuple[object, ...]  # ExactComplex or complex entries


def unit_scaled(v: Sequence) -> List[complex]:
    """The ray v as floats times 2**-e, e the binary exponent of its
    largest real or imaginary part, which then lies in [1/2, 1).  Scaling
    by a power of two is exact, so every ratio built from the ray keeps
    its bits, while its products (minors, outer products, norms) no
    longer underflow or overflow."""
    zs = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in v]
    e = math.frexp(max(max(abs(z.real), abs(z.imag)) for z in zs))[1]
    return [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in zs]


class BipartiteState:
    """Mixed state on C^m (x) C^n in the row-major product basis."""

    def __init__(self, m: int, n: int,
                 ensemble: Optional[List[Tuple[Weight, Sequence]]] = None,
                 density: Optional[Matrix] = None,
                 label: Optional[str] = None,
                 tol: Tolerance = DEFAULT_TOL,
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
        self.density = density
        self._rho = density    # density_matrix(), built at most once
        self._sum = None       # _gaussian_sum(), summed at most once
        self._images = None    # _float_images(), rounded at most once
        self._exact = None     # exact_ensemble, scanned at most once
        self._swapped = None   # swapped(), built at most once
        if validate:
            self._validate(tol)

    # -- validation ------------------------------------------------------

    def _validate(self, tol: Tolerance):
        mn = self.m * self.n
        if self.ensemble is not None:
            total = 0
            for idx, (w, v) in enumerate(self.ensemble):
                if len(v) != mn:
                    raise NotAState(f"ensemble vector {idx} has length {len(v)}, expected {mn}")
                if isinstance(w, Fraction) or isinstance(w, int):
                    if w <= 0:
                        raise NotAState(f"ensemble weight {idx} must be positive")
                elif not w > 0:
                    raise NotAState(f"ensemble weight {idx} must be positive")
                if not any(v):
                    raise NotAState(f"ensemble vector {idx} is zero")
                total = total + w
            if self.exact_ensemble:
                if total != 1:
                    raise NotAState(f"exact ensemble weights sum to {total}, not 1")
            elif abs(float(total) - 1.0) > 1e3 * tol.abs_eps:
                raise NotAState(f"ensemble weights sum to {float(total)}, not 1")
        if self.density is not None:
            if self.density.rows != mn or self.density.cols != mn:
                raise NotAState(
                    f"density is {self.density.rows}x{self.density.cols}, expected {mn}x{mn}")
            tr = complex(self.density.trace().to_complex()
                         if self.density.kind == "exact" else self.density.trace())
            if abs(tr - 1.0) > 1e3 * tol.abs_eps:
                raise NotAState(f"density trace is {tr}, not 1")
            if not psd_check(self.density, tol):
                raise NotAState("density is not positive semidefinite")
        if self.ensemble is not None and self.density is not None:
            built = density_from_ensemble(self)
            diff = built.to_numpy() - self.density.to_numpy()
            if float(np.max(np.abs(diff))) > 1e3 * tol.abs_eps:
                raise NotAState("ensemble and density disagree")

    # -- representation queries --------------------------------------------

    @property
    def exact_ensemble(self) -> bool:
        if self._exact is None:
            self._exact = self.ensemble is not None and all(
                isinstance(w, (Fraction, int))
                and all(isinstance(x, ExactComplex) for x in v)
                for w, v in self.ensemble)
        return self._exact

    @property
    def exact(self) -> bool:
        """True when the preferred (ensemble) pathway is fully exact."""
        if self.ensemble is not None:
            return self.exact_ensemble
        return False

    def density_matrix(self) -> Matrix:
        """The given density, else the one built from the ensemble; the
        build runs once, since a state is immutable by convention."""
        if self._rho is None:
            self._rho = density_from_ensemble(self)
        return self._rho

    def _gaussian_sum(self) -> Tuple[List[List[int]], List[List[int]], int]:
        """(re, im, L), rho = (re + i*im)/L as full int matrices: the exact
        ensemble's density on Gaussian integers, summed once.  Rays are
        cleared to Z[i], v_l = V_l / d_l, so that p_l / ||v_l||^2 * v_l v_l^dagger
        = p_l / ||V_l||^2 * V_l V_l^dagger; these weights are put over one
        common denominator L and the upper triangle is summed on ints."""
        if self._sum is not None:
            return self._sum
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
        self._sum = re, im, den
        return self._sum

    def _float_images(self) -> Tuple[Matrix, Matrix, Matrix]:
        """rho, tr_B rho and tr_A rho for the spectra, the PPT test and the
        Hermitian oracle of a variety; built once.  From an exact ensemble's
        Gaussian sum each is a float Matrix, partial traces summed on the
        ints and every entry divided once by L: int true division rounds
        correctly, so each entry is to_complex() of the exact entry.
        Otherwise rho is density_matrix(), exact where the density was given
        exact (read it through to_numpy()), and the partial traces are float
        Matrices, partial_trace's rounded after summing."""
        if self._images is not None:
            return self._images
        m, n = self.m, self.n
        if self.density is None and self.exact_ensemble:
            re, im, den = self._gaussian_sum()
            re, im = np.array(re, dtype=object), np.array(im, dtype=object)

            def rounded(a, b) -> Matrix:
                z = np.empty(a.shape, dtype=complex)
                z.real, z.imag = a / den, b / den
                return Matrix.approx(z)

            def traced(axis: int) -> Matrix:   # 1 traces out B, 0 traces out A
                return rounded(*(x.reshape(m, n, m, n).trace(axis1=axis, axis2=axis + 2)
                                 for x in (re, im)))

            self._images = rounded(re, im), traced(1), traced(0)
        else:
            rho = self.density_matrix()
            self._images = (rho, partial_trace(rho, m, n, "B").to_approx(),
                            partial_trace(rho, m, n, "A").to_approx())
        return self._images

    def ensemble_terms(self) -> List[Tuple[Weight, Vector]]:
        if self.ensemble is None:
            raise MissingEnsemble(
                "state has no ensemble; call ensemble_from_density first")
        return list(self.ensemble)

    def swapped(self) -> "BipartiteState":
        """The same state on C^n (x) C^m (subsystems exchanged); built once."""
        if self._swapped is not None:
            return self._swapped
        m, n = self.m, self.n
        ens = None
        if self.ensemble is not None:
            ens = []
            for w, v in self.ensemble:
                sw = [v[i * n + j] for j in range(n) for i in range(m)]
                ens.append((w, tuple(sw)))
        dens = None
        if self.density is not None:
            mn = m * n
            # permutation similarity: new[(j,i),(j',i')] = old[(i,j),(i',j')]
            entries = []
            for r in range(mn):
                jr, ir = divmod(r, m)
                for c in range(mn):
                    jc, ic = divmod(c, m)
                    entries.append(self.density[ir * n + jr, ic * n + jc])
            dens = Matrix(mn, mn, entries, self.density.kind)
        self._swapped = BipartiteState(n, m, ensemble=ens, density=dens,
                                       label=self.label, validate=False)
        return self._swapped

    def __repr__(self):
        parts = [f"{self.m}x{self.n}"]
        if self.ensemble is not None:
            parts.append(f"ensemble[{len(self.ensemble)}]")
        if self.density is not None:
            parts.append("density")
        if self.label:
            parts.append(repr(self.label))
        return f"BipartiteState({', '.join(parts)})"


class LocalUnitaryPair:
    """U_A on side A, U_B on side B; the joint action is U_A (x) U_B."""

    def __init__(self, u_a: Matrix, u_b: Matrix, tol: Tolerance = DEFAULT_TOL,
                 validate: bool = True):
        if u_a.rows != u_a.cols or u_b.rows != u_b.cols:
            raise DimensionMismatch("local unitaries must be square")
        self.u_a = u_a
        self.u_b = u_b
        if validate:
            for name, u in (("U_A", u_a), ("U_B", u_b)):
                gram = u.conj_transpose() @ u
                eye = Matrix.identity(u.rows, u.kind)
                if u.kind == "exact":
                    if gram != eye:
                        raise NotAState(f"{name} is not exactly unitary")
                else:
                    defect = float(np.max(np.abs(gram.to_numpy() - eye.to_numpy())))
                    if defect > 1e3 * tol.abs_eps:
                        raise NotAState(f"{name} unitarity defect {defect:.3e}")

    @staticmethod
    def identity(m: int, n: int) -> "LocalUnitaryPair":
        return LocalUnitaryPair(Matrix.identity(m), Matrix.identity(n), validate=False)

    def joint(self) -> Matrix:
        return kron(self.u_a, self.u_b)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def density_from_ensemble(s: BipartiteState) -> Matrix:
    """rho = A P A^dagger with A the (ray) ensemble columns and
    P = diag(p_l / ||v_l||^2); equals sum_l p_l P_{v_l} exactly.

    An exact ensemble gives one from_fields per entry of the state's
    Gaussian-integer sum over L (``BipartiteState._gaussian_sum``).  Float
    rays go through unit_scaled and numpy.
    """
    mn = s.m * s.n
    if s.exact_ensemble:
        re, im, den = s._gaussian_sum()
        return Matrix(mn, mn, [from_fields(a, b, den) for re_i, im_i in zip(re, im)
                               for a, b in zip(re_i, im_i)], "exact")
    rho = np.zeros((mn, mn), dtype=complex)
    for w, v in s.ensemble_terms():
        vec = np.array(unit_scaled(v))
        nsq = float(np.vdot(vec, vec).real)
        rho += (float(w) / nsq) * np.outer(vec, vec.conj())
    return Matrix.approx(rho)


def ensemble_from_density(rho: Matrix, m: int, n: int,
                          tol: Tolerance = DEFAULT_TOL) -> BipartiteState:
    """Spectral ensemble of a density matrix (approximate pathway).

    Eigenvalues above ``spectral_cutoff`` are kept; their count is the
    numerical rank and the kept eigenvectors span the image.
    """
    mn = m * n
    if rho.rows != mn or rho.cols != mn:
        raise NotAState(f"density is {rho.rows}x{rho.cols}, expected {mn}x{mn}")
    eig = rho.eigen(tol)
    tr = sum(eig.eigenvalues)
    if abs(tr - 1.0) > 1e3 * tol.abs_eps:
        raise NotAState(f"trace {tr} is not 1")
    cut = spectral_cutoff(eig.eigenvalues, tol)
    if min(eig.eigenvalues) < -cut:
        raise NotAState("density has a negative eigenvalue")
    vecs = eig.eigenvectors.to_numpy()
    ensemble = [(lam, tuple(complex(z) for z in vecs[:, k]))
                for k, lam in enumerate(eig.eigenvalues) if lam > cut]
    return BipartiteState(m, n, ensemble=ensemble, density=rho, validate=False)


def apply_local_unitary(s: BipartiteState, u: LocalUnitaryPair) -> BipartiteState:
    """(U_A (x) U_B) rho (U_A (x) U_B)^dagger, acting on whichever
    representations the state carries.  Probabilities are untouched; ray
    norms are preserved by unitarity."""
    if u.u_a.rows != s.m or u.u_b.rows != s.n:
        raise DimensionMismatch(
            f"unitary pair is {u.u_a.rows}/{u.u_b.rows}, state is {s.m}x{s.n}")
    t = u.joint()
    ens = None
    if s.ensemble is not None:
        mixed_exact = s.exact_ensemble and t.kind == "exact"
        tm = t if mixed_exact else t.to_approx()
        ens = []
        for w, v in s.ensemble:
            if not mixed_exact:
                v = [x.to_complex() if isinstance(x, ExactComplex) else complex(x) for x in v]
                w = float(w)
            ens.append((w, (tm @ Matrix(len(v), 1, v, tm.kind)).data))
    dens = None
    if s.density is not None:
        same = s.density.kind == t.kind
        td = t if same else t.to_approx()
        rho = s.density if same else s.density.to_approx()
        dens = td @ rho @ td.conj_transpose()
    return BipartiteState(s.m, s.n, ensemble=ens, density=dens,
                          label=s.label, validate=False)


def ppt_check(s: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Peres criterion: is the partial transpose still PSD, as psd_check
    decides it, from its eigenvalues alone?  rho^{T_A} permutes the axes of
    rho's float image (``_float_images``), exactly."""
    m, n = s.m, s.n
    rho = s._float_images()[0].to_numpy().reshape(m, n, m, n)
    eigs = hermitian_eigenvalues(
        Matrix.approx(rho.transpose(2, 1, 0, 3).reshape(m * n, m * n)), tol)
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
    # 0.0 - x, not -x: a pure spectrum gives +0.0
    return 0.0 - sum(lam * math.log(lam) for lam in eigs if lam > cut)


def entropy_and_spectra(s: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> SpectraReport:
    """Spectra and von Neumann entropies of rho, tr_B rho and tr_A rho,
    from the state's float images (``_float_images``).  A given density's
    goes through ``Matrix.eigen``, the decomposition its PSD check and
    spectral ensemble share; every other spectrum needs no eigenvectors
    (``hermitian_eigenvalues``, the same bits)."""
    rho, tr_b, tr_a = s._float_images()
    glob = (rho.eigen(tol).eigenvalues if s.density is not None
            else hermitian_eigenvalues(rho, tol))
    red_a = hermitian_eigenvalues(tr_b, tol)
    red_b = hermitian_eigenvalues(tr_a, tol)
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

def random_mixed(m: int, n: int, rank: int, seed: int) -> BipartiteState:
    """Normalized Gram form of a random complex Gaussian ensemble."""
    if m < 1 or n < 1 or rank < 1:
        raise BadDims("dimensions and rank must be >= 1")
    rng = random.Random(seed)
    mn = m * n
    cols = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(mn)]
            for _ in range(rank)]
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


def random_unitary(dim: int, rng: random.Random) -> Matrix:
    """Orthonormalization (modified Gram-Schmidt) of a complex Gaussian sample."""
    g = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
                  for _ in range(dim)])
    q = np.zeros_like(g)
    for k in range(dim):
        v = g[:, k].copy()
        for j in range(k):
            v -= np.vdot(q[:, j], v) * q[:, j]
        nv = np.linalg.norm(v)
        q[:, k] = v / nv
    return Matrix.approx(q)


def random_local_unitary(m: int, n: int, seed: int) -> LocalUnitaryPair:
    if m < 1 or n < 1:
        raise BadDims("dimensions must be >= 1")
    rng = random.Random(seed)
    return LocalUnitaryPair(random_unitary(m, rng), random_unitary(n, rng))

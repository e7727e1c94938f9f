"""Spectra and the PPT test against the code they replaced.

This file keeps, verbatim, ``entropy_and_spectra`` and ``ppt_check`` from
before the state layer read float images: the exact density as a
``Matrix`` of ``ExactComplex``, its partial traces and partial transpose
taken on it, and each result rounded by ``to_approx``.  The images now
read off the Gaussian-integer sum (rounded once per entry, partial traces
summed on the ints) must give the same bits: equal ``repr`` of every
eigenvalue and entropy (the reference's entropies floored at +0.0, as the
live ones are) and the same PPT verdict.  A float density goes
through the float Matrix it was then, and an exact density through the
``Matrix`` it was then (both kept in ``oracles.arrays``).

It also keeps the per-matrix Hermitian decomposition that ran before a
state decomposed its float images in two stacked calls (``linalg._eigh``,
``hermitian_eigen`` and ``hermitian_eigenvalues``, and the
``entropy_and_spectra`` and ``ppt_check`` that called them once per
matrix): each of a state's four decompositions (``_decomposed``: rho,
rho^{T_A}, tr_B rho and tr_A rho) must give its eigenvalues, eigenvectors
and residual in the same bits, at either tolerance, on every golden state
and every case below, and a non-finite or non-Hermitian image must raise
the same error with the same message.
"""

import math
import random

import numpy as np
import pytest

from detvar import linalg, states
from detvar.errors import NonSquare, NotHermitian
from detvar.linalg import EigenResult, hermitian_eigen, psd_check, spectral_cutoff
from detvar.scalars import DEFAULT_TOL, Tolerance
from detvar.statefile import load_state
from detvar.states import BipartiteState, SpectraReport
from oracles.arrays import (approx_partial_trace, approx_partial_transpose, partial_trace,
                            partial_transpose, to_approx, to_matrix)
from pinned import GOLDEN
from shared_states import EXACT_STATES


def _exact_or_float(rho, exact, float_):
    """exact(rho) rounded by to_approx for an exact Matrix (the reference
    Matrix of an exact array), else float_ on the float Matrix of rho, as an
    array."""
    if rho.dtype == object:
        return exact(to_matrix(rho)).to_numpy()
    return float_(to_approx(rho)).to_numpy()


# ---------------------------------------------------------------------------
# The reference (the old code, verbatim)
# ---------------------------------------------------------------------------

def ppt_check(s: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Peres criterion: is the partial transpose still PSD?"""
    rho = s.density_matrix()
    return psd_check(_exact_or_float(rho, lambda r: partial_transpose(r, s.m, s.n),
                                     lambda r: approx_partial_transpose(r, s.m, s.n)), tol)


def _von_neumann(eigs, tol: Tolerance) -> float:
    cut = spectral_cutoff(eigs, tol)
    return -sum(lam * math.log(lam) for lam in eigs if lam > cut)


def entropy_and_spectra(s: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> SpectraReport:
    rho = s.density_matrix()
    glob = hermitian_eigen(_exact_or_float(rho, lambda r: r, lambda r: r), tol).eigenvalues
    red_a, red_b = (hermitian_eigen(_exact_or_float(
        rho, lambda r: partial_trace(r, s.m, s.n, side),
        lambda r: approx_partial_trace(r, s.m, s.n, side)), tol).eigenvalues for side in "BA")
    return SpectraReport(
        spectrum=glob,
        reduced_a_spectrum=red_a,
        reduced_b_spectrum=red_b,
        entropy=_von_neumann(glob, tol),
        entropy_reduced_a=_von_neumann(red_a, tol),
        entropy_reduced_b=_von_neumann(red_b, tol),
    )


# ---------------------------------------------------------------------------
# States: each factory builds a fresh state, so that neither side reads a
# decomposition or an image the other one cached
# ---------------------------------------------------------------------------

def delivered(make):
    """The state given by its density alone (the exact one for an exact
    ensemble), as a density-only state file delivers it."""
    def build():
        s = make()
        return BipartiteState(s.m, s.n, density=states.density_from_ensemble(s))
    return build


CASES = {}
for name, make in EXACT_STATES.items():
    CASES[name] = make
    CASES[f"{name}, swapped"] = lambda make=make: make().swapped()
    CASES[f"{name}, density"] = delivered(make)
MIXED = {
    "mixed 3x3 r4": lambda: states.random_mixed(3, 3, 4, seed=21),
    "mixed 3x4 r5": lambda: states.random_mixed(3, 4, 5, seed=22),
    "mixed 2x5 r2": lambda: states.random_mixed(2, 5, 2, seed=23),
    "mixed 1x3 r2": lambda: states.random_mixed(1, 3, 2, seed=24),
    "mixed 3x1 r3": lambda: states.random_mixed(3, 1, 3, seed=25),
    "separable 1x3 t2": lambda: states.random_separable(1, 3, 2, seed=26),
    "separable 3x1 t3": lambda: states.random_separable(3, 1, 3, seed=27),
}
for name, make in MIXED.items():
    CASES[name] = make
    CASES[f"{name}, swapped"] = lambda make=make: make().swapped()
    CASES[f"{name}, density"] = delivered(make)

# abs_eps = rel_eps = 1e-6, eig_cutoff = min(1e-7, 1e-10)
TOLERANCES = {"default": DEFAULT_TOL, "custom": Tolerance(1e-6)}


def fields(rep: SpectraReport, floor=lambda e: e):
    return ([repr(x) for x in rep.spectrum],
            [repr(x) for x in rep.reduced_a_spectrum],
            [repr(x) for x in rep.reduced_b_spectrum],
            [repr(floor(e)) for e in (rep.entropy, rep.entropy_reduced_a,
                                      rep.entropy_reduced_b)])


def reference_fields(rep: SpectraReport):
    """The reference's fields with each entropy floored at +0.0, as the
    live entropies are: its -0.0 of a pure spectrum, and the value below
    zero of an eigenvalue rounded past 1, read +0.0; every other value
    keeps its bits."""
    return fields(rep, lambda e: max(0.0, e))


@pytest.mark.parametrize("tol", list(TOLERANCES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_spectra_and_ppt_match_reference(name, tol):
    make, t = CASES[name], TOLERANCES[tol]
    assert fields(states.entropy_and_spectra(make(), t)) == \
        reference_fields(entropy_and_spectra(make(), t))
    assert states.ppt_check(make(), t) == ppt_check(make(), t)


def test_ppt_verdicts_of_the_cases_are_not_all_alike():
    # the comparison above means something only if both verdicts occur
    assert {ppt_check(make()) for make in CASES.values()} == {True, False}


def test_random_separable_shapes_match_reference():
    rng = random.Random(2024)
    for _ in range(12):
        args = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 6), rng.randrange(10**6))
        assert fields(states.entropy_and_spectra(states.random_separable(*args))) == \
            reference_fields(entropy_and_spectra(states.random_separable(*args)))


# ---------------------------------------------------------------------------
# The per-matrix decomposition (the old code, verbatim but for the names)
# ---------------------------------------------------------------------------

def reference_eigh(m, tol):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare("eigendecomposition of non-square matrix")
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has a non-finite entry")
    scale = max(float(np.linalg.norm(a)), 1.0)
    herm_defect = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    if herm_defect > tol.abs_eps + tol.rel_eps * scale:
        raise NotHermitian(f"Hermitian defect {herm_defect:.3e} exceeds tolerance")
    a = (a + a.conj().T) / 2.0
    eigs, v = np.linalg.eigh(a)
    return a, eigs[::-1], v[:, ::-1]


def reference_hermitian_eigen(m, tol=DEFAULT_TOL):
    a, eigs, v = reference_eigh(m, tol)
    residual = float(np.max(np.linalg.norm(a @ v - v * eigs, axis=0), initial=0.0))
    return EigenResult([float(x) for x in eigs], v, residual)


def reference_hermitian_eigenvalues(m, tol=DEFAULT_TOL):
    return [float(x) for x in reference_eigh(m, tol)[1]]


def per_matrix_ppt_check(s, tol=DEFAULT_TOL):
    eigs = reference_hermitian_eigenvalues(
        linalg.partial_transpose(s.float_images[0], s.m, s.n), tol)
    return min(eigs) >= -spectral_cutoff(eigs, tol)


def per_matrix_spectra(s, tol=DEFAULT_TOL):
    """The spectra of the old entropy_and_spectra; its s.eigen(tol) was
    hermitian_eigen of the density's float image, once per tolerance."""
    rho, tr_b, tr_a = s.float_images
    glob = (reference_hermitian_eigen(rho, tol).eigenvalues if s.density is not None
            else reference_hermitian_eigenvalues(rho, tol))
    return (glob, reference_hermitian_eigenvalues(tr_b, tol),
            reference_hermitian_eigenvalues(tr_a, tol))


def hexes(values):
    return [float(x).hex() for x in values]


def golden_state(path):
    return lambda: load_state(str(path))


STACK_CASES = {**CASES, **{f"golden {p.name.split('.')[0]}": golden_state(p)
                           for p in sorted(GOLDEN.glob("*.state.json"))}}


def test_the_stack_cases_cover_each_kind_of_state():
    # given as an ensemble or as a density, exact or float, m = n or not
    kinds = set()
    for make in STACK_CASES.values():
        s = make()
        exact = s.exact_ensemble if s.density is None else s.density.dtype == object
        kinds.add((s.density is None, exact, s.m == s.n))
    assert len(kinds) == 8


@pytest.mark.parametrize("tol", list(TOLERANCES))
@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_the_stacked_decompositions_are_the_per_matrix_ones(name, tol):
    make, t = STACK_CASES[name], TOLERANCES[tol]
    s = make()
    rho, tr_b, tr_a = s.float_images
    images = [rho, linalg.partial_transpose(rho, s.m, s.n), tr_b, tr_a]
    assert len(s._decomposed) == len(images)
    for d, image in zip(s._decomposed, images):
        got, want = d.eigen(t), reference_hermitian_eigen(image, t)
        assert hexes(got.eigenvalues) == hexes(want.eigenvalues)
        assert got.eigenvectors.shape == want.eigenvectors.shape
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert float(got.residual).hex() == float(want.residual).hex()
        assert hexes(d.eigenvalues(t)) == hexes(reference_hermitian_eigenvalues(image, t))
        one = hermitian_eigen(image, t)
        assert hexes(one.eigenvalues) == hexes(want.eigenvalues)
        assert one.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert hexes(linalg.eigh_stack([image])[0].eigenvalues(t)) == hexes(want.eigenvalues)
    spectra = states.entropy_and_spectra(make(), t)
    assert [hexes(x) for x in (spectra.spectrum, spectra.reduced_a_spectrum,
                               spectra.reduced_b_spectrum)] == \
        [hexes(x) for x in per_matrix_spectra(make(), t)]
    assert states.ppt_check(make(), t) == per_matrix_ppt_check(make(), t)


def _bad_densities():
    """Float densities, m = n and m != n, with a non-finite entry, or a
    Hermitian defect the default tolerance refuses and 1e-7's admits."""
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        rho = states.random_mixed(m, n, 2, seed=m + n).density_matrix()
        for entry in (float("nan"), float("inf"), complex(0, float("-inf"))):
            bad = rho.copy()
            bad[1, 0] = entry
            yield f"{m}x{n} {entry}", m, n, bad
        bad = rho.copy()
        bad[0, 1] += 1e-8
        yield f"{m}x{n} skewed", m, n, bad


BAD = {name: (m, n, bad) for name, m, n, bad in _bad_densities()}


def _outcome(f, s):
    """("ok", the float.hex of each value f(s) gives) or (error type, message)."""
    try:
        out = f(s)
    except (NotHermitian, NonSquare) as exc:
        return type(exc), str(exc)
    return "ok", [hexes(x) for x in out] if isinstance(out, tuple) else hexes(out)


@pytest.mark.parametrize("tol", list(TOLERANCES) + ["1e-7"])
@pytest.mark.parametrize("name", sorted(BAD))
def test_a_bad_image_raises_as_the_per_matrix_decomposition_did(name, tol):
    m, n, bad = BAD[name]
    t = TOLERANCES.get(tol, Tolerance(1e-7))

    def fresh():
        return BipartiteState(m, n, density=bad, validate=False)

    def spectra(s):
        report = states.entropy_and_spectra(s, t)
        return report.spectrum, report.reduced_a_spectrum, report.reduced_b_spectrum

    got = [_outcome(lambda s: s.eigen(t).eigenvalues, fresh()), _outcome(spectra, fresh()),
           _outcome(lambda s: [float(states.ppt_check(s, t))], fresh())]
    want = [_outcome(lambda s: reference_hermitian_eigen(s.float_images[0], t).eigenvalues,
                     fresh()),
            _outcome(lambda s: per_matrix_spectra(s, t), fresh()),
            _outcome(lambda s: [float(per_matrix_ppt_check(s, t))], fresh())]
    assert got == want
    refused = tol == "default" or "skewed" not in name
    assert [x[0] for x in want] == [NotHermitian if refused else "ok"] * 3

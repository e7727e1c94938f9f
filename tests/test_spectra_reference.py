"""Spectra and the PPT test against the code they replaced.

This file keeps, verbatim, ``entropy_and_spectra`` and ``ppt_check`` from
before the state layer read float images: the exact density as a
``Matrix`` of ``ExactComplex``, its partial traces and partial transpose
taken on it, and each result rounded by ``to_approx``.  The images now
read off the Gaussian-integer sum (rounded once per entry, partial traces
summed on the ints) must give the same bits: equal ``repr`` of every
eigenvalue and entropy and the same PPT verdict.  A float density goes
through the float Matrix it was then, and an exact density through the
``Matrix`` it was then (both kept in ``oracles.arrays``).
"""

import math
import random

import pytest

from detvar import states
from detvar.linalg import hermitian_eigen, psd_check, spectral_cutoff
from detvar.scalars import DEFAULT_TOL, Tolerance
from detvar.states import BipartiteState, SpectraReport
from oracles.arrays import (approx_partial_trace, approx_partial_transpose, partial_trace,
                            partial_transpose, to_approx, to_matrix)
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

TOLERANCES = {"default": DEFAULT_TOL, "custom": Tolerance(1e-6, 1e-6, 1e-7)}


def fields(rep: SpectraReport):
    # the reference's -0.0 entropy of a pure spectrum is now +0.0; adding
    # 0.0 maps that value alone and keeps every other value's bits
    return ([repr(x) for x in rep.spectrum],
            [repr(x) for x in rep.reduced_a_spectrum],
            [repr(x) for x in rep.reduced_b_spectrum],
            [repr(e + 0.0) for e in (rep.entropy, rep.entropy_reduced_a,
                                     rep.entropy_reduced_b)])


@pytest.mark.parametrize("tol", list(TOLERANCES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_spectra_and_ppt_match_reference(name, tol):
    make, t = CASES[name], TOLERANCES[tol]
    assert fields(states.entropy_and_spectra(make(), t)) == \
        fields(entropy_and_spectra(make(), t))
    assert states.ppt_check(make(), t) == ppt_check(make(), t)


def test_ppt_verdicts_of_the_cases_are_not_all_alike():
    # the comparison above means something only if both verdicts occur
    assert {ppt_check(make()) for make in CASES.values()} == {True, False}


def test_random_separable_shapes_match_reference():
    rng = random.Random(2024)
    for _ in range(12):
        args = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 6), rng.randrange(10**6))
        assert fields(states.entropy_and_spectra(states.random_separable(*args))) == \
            fields(entropy_and_spectra(states.random_separable(*args)))

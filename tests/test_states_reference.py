"""The exact density against the code it replaced.

This file keeps, verbatim, the exact branch of
``detvar.states.density_from_ensemble`` from before the rays were cleared
to Gaussian integers: one ``ExactComplex`` product and sum per entry and
ray.  The density now built on (re, im) int pairs over one common
denominator must equal it entry by entry, with the same canonical fields.
"""

from fractions import Fraction

import pytest

from detvar import states
from detvar.scalars import EC_ZERO, ExactComplex
from detvar.states import BipartiteState
from oracles.arrays import Matrix
from shared_states import EXACT_STATES, large_prime_denominators_state

EC = ExactComplex
F = Fraction


# ---------------------------------------------------------------------------
# The reference (the old exact branch, verbatim)
# ---------------------------------------------------------------------------

def _vec_norm_sq(v) -> Fraction:
    """||v||^2 of an exact vector, as one Fraction."""
    acc = Fraction(0)
    for x in v:
        acc += x.norm_sq()
    return acc


def density_from_ensemble(s: BipartiteState) -> Matrix:
    terms = s.ensemble_terms()
    mn = s.m * s.n
    acc = [[EC_ZERO] * mn for _ in range(mn)]
    for w, v in terms:
        coef = ExactComplex(Fraction(w) / _vec_norm_sq(v))
        for i in range(mn):
            if v[i].is_zero():
                continue
            left = coef * v[i]
            for j in range(mn):
                if not v[j].is_zero():
                    acc[i][j] = acc[i][j] + left * v[j].conjugate()
    return Matrix.exact(acc)


# ---------------------------------------------------------------------------
# Cases (the states are shared_states.EXACT_STATES)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(EXACT_STATES))
def test_exact_density_matches_reference(name):
    state = EXACT_STATES[name]()
    assert state.exact_ensemble
    got, ref = states.density_from_ensemble(state), density_from_ensemble(state)
    assert got.dtype == object and isinstance(ref, Matrix)
    assert got.shape == (ref.rows, ref.cols) == (state.m * state.n, state.m * state.n)
    for i in range(ref.rows):
        for j in range(ref.cols):
            assert got[i, j] == ref[i, j]
            assert got[i, j].fields == ref[i, j].fields


def test_density_of_swapped_state_matches_reference():
    # side B re-blocks the rays; the density is built from the swapped rays
    state = large_prime_denominators_state().swapped()
    got, ref = states.density_from_ensemble(state), density_from_ensemble(state)
    assert [got[i, j].fields for i in range(ref.rows) for j in range(ref.cols)] == \
        [ref[i, j].fields for i in range(ref.rows) for j in range(ref.cols)]

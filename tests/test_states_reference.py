"""The exact density against the code it replaced.

This file keeps, verbatim, the exact branch of
``detvar.states.density_from_ensemble`` from before the rays were cleared
to Gaussian integers: one ``ExactComplex`` product and sum per entry and
ray.  The density now built on (re, im) int pairs over one common
denominator must equal it entry by entry, with the same canonical fields.
"""

import random
from fractions import Fraction

import pytest

from detvar import catalog, states
from detvar.linalg import Matrix
from detvar.scalars import EC_ZERO, ExactComplex
from detvar.states import BipartiteState

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
# States
# ---------------------------------------------------------------------------

def gaussian_state(m: int, n: int, rank: int, seed: int) -> BipartiteState:
    """Exact rays with Gaussian-rational entries of small denominators."""
    rng = random.Random(seed)
    ensemble = [(F(1, rank),
                 tuple(EC(F(rng.randint(-5, 5), rng.randint(1, 6)),
                          F(rng.randint(-5, 5), rng.randint(1, 6)))
                       for _ in range(m * n)))
                for _ in range(rank)]
    return BipartiteState(m, n, ensemble=ensemble)


def sparse_rays_state() -> BipartiteState:
    # most entries zero, one ray with a single nonzero entry
    z, o = EC(0), EC(1)
    rays = [(z, z, o, z, z, z, z, z, z),
            (EC(F(1, 3), F(-2, 7)), z, z, z, EC(0, 5), z, z, z, EC(F(-4, 9))),
            (z, z, z, z, z, z, z, EC(F(3, 2), 1), z)]
    return BipartiteState(3, 3, ensemble=[(F(1, 2), rays[0]), (F(1, 3), rays[1]),
                                          (F(1, 6), rays[2])])


def large_prime_denominators_state() -> BipartiteState:
    # every ray over its own large primes, one of them inside a single entry
    rays = [tuple(EC(F(k + 1, 10007), F(k - 2, 10009)) for k in range(6)),
            tuple(EC(F(1, 10037), F(k, 10039)) if k % 2 else EC(k) for k in range(6)),
            (EC(F(7, 65537)), EC(0, F(1, 1000003)), EC(0), EC(F(2, 3), F(5, 1000033)),
             EC(1), EC(F(-1, 999983)))]
    return BipartiteState(2, 3, ensemble=[(F(1, 3), r) for r in rays])


def large_weight_denominators_state() -> BipartiteState:
    rng = random.Random(5)
    weights = [F(1, 1000003), F(2, 999983), F(3, 65537)]
    weights.append(1 - sum(weights))
    rays = [tuple(EC(F(rng.randint(-9, 9), rng.randint(1, 40)), rng.randint(-3, 3))
                  for _ in range(8)) for _ in weights]
    return BipartiteState(2, 4, ensemble=list(zip(weights, rays)))


def integer_weight_state() -> BipartiteState:
    # a single ray of weight int 1 (not Fraction), as a state file may give
    return BipartiteState(2, 2, ensemble=[(1, (EC(1), EC(0, 2), EC(F(1, 3)), EC(0)))])


STATES = {
    "separable 3x3 t4": lambda: states.random_separable(3, 3, 4, seed=1),
    "separable 3x4 t5": lambda: states.random_separable(3, 4, 5, seed=2),
    "separable 4x4 t7": lambda: states.random_separable(4, 4, 7, seed=3),
    "separable 4x5 t8": lambda: states.random_separable(4, 5, 8, seed=4),
    "gaussian 3x3 r5": lambda: gaussian_state(3, 3, 5, seed=5),
    "gaussian 4x4 r6": lambda: gaussian_state(4, 4, 6, seed=6),
    "cyclic t^3=27": lambda: catalog.cyclic_cubic_state(catalog.parse_family_parameter("3w")),
    "cyclic t=-2": lambda: catalog.cyclic_cubic_state(catalog.parse_family_parameter("-2")),
    "cyclic t=1/7+2i": lambda: catalog.cyclic_cubic_state(EC(F(1, 7), 2)),
    "maximally mixed 3x3": lambda: catalog.maximally_mixed(3, 3),
    "ppt 4x6": catalog.ppt_4x6_state,
    "bell": lambda: BipartiteState(2, 2, ensemble=[(F(1), (EC(1), EC(0), EC(0), EC(1)))]),
    "rays with zero entries": sparse_rays_state,
    "large prime denominators": large_prime_denominators_state,
    "large weight denominators": large_weight_denominators_state,
    "integer weight": integer_weight_state,
}


@pytest.mark.parametrize("name", sorted(STATES))
def test_exact_density_matches_reference(name):
    state = STATES[name]()
    assert state.exact_ensemble
    got, ref = states.density_from_ensemble(state), density_from_ensemble(state)
    assert isinstance(got, Matrix) and isinstance(ref, Matrix)
    assert (got.rows, got.cols) == (ref.rows, ref.cols) == (state.m * state.n, state.m * state.n)
    for i in range(got.rows):
        for j in range(got.cols):
            assert got[i, j] == ref[i, j]
            assert got[i, j].fields == ref[i, j].fields


def test_density_of_swapped_state_matches_reference():
    # side B re-blocks the rays; the density is built from the swapped rays
    state = large_prime_denominators_state().swapped()
    got, ref = states.density_from_ensemble(state), density_from_ensemble(state)
    assert [got[i, j].fields for i in range(got.rows) for j in range(got.cols)] == \
        [ref[i, j].fields for i in range(ref.rows) for j in range(ref.cols)]

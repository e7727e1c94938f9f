"""Separable states that must never get a NonlinearWitness.

A separable state has a V_A that is a union of linear subspaces, so a
witness on one is a false certificate of entanglement.  These states are
all separable, on shapes where V is a curve or a surface (t - n + 1 below
or near m - 1).  Each one got a NonlinearWitness when the tangent space
came from the Jacobian of the minors and smoothness from a perturbation:

- exact ``random_separable`` states whose sampled points lie near the
  locus where rank N(p) <= n - 2, where every minor vanishes to second
  order and the probe leaves V along the tangent cone;
- float copies of such states (weights ``float(w)``, entries
  ``complex(x.to_complex())``);
- "shared-factor" states, term u being a_{u // 2} (x) b_u, whose sampled
  points lie on the base locus, where every pencil entry vanishes and the
  Hermitian ratio divides a vanishing determinant by a vanishing bound.

The pencil's smoothness margin and the rank of its tangent matrix keep
every such point from being probed.
"""

import random
from fractions import Fraction

import pytest

from detvar.scalars import ExactComplex
from detvar.states import BipartiteState, random_separable
from detvar.variety import linearity_decide, variety_of_state
from shared_states import float_copy


def shared_factor(m, n, t, seed):
    rng = random.Random(seed)

    def vec(k):
        while True:
            v = [ExactComplex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)]
            if any(not x.is_zero() for x in v):
                return v

    a = [vec(m) for _ in range((t + 1) // 2)]
    ensemble = []
    for u in range(t):
        b = vec(n)
        ensemble.append((Fraction(1, t),
                         tuple(a[u // 2][i] * b[j] for i in range(m) for j in range(n))))
    return BipartiteState(m, n, ensemble=ensemble, validate=False)


CASES = {
    "exact 5x3 t5 seed 8": (lambda: random_separable(5, 3, 5, seed=8), "A"),
    "exact 5x3 t5 seed 18": (lambda: random_separable(5, 3, 5, seed=18), "A"),
    "exact 5x3 t5 seed 21": (lambda: random_separable(5, 3, 5, seed=21), "A"),
    "exact 4x4 t5 seed 16": (lambda: random_separable(4, 4, 5, seed=16), "A"),
    "float 4x3 t4 seed 14": (lambda: float_copy(random_separable(4, 3, 4, seed=14)), "A"),
    "float 3x4 t4 seed 10": (lambda: float_copy(random_separable(3, 4, 4, seed=10)), "B"),
    "shared 4x3 t4 seed 1": (lambda: shared_factor(4, 3, 4, 1), "A"),
    "shared 4x3 t4 seed 5": (lambda: shared_factor(4, 3, 4, 5), "A"),
    "shared 5x3 t4 seed 2": (lambda: shared_factor(5, 3, 4, 2), "A"),
    "shared 5x3 t4 seed 12": (lambda: shared_factor(5, 3, 4, 12), "A"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_separable_state_gets_no_witness(name):
    make, side = CASES[name]
    verdict = linearity_decide(variety_of_state(make(), side), seed=42, samples=12)
    assert verdict.tag != "NonlinearWitness", verdict

"""A slice of the separability sweep: no separable state gets a witness.

A separable state has a V that is a union of linear subspaces, so a
NonlinearWitness on one would be a false certificate of entanglement.
The states are ``random_separable`` in the shapes where, on side A, V has
codimension c = t - n + 1 >= 2 and positive dimension, seeds 0-3.  Each
is analysed exact, as a float copy, and as that copy under a random local
unitary, on both sides.  Every analysis must end without a witness and
without an exception.
"""

import pytest

from detvar.states import apply_local_unitary, random_local_unitary, random_separable
from detvar.variety import linearity_decide, variety_of_state
from shared_states import float_copy

SHAPES = [(4, 3, 4), (5, 3, 5), (4, 4, 5), (5, 4, 5), (5, 4, 6)]
CASES = [(shape, seed) for shape in SHAPES for seed in range(4)]


@pytest.mark.parametrize("shape, seed", CASES,
                         ids=[f"{m}x{n} t{t} #{seed}" for (m, n, t), seed in CASES])
def test_separable_state_gets_no_witness_in_any_form(shape, seed):
    m, n, t = shape
    exact = random_separable(m, n, t, seed=seed)
    floats = float_copy(exact)
    rotated = apply_local_unitary(floats, random_local_unitary(m, n, seed))
    for form, state in (("exact", exact), ("float", floats), ("rotated", rotated)):
        for side in "AB":
            verdict = linearity_decide(variety_of_state(state, side), seed=42, samples=12)
            assert verdict.tag != "NonlinearWitness", (
                f"random_separable({m}, {n}, {t}, seed={seed}), {form}, side {side}: {verdict}")

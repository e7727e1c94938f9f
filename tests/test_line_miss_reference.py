"""The binary test modulo a prime against an exact line miss.

For m = 3 the Macaulay certificate restricts the pencil to a line of CP^2
and decides that the maximal minors of that binary pencil have no common
zero (modp.binary_minors_coprime, a gcd of the interpolated minors), which
is what the Macaulay rank modulo p in degree 2n - 1 decides.  Here each
exact line through base and direction becomes the binary pencil
(L(base), L(direction)) modulo p, and ``misses_line`` (``oracles.modp``),
the exact test on the expanded minors over Q(i), is the reference.  A modular
"miss" must always be an exact miss, whatever the prime: at the pencil's
own prime the two must agree on every line drawn here, and at the small
primes 13 and 17, where unlucky reductions are common, a modular miss must
still be an exact one.  On every line the rank in degree 2n - 1, the
degree the certificate records, must also equal the rank in degree n + 1:
the maximal minors of a linear pencil in two variables with no common
zero span every form of degree n (Hilbert-Burch), so either degree
decides; and the gcd decision must equal both.

The lines are random exact lines on separable and Gaussian-rational
pencils of shapes 3x3 t4/t5 and 3x4 t5/t6, lines through an exact point
of V, lines whose direction is a point of V (the point at infinity of the
line is then on V, and only the full-degree condition sees it), and lines
inside the zero set of some minors (their restrictions vanish).
"""

import random

import numpy as np
import pytest

from detvar.factorization import _random_exact_point
from detvar.modp import binary_minors_coprime, macaulay_full_rank, reduce_scalar
from detvar.multipoly import restrict_to_line
from detvar.states import random_separable
from detvar.variety import (
    _pencil_mod_p,
    membership,
    variety_of_state,
)
from oracles.modp import _minors_mod_p, dict_macaulay_full_rank, misses_line
from shared_states import cross, gaussian_small_denominators_state, side_a_factor


def line_pencil(forms, base, direction, p):
    """The reduced pencil `forms` on the line through base and direction:
    the binary pencil whose entry L reads (L(base), L(direction))."""
    b = [reduce_scalar(x, p) for x in base]
    d = [reduce_scalar(x, p) for x in direction]
    return [[[sum(c * x for c, x in zip(form, pt)) % p for pt in (b, d)] for form in row]
            for row in forms.tolist()]


def binary_miss(v, forms, base, direction, p) -> bool:
    """The Macaulay test on the line in degree 2n - 1, checked against
    degree n + 1, against the gcd decision the certificate runs and
    against the test on values at lattice points."""
    binary = line_pencil(forms, base, direction, p)
    gens = _minors_mod_p(binary, p)
    miss = dict_macaulay_full_rank(gens, 2, 2 * v.n - 1, p)
    assert miss == dict_macaulay_full_rank(gens, 2, v.n + 1, p), (base, direction, p)
    residues = np.array(binary, dtype=np.int64)
    assert miss == binary_minors_coprime(residues, v.n, p), (base, direction, p)
    assert miss == macaulay_full_rank(residues, v.n, 2 * v.n - 1, p), (base, direction, p)
    return miss


SHAPES = [(3, 3, 4), (3, 3, 5), (3, 4, 5), (3, 4, 6)]


def _pencil_lines():
    """(label, state, [(base, direction)]) for every case."""
    cases = []
    for m, n, t in SHAPES:
        for seed in (1, 2):
            rng = random.Random(f"lines:{m}{n}{t}:{seed}")
            lines = [(tuple(_random_exact_point(rng, m)), tuple(_random_exact_point(rng, m)))
                     for _ in range(5)]
            cases.append((f"separable {m}x{n} t{t} #{seed}",
                          random_separable(m, n, t, seed=seed), lines))
            cases.append((f"gaussian {m}x{n} t{t} #{seed}",
                          gaussian_small_denominators_state(m, n, t, seed), lines))
    # separable 3x3 t4: r = a_1 x a_2 kills pencil columns 1 and 2, so r is
    # on V; lines through r, lines with direction r, and lines inside the
    # plane a_1 . r = 0, where every minor through column 1 vanishes
    for seed in (1, 6):
        st = random_separable(3, 3, 4, seed=seed)
        a = [side_a_factor(vec, 3, 3) for _, vec in st.ensemble]
        r = cross(a[0], a[1])
        rng = random.Random(f"special:{seed}")
        lines = []
        for _ in range(4):
            q = tuple(_random_exact_point(rng, 3))
            lines += [(r, q), (q, r)]
        for _ in range(4):
            p = cross(a[0], _random_exact_point(rng, 3))
            q = cross(a[0], _random_exact_point(rng, 3))
            lines.append((p, q))
        cases.append((f"special separable 3x3 t4 #{seed}", st, lines))
    return cases


CASES = _pencil_lines()


def test_cases_cover_a_hundred_lines_and_both_answers():
    v_lines = [(variety_of_state(st), lines) for _, st, lines in CASES]
    assert sum(len(lines) for _, lines in v_lines) >= 100
    answers = {misses_line(v.essential_generators, b, d) for v, lines in v_lines
               for b, d in lines}
    assert answers == {True, False}
    vanishing = sum(any(restrict_to_line(g, b, d).is_zero() for g in v.essential_generators)
                    for v, lines in v_lines for b, d in lines)
    assert vanishing >= 8


@pytest.mark.parametrize("label,state,lines", CASES, ids=[c[0] for c in CASES])
def test_modular_line_miss_agrees_with_the_exact_test(label, state, lines):
    v = variety_of_state(state)
    p, forms = v.pencil.mod_p()
    for base, direction in lines:
        exact = misses_line(v.essential_generators, base, direction)
        assert binary_miss(v, forms, base, direction, p) == exact, (base, direction)


@pytest.mark.parametrize("prime", [13, 17])
@pytest.mark.parametrize("label,state,lines", CASES, ids=[c[0] for c in CASES])
def test_a_modular_miss_is_an_exact_miss_at_small_primes(label, state, lines, prime):
    v = variety_of_state(state)
    forms = _pencil_mod_p(v.pencil, prime)
    if forms is None:
        pytest.skip(f"{prime} divides a denominator of the pencil")
    for base, direction in lines:
        if binary_miss(v, forms, base, direction, prime):
            assert misses_line(v.essential_generators, base, direction), (base, direction)


def test_a_direction_on_v_is_caught_by_the_full_degree_condition():
    # every restriction drops degree at the point at infinity r; the gcd of
    # the affine part alone would call such a line missed
    st = random_separable(3, 3, 4, seed=1)
    v = variety_of_state(st)
    a = [side_a_factor(vec, 3, 3) for _, vec in st.ensemble]
    r = cross(a[0], a[1])
    assert membership(v, r)
    p, forms = v.pencil.mod_p()
    rng = random.Random(5)
    for _ in range(5):
        base = tuple(_random_exact_point(rng, 3))
        assert not binary_miss(v, forms, base, r, p)
        assert not misses_line(v.essential_generators, base, r)

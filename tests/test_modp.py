"""Arithmetic modulo a prime p = 1 (mod 4) and the Macaulay test.

The rank modulo p is pinned against the exact rank over Q(i), including a
matrix that only loses rank modulo p: full rank there is a proof, a rank
short of full is not.  Reduction is pinned on Gaussian rationals (a
denominator divisible by p is refused, and the certificate moves to the
next prime) and on floats, which reduce exactly as dyadic rationals.  The
Macaulay degrees of monomial ideals are pinned on the dict path kept in
``test_modp_reference``, and the test on values at lattice points on
pencils whose minors are those ideals.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from detvar import modp
from detvar.linalg import exact_matrix, rank_exact
from detvar.modp import (
    RANK_PRIME,
    macaulay_full_rank,
    rank_mod_p,
    reduce_scalar,
    restrict_mod_p,
    split_primes,
    sqrt_minus_one,
)
from detvar.multipoly import minors
from detvar.scalars import ExactComplex
from detvar.states import BipartiteState, random_mixed, random_separable
from detvar.variety import (
    _macaulay_certificate,
    _pencil_mod_p,
    pencil_matrix,
    variety_of_state,
)
from test_modp_reference import _minors_mod_p, monomial
from test_modp_reference import dict_macaulay_full_rank as dict_full_rank

EC = ExactComplex
P = RANK_PRIME


def test_prime_walk():
    assert [p for _, p in zip(range(5), split_primes())] == [13, 17, 29, 37, 41]
    walk = [p for _, p in zip(range(3), split_primes(P))]
    assert walk[0] == P
    for p in walk:
        assert p % 4 == 1 and all(p % q for q in range(2, 40000) if q * q <= p)
        assert pow(sqrt_minus_one(p), 2, p) == p - 1


def test_reduction_is_a_ring_map():
    s = sqrt_minus_one(P)
    rng = random.Random(5)
    for _ in range(50):
        x = EC(Fraction(rng.randint(-50, 50), rng.randint(1, 30)),
               Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
        y = EC(Fraction(rng.randint(-50, 50), rng.randint(1, 30)), rng.randint(-9, 9))
        rx, ry = reduce_scalar(x, P), reduce_scalar(y, P)
        assert reduce_scalar(x * y, P) == rx * ry % P
        assert reduce_scalar(x + y, P) == (rx + ry) % P
    assert reduce_scalar(EC(0, 1), P) == s
    # a float is the dyadic rational it stores, with no rounding
    z = complex(0.1, -3.75)
    exact = EC(Fraction(0.1), Fraction(-3.75))
    assert reduce_scalar(z, P) == reduce_scalar(exact, P)
    assert reduce_scalar(2.0 ** -60, P) == pow(2, -60, P)


def test_a_denominator_divisible_by_p_is_refused():
    assert reduce_scalar(EC(Fraction(1, P)), P) is None
    assert reduce_scalar(EC(0, Fraction(3, 2 * P)), P) is None
    assert reduce_scalar(EC(Fraction(1, P)), next(split_primes(P + 1))) is not None


def _random_gaussian_matrix(rng, rows, cols, rank):
    def entry():
        return EC(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4))
    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), EC(0))
             for j in range(cols)] for i in range(rows)]


@pytest.mark.parametrize("rows,cols,rank", [
    (3, 3, 3), (3, 3, 2), (4, 3, 2), (3, 5, 3), (5, 4, 1), (4, 4, 0), (6, 5, 4)])
def test_rank_mod_p_agrees_with_the_exact_rank(rows, cols, rank):
    rng = random.Random(rows * 100 + cols * 10 + rank)
    for _ in range(4):
        a = _random_gaussian_matrix(rng, rows, cols, rank)
        reduced = [[reduce_scalar(x, P) for x in row] for row in a]
        assert rank_mod_p(reduced, P) == rank_exact(exact_matrix(a))


def test_rank_mod_p_of_an_empty_matrix_is_zero():
    assert rank_mod_p([], P) == 0
    assert rank_mod_p([[], []], P) == 0
    assert rank_mod_p(np.zeros((0, 4), dtype=np.int64), P) == 0


def test_rank_mod_p_reads_an_array_as_the_equal_list():
    rng = random.Random(8)
    for rows, cols in ((3, 3), (5, 4), (2, 6), (1, 1)):
        a = [[rng.randrange(P) for _ in range(cols)] for _ in range(rows)]
        a[-1] = [x * 3 % P for x in a[0]] if rows > 1 else a[-1]
        assert rank_mod_p(np.array(a, dtype=np.int64), P) == rank_mod_p(a, P)


def test_a_miss_modulo_p_proves_nothing():
    # full rank over Q(i), singular modulo p: the rank modulo p is a lower
    # bound only, so a rank short of full certifies nothing
    a = [[EC(1), EC(2, 1)], [EC(3), EC(3 * 2 + P, 3)]]
    assert rank_exact(exact_matrix(a)) == 2
    assert rank_mod_p([[reduce_scalar(x, P) for x in row] for row in a], P) == 1


def test_macaulay_degrees_of_a_complete_intersection():
    # x^2, y^2, z^2 have no common zero; every monomial of degree 4 lies in
    # their ideal, xyz of degree 3 does not
    squares = [{monomial(e): 1} for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
    assert not dict_full_rank(squares, 3, 3, P)
    assert dict_full_rank(squares, 3, 4, P)
    # as many rows as columns, one short of full rank: xyz is not reached
    cubics = [{monomial(e): 1} for e in ((3, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3),
                                         (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1),
                                         (1, 0, 2), (0, 1, 2))]
    assert not dict_full_rank(cubics, 3, 3, P)
    assert dict_full_rank(cubics + [{monomial((1, 1, 1)): 5}], 3, 3, P)
    # xy and xz share the zero (0, 1, 0) in every degree
    shared = [{monomial((1, 1, 0)): 1}, {monomial((1, 0, 1)): 1}]
    assert not any(dict_full_rank(shared, 3, d, P) for d in range(2, 7))


def test_macaulay_degrees_on_values_at_lattice_points():
    x, y, z, zero = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]

    def full(forms, n, degree):
        return macaulay_full_rank(np.array(forms, dtype=np.int64), n, degree, P)

    # the 1 x 1 minors x, y, z have no common zero: degree 2 is full
    assert full([[x, y, z]], 1, 2)
    # x and y share (0, 0, 1) in every degree
    assert not any(full([[x, y, zero]], 1, d) for d in range(2, 6))
    # the 2 x 2 minors of [[x, y, 0], [0, x, y]] are x^2, xy, y^2: z is free
    assert not full([[x, y, zero], [zero, x, y]], 2, 3)
    # those of [[x, y, z, 0], [0, x, y, z]] leave only x = y = z = 0; the
    # Macaulay matrix in degree 3 has 6 x 3 rows for 10 columns, and is full
    assert full([[x, y, z, zero], [zero, x, y, z]], 2, 3)
    # no minors at all (t < n) certify nothing
    assert not full([[x], [y]], 2, 3)


def test_minors_mod_p_are_the_images_of_the_exact_minors():
    state = random_separable(3, 3, 4, seed=2)
    pencil = pencil_matrix(state)
    exact = minors(pencil.entry_polys(), pencil.n)
    reduced = _minors_mod_p(_pencil_mod_p(pencil, P).tolist(), P)
    assert len(reduced) == len(exact)
    for g, r in zip(exact, reduced):
        image = {monomial(e): reduce_scalar(c, P) for e, c in g.terms.items()}
        assert r == {e: c for e, c in image.items() if c}


def test_the_hyperplane_substitution_is_injective():
    # H is x_{m-1} = sum_i h_i x_i: the map y -> (y, h . y) has rank m - 1
    # for every h, and each entry restricted to the columns of that map,
    # the points e_i + h_i e_{m-1}, is the entry composed with it
    v = variety_of_state(random_mixed(4, 3, 5, seed=1))
    forms = _pencil_mod_p(v.pencil, P)
    assert forms.dtype == np.int64 and forms.shape == (v.n, v.pencil.t, 4)
    rng = random.Random(3)
    for seed in range(5):
        _, cert = _macaulay_certificate(v, seed)
        h = cert.hyperplane
        assert len(h) == 3 and all(x.fields[2] == 1 for x in h)
        embed = [[EC(int(i == j)) for j in range(3)] for i in range(3)] + [list(h)]
        assert rank_exact(exact_matrix(embed)) == 3
        basis = [[reduce_scalar(row[i], P) for row in embed] for i in range(3)]
        restricted = restrict_mod_p(forms, np.array(basis), P).tolist()
        hp = [reduce_scalar(x, P) for x in h]
        for _ in range(3):
            y = [rng.randrange(P) for _ in range(3)]
            x = y + [sum(a * b for a, b in zip(hp, y)) % P]
            for row, rrow in zip(forms.tolist(), restricted):
                for c, rc in zip(row, rrow):
                    assert sum(a * b for a, b in zip(c, x)) % P == \
                        sum(a * b for a, b in zip(rc, y)) % P


def test_a_denominator_divisible_by_p_moves_to_the_next_prime(monkeypatch):
    base = random_separable(4, 4, 6, seed=1)
    scaled = [(w, tuple(x * EC(Fraction(1, P)) for x in vec)) if k == 2 else (w, vec)
              for k, (w, vec) in enumerate(base.ensemble)]
    tried = []
    walk = modp.split_primes

    def spy(start=13):
        for p in walk(start):
            tried.append(p)
            yield p

    # the walk runs once per pencil, at the first reader of the reduction:
    # here the minor screen inside variety_of_state
    monkeypatch.setattr("detvar.variety.split_primes", spy)
    v = variety_of_state(BipartiteState(4, 4, ensemble=scaled))
    assert _pencil_mod_p(v.pencil, P) is None
    tag, cert = _macaulay_certificate(v, 42)
    assert tag == "Finite"
    assert tried == [P, next(walk(P + 1))] and cert.prime == tried[1]

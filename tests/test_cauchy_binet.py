"""The integer minor kernel and the Cauchy-Binet certificate of the peel.

``modp.maximal_minors_mod_p`` evaluates the maximal minors of an integer
matrix modulo p, from the matrix's residues; it must give the residues of
multipoly's Laplace expansion (``minor_terms`` on constant entries, the
copy kept in ``oracles.modp``), in the same order.

``variety._cauchy_binet_certificate`` claims, with no minor expanded,
that the maximal minors of an exact pencil with t > n share no factor: the
binary no-common-zero test (``modp.binary_minors_coprime``) on the pencil
restricted to a line modulo its prime.  Run on a line, it must never say
so where the exact gcd of the minors restricted to that line
(``factorization._line_gcd``) is not a constant with a restriction of
full degree.  On the generic states it must say so, or it
would certify nothing; where a hyperplane divides every minor (planted,
or the two planes of the 4x6 PPT state's side A) it must not.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from detvar import catalog
from detvar.factorization import _line_gcd, _random_exact_point
from detvar.modp import (
    RANK_PRIME,
    gcd_mod_p,
    interpolate_mod_p,
    maximal_minors_mod_p,
)
from detvar.scalars import ExactComplex
from detvar.statefile import load_state
from detvar.states import random_separable
from detvar.variety import (
    _analysis_system,
    _cauchy_binet_certificate,
    variety_of_state,
)
from oracles.modp import INTEGERS, minor_terms
from pinned import GOLDEN
from shared_states import cauchy_binet_cases, factored_state, gaussian_integer_state

EC = ExactComplex


# -- the integer kernel ---------------------------------------------------------

@pytest.mark.parametrize("p", [RANK_PRIME, 13])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_integer_kernel_matches_laplace_expansion(n, p):
    rng = random.Random(f"kernel:{n}:{p}")
    for t in range(max(1, n - 1), n + 4):
        for trial in range(4):
            # small entries with zeros, and entries far beyond p
            bound = 3 if trial % 2 else 10 ** 12
            rows = [[rng.randint(-bound, bound) if rng.random() > 0.2 else 0
                     for _ in range(t)] for _ in range(n)]
            entries = [[{0: x} if x else {} for x in row] for row in rows]
            expected = [terms.get(0, 0) % p for _, terms in minor_terms(entries, n, INTEGERS)
                        ] if t >= n else []
            residues = np.array(rows, dtype=np.int64).reshape(n, t, 1) % p
            assert maximal_minors_mod_p(residues, p)[:, 0].tolist() == expected


def test_interpolation_and_gcd_modulo_p():
    p = RANK_PRIME
    rng = random.Random(3)
    for degree in range(7):
        coeffs = [rng.randrange(p) for _ in range(degree + 1)]
        values = [sum(c * s ** k for k, c in enumerate(coeffs)) for s in range(degree + 1)]
        assert interpolate_mod_p(values, p) == coeffs
    # (s - 1)(s - 2) and (s - 1)(s + 5): a gcd of degree 1 with root 1
    common = gcd_mod_p([2, -3, 1], [-5, 4, 1], p)
    assert len(common) == 2 and (common[0] + common[1]) % p == 0
    assert len(gcd_mod_p([3, 0, 1], [5, 1], p)) == 1
    assert gcd_mod_p([], [0, 0], p) == []
    assert gcd_mod_p([0], [2, 1], p) == [2, 1]


# -- the certificate against the exact line gcd ----------------------------------

@pytest.mark.parametrize("state, side, certified", cauchy_binet_cases())
def test_certificate_never_claims_what_the_exact_gcd_denies(state, side, certified):
    v = variety_of_state(state, side)
    assert v.mode == "exact" and v.pencil.t > v.n
    gens = v.essential_generators
    for k in range(4):
        rng = random.Random(f"line:{k}")
        base, direction = _random_exact_point(rng, v.m), _random_exact_point(rng, v.m)
        claim = _cauchy_binet_certificate(v.pencil, base, direction)
        common, full_degree = _line_gcd(gens, base, direction)
        exact = len(common) == 1 and full_degree
        assert not claim or exact
        assert claim == exact == certified


def test_a_direction_on_the_planted_hyperplane_is_not_certified():
    # l(direction) = 0: l restricts to a constant, so the exact gcd is a
    # constant too, but no minor keeps full degree along the line; only the
    # degree condition keeps the certificate from claiming it
    coeffs = (1, Fraction(1, 2), -3, Fraction(2, 3))
    v = variety_of_state(factored_state(coeffs), "A")
    rng = random.Random(5)
    base = _random_exact_point(rng, 4)
    direction = [EC(3), EC(0), EC(1), EC(0)]  # 1*3 + (-3)*1 = 0
    common, full_degree = _line_gcd(v.essential_generators, base, direction)
    assert len(common) == 1 and not full_degree
    assert not _cauchy_binet_certificate(v.pencil, base, direction)


def test_certified_peel_and_planes_of_ppt_side_a():
    # the peel's own stream: side B and a generic 4x4 r5 are certified with
    # no minor expanded; side A fails the certificate and still peels its
    # two planes
    ppt = catalog.ppt_4x6_state()
    for state, side in [(ppt, "B"), (load_state(str(GOLDEN / "gaussian_4x4_r5.state.json")),
                                      "A")]:
        v = variety_of_state(state, side)
        assert _analysis_system(v) == ([], None, None) and "generators" not in vars(v)
    forms, rest, _ = _analysis_system(variety_of_state(ppt, "A"))
    assert len(forms) == 2 and rest


def test_a_non_product_square_pencil_is_expanded_at_build_and_split_by_the_peel():
    # t = n in four variables, some ray not a product: no screen and no
    # certificate; det N is expanded when V is built, and the line peel
    # reads it.  A generic 4x4 r4 determinant has no Q(i) linear factor,
    # certified, and neither has a generic 3x4 r4 one
    for state in (gaussian_integer_state(4, 4, 4, 1), gaussian_integer_state(3, 4, 4, 1)):
        v = variety_of_state(state)
        assert "generators" in vars(v) and v.split is None
        forms, rest, fl = _analysis_system(v)
        assert (forms, rest) == ([], [fl.residual])
        assert fl.linear_factors == [] and fl.certified
        assert fl.remultiply(v.m) == v.essential_generators[0]


def test_a_product_square_pencil_is_split_from_its_columns():
    # every ray a product: det N = det[b] * prod_l a_l . r is read off the
    # columns, with no minor expanded and no line peeled; the four forms
    # re-multiply to the determinant, expanded here only to check them
    w = variety_of_state(random_separable(4, 4, 4, seed=1))
    assert "generators" not in vars(w) and w.essential_count == 1
    forms, rest, fl = _analysis_system(w)
    assert (forms, rest) == ([], None)
    assert fl.residual is None and len(fl.linear_factors) == 4 and fl.certified
    assert fl.remultiply(4) == w.essential_generators[0]

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detvar import exactroots
from detvar.exactroots import ec_divmod, ec_gcd, gaussian_rational_roots, rational_roots
from detvar.scalars import ExactComplex

EC = ExactComplex
F = Fraction


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ec_mul(a, b):
    out = [EC(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def test_rational_roots_with_multiplicity():
    p = [F(1)]
    for factor in ([-2, 1], [3, 4], [3, 4], [-1, 2]):
        p = poly_mul(p, [F(c) for c in factor])
    roots = dict(rational_roots(p))
    assert roots == {F(2): 1, F(-3, 4): 2, F(1, 2): 1}


def test_rational_roots_negative_certificates():
    assert rational_roots([F(-2), F(0), F(1)]) == []       # x^2 - 2
    assert rational_roots([F(-2), F(0), F(0), F(1)]) == []  # x^3 - 2
    assert rational_roots([F(1), F(1), F(1)]) == []         # x^2 + x + 1
    # root at zero with multiplicity
    assert dict(rational_roots([F(0), F(0), F(-5), F(1)])) == {F(0): 2, F(5): 1}


def test_rational_roots_large_denominator():
    # (97 x - 31)(x^2 + 1)
    p = poly_mul([F(-31), F(97)], [F(1), F(0), F(1)])
    assert rational_roots(p) == [(F(31, 97), 1)]


def test_gaussian_roots_basic():
    assert {z for z, _ in gaussian_rational_roots([EC(1), EC(0), EC(1)])} == \
        {EC(0, 1), EC(0, -1)}
    # z^2 + 2i factors through +-(1 - i)
    got = {z for z, _ in gaussian_rational_roots([EC(0, 2), EC(0), EC(1)])}
    assert got == {EC(1, -1), EC(-1, 1)}
    assert gaussian_rational_roots([EC(-2), EC(0), EC(1)]) == []


def test_gaussian_roots_multiplicity_and_mixed():
    root = EC(1, 2)
    p = ec_mul(ec_mul([-root, EC(1)], [-root, EC(1)]), [EC(-3), EC(1)])
    out = dict(gaussian_rational_roots(p))
    assert out == {root: 2, EC(3): 1}
    # rational root next to a conjugate-irrational pair
    p2 = ec_mul([EC(F(-1, 2)), EC(1)], [EC(1), EC(1), EC(1)])
    assert dict(gaussian_rational_roots(p2)) == {EC(F(1, 2)): 1}


def test_gaussian_roots_random_reconstruction():
    rng = random.Random(13)
    for _ in range(15):
        roots = [EC(F(rng.randint(-6, 6), rng.randint(1, 3)),
                    F(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(3)]
        p = [EC(rng.randint(1, 3))]
        for r in roots:
            p = ec_mul(p, [-r, EC(1)])
        found = gaussian_rational_roots(p)
        assert sum(m for _, m in found) == 3
        assert {z for z, _ in found} == set(roots)


def test_polynomial_division_helpers():
    eq, er = ec_divmod([EC(0, 1), EC(1)], [EC(1), EC(1)])
    assert eq == [EC(1)] and er == [EC(-1, 1)]
    eq, er = ec_divmod(ec_mul([EC(2), EC(0, 1)], [EC(1, 1), EC(1)]), [EC(1, 1), EC(1)])
    assert eq == [EC(2), EC(0, 1)] and er == []
    eg = ec_gcd(ec_mul([EC(0, -1), EC(1)], [EC(2), EC(1)]),
                ec_mul([EC(0, -1), EC(1)], [EC(-5), EC(1)]))
    assert eg == [EC(0, -1), EC(1)]


# ---------------------------------------------------------------------------
# The modular engine: edge cases of the prime walk, the lift and the bound
# ---------------------------------------------------------------------------

def walk(monkeypatch):
    """Record the primes the finder tries and how often it reconstructs."""
    seen = {"primes": [], "reconstructions": 0}
    primes, reconstruct = exactroots._split_primes, exactroots._reconstruct

    def spy_primes():
        for p in primes():
            seen["primes"].append(p)
            yield p

    def spy_reconstruct(*args):
        seen["reconstructions"] += 1
        return reconstruct(*args)

    monkeypatch.setattr(exactroots, "_split_primes", spy_primes)
    monkeypatch.setattr(exactroots, "_reconstruct", spy_reconstruct)
    return seen


def test_no_root_exit_before_the_lift(monkeypatch):
    # x^2 - 2 has the roots +-6 mod 17 but none mod 29, where 2 is no
    # square.  A leading 13 spends the first prime of the walk, so the
    # no-root exit passes 17 and ends the walk at 29, before the squarefree
    # part and the lift.
    assert pow(6, 2, 17) == 2 and pow(2, 14, 29) == 28
    seen = walk(monkeypatch)
    monkeypatch.setattr(exactroots, "ec_gcd", lambda *args: pytest.fail("squarefree part"))
    assert gaussian_rational_roots([EC(-26), EC(0), EC(13)]) == []
    assert seen["primes"] == [13, 17, 29] and seen["reconstructions"] == 0


def test_roots_mod_p_that_lift_to_no_root(monkeypatch):
    # (x^2 - 2)(x^2 - 3)(x^2 - 6) has a root modulo every prime, since one
    # of 2, 3 and 6 is a square, but none in Q(i).  A leading 13 spends the
    # first prime of each walk: the no-root exit tries 17, 29, 37 and 41,
    # then the finder lifts the roots +-6 mod 17 and rejects every
    # reconstruction.
    assert pow(6, 2, 17) == 2
    seen = walk(monkeypatch)
    p = ec_mul([EC(13)], ec_mul([EC(-2), EC(0), EC(1)],
                                ec_mul([EC(-3), EC(0), EC(1)], [EC(-6), EC(0), EC(1)])))
    assert gaussian_rational_roots(p) == []
    assert seen["primes"] == [13, 17, 29, 37, 41, 13, 17] and seen["reconstructions"] > 0


def test_leading_coefficient_skips_primes(monkeypatch):
    # 221 = 13 * 17 vanishes at the first two primes of both walks: the
    # no-root exit tries the next four, the lift takes the first of them
    seen = walk(monkeypatch)
    p = ec_mul([EC(221)], ec_mul([EC(F(-1, 2)), EC(1)], [EC(3), EC(1)]))
    assert gaussian_rational_roots(p) == [(EC(-3), 1), (EC(F(1, 2)), 1)]
    assert seen["primes"] == [13, 17, 29, 37, 41, 53, 13, 17, 29]


def test_leading_coefficient_vanishing_in_one_image(monkeypatch):
    # 3 + 2i lies above 13: it vanishes under i -> 5 mod 13 but not under i -> -5
    assert (3 + 2 * 5) % 13 == 0 and (3 - 2 * 5) % 13 != 0
    seen = walk(monkeypatch)
    p = ec_mul([EC(3, 2)], ec_mul([EC(-1), EC(1)], [EC(0, -1), EC(1)]))
    assert gaussian_rational_roots(p) == [(EC(0, 1), 1), (EC(1), 1)]
    assert seen["primes"] == [13, 17, 29, 37, 41, 13, 17]


_gaussian_rationals = st.builds(
    lambda a, b, d: EC(F(a, d), F(b, d)),
    st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 30))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cofactor=st.lists(_gaussian_rationals, min_size=1, max_size=6)
       .filter(lambda c: not c[-1].is_zero()),
       root=_gaussian_rationals)
def test_no_root_exit_never_fires_on_a_planted_root(cofactor, root):
    p = ec_mul(cofactor, [-root, EC(1)])
    assert not exactroots._no_root_mod_p(p)
    assert root in dict(gaussian_rational_roots(p))


def test_roots_with_denominator_the_norm_of_the_leading_coefficient():
    # (x - 1/(7+4i))(x - 1/(7-4i)) = (65x^2 - 14x + 1)/65, and N(65) bounds
    # the denominators of Re and Im: here they are 65 exactly
    p = [EC(1), EC(-14), EC(65)]
    assert gaussian_rational_roots(p) == [(EC(F(7, 65), F(-4, 65)), 1),
                                          (EC(F(7, 65), F(4, 65)), 1)]


def test_double_root_at_zero():
    p = [EC(0), EC(0), EC(-2, -1), EC(1)]  # x^2 (x - 2 - i)
    assert gaussian_rational_roots(p) == [(EC(0), 2), (EC(2, 1), 1)]


def test_int_and_fraction_coefficients():
    assert gaussian_rational_roots([6, -5, 1]) == [(EC(2), 1), (EC(3), 1)]
    assert gaussian_rational_roots([F(1, 2), 0, F(1, 2)]) == [(EC(0, -1), 1), (EC(0, 1), 1)]
    assert rational_roots([F(1, 2), F(-3, 2), 1]) == [(F(1, 2), 1), (F(1), 1)]
    assert rational_roots([1, 0, 1]) == []  # the roots +-i are not real
    assert rational_roots([5]) == [] and gaussian_rational_roots([EC(0, 5)]) == []
    with pytest.raises(ValueError):
        gaussian_rational_roots([EC(0), EC(0)])


def test_degree_six_without_roots():
    assert gaussian_rational_roots([EC(-2), 0, 0, 0, 0, 0, EC(1)]) == []
    assert gaussian_rational_roots([EC(1), EC(1), 0, 0, 0, 0, EC(1)]) == []
    assert gaussian_rational_roots([EC(-3), 0, 0, EC(1, 1), 0, 0, EC(4)]) == []


def test_rational_reconstruction_is_exact_within_the_bound():
    m, bound = 13 ** 2, 9  # 2 * 9^2 < 13^2
    for d in range(1, bound + 1):
        for n in range(-bound, bound + 1):
            if gcd(n, d) == 1:
                assert exactroots._reconstruct(n * pow(d, -1, m), m, bound) == F(n, d)

import copy
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from detvar.errors import DivisionByZero
from detvar.scalars import ExactComplex, Tolerance


def test_norm_identity():
    a = ExactComplex(Fraction(1, 2), 1)
    b = ExactComplex(Fraction(1, 2), -1)
    assert a * b == ExactComplex(Fraction(5, 4))


def test_inverse_of_i():
    assert ExactComplex(0, 1).inverse() == ExactComplex(0, -1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ExactComplex(1) / ExactComplex(0)


def test_canonical_zero_and_reduction():
    z = ExactComplex(Fraction(2, 4), Fraction(-6, 8))
    assert z.re == Fraction(1, 2) and z.re.denominator == 2
    assert z.im == Fraction(-3, 4) and z.im.denominator == 4
    assert (z - z).is_zero()


def test_tolerance_positivity():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=0.0)


def _rand_ec(rng):
    return ExactComplex(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                        Fraction(rng.randint(-20, 20), rng.randint(1, 9)))


def test_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = _rand_ec(rng), _rand_ec(rng), _rand_ec(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == ExactComplex(1)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_roundtrip_to_binary64():
    # dyadic rationals are exactly representable, so conversion is exact
    rng = random.Random(3)
    for _ in range(40):
        re = Fraction(rng.randint(-999, 999), 2 ** rng.randint(0, 10))
        im = Fraction(rng.randint(-999, 999), 2 ** rng.randint(0, 10))
        z = ExactComplex(re, im).to_complex()
        assert z.real == float(re) and z.imag == float(im)


def test_real_values_hash_like_rationals():
    # equal objects must hash equal, or sets and dicts miss them
    assert ExactComplex(3) in {3}
    assert 3 in {ExactComplex(3)}
    assert ExactComplex(Fraction(-7, 3)) in {Fraction(-7, 3)}
    assert len({ExactComplex(2), 2, Fraction(4, 2)}) == 1


def test_copy_and_pickle_round_trip():
    from detvar.catalog import cyclic_cubic_state
    z = ExactComplex(Fraction(3, 4), Fraction(-2, 5))
    for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert twin == z and hash(twin) == hash(z) and twin.render() == z.render()
        with pytest.raises(AttributeError):
            twin._v = (0, 0, 1)
    st = cyclic_cubic_state(ExactComplex(27))
    rho = st.density_matrix()
    for twin in (copy.deepcopy(st), pickle.loads(pickle.dumps(st))):
        assert twin.ensemble == st.ensemble and np.array_equal(twin.density_matrix(), rho)
    for twin in (copy.copy(rho), copy.deepcopy(rho), pickle.loads(pickle.dumps(rho))):
        assert np.array_equal(twin, rho) and twin.dtype == object


def _hex(z: complex):
    return z.real.hex(), z.imag.hex()


# parts at the float extremes: huge, tiny, subnormal, underflowing to -0.0,
# and near the largest double; 10**400 overflows
_EXTREMES = [
    ExactComplex(Fraction(1, 3), Fraction(-2, 7)),
    ExactComplex(Fraction(10**308, 3), Fraction(-1, 10**320)),
    ExactComplex(Fraction(-1, 10**400), Fraction(10**300, 7)),
    ExactComplex(Fraction(2**1024 - 2**970 - 1, 1), 0),
    ExactComplex(Fraction(5, 2**1074), Fraction(-3, 2**1076)),
    ExactComplex(0),
]


def test_complex_rounds_as_to_complex():
    rng = random.Random(11)
    drawn = [ExactComplex(Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25)),
                          Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25)))
             for _ in range(200)]
    for z in _EXTREMES + drawn:
        assert type(complex(z)) is complex and _hex(complex(z)) == _hex(z.to_complex())
    for z in (ExactComplex(10**400), ExactComplex(0, Fraction(10**400, 3))):
        with pytest.raises(OverflowError) as want:
            z.to_complex()
        with pytest.raises(OverflowError) as got:
            complex(z)
        assert str(got.value) == str(want.value)


def test_numpy_casts_round_as_to_complex():
    got = np.asarray(_EXTREMES, dtype=complex)
    assert got.dtype == complex
    assert [_hex(z) for z in got.tolist()] == [_hex(z.to_complex()) for z in _EXTREMES]
    grid = np.array([_EXTREMES[:3], _EXTREMES[3:]], dtype=object)
    assert [_hex(z) for z in grid.astype(complex).ravel().tolist()] == \
        [_hex(z.to_complex()) for z in _EXTREMES]

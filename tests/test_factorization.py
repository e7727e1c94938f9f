import random
from fractions import Fraction

import pytest

from detvar.errors import UnsupportedShape
from detvar.factorization import is_irreducible_cubic_over_gaussians, linear_factorization
from detvar.multipoly import LinearForm, Poly
from detvar.scalars import ExactComplex

EC = ExactComplex
F = Fraction


def three_vars():
    return (Poly.variable(i, 3) for i in range(3))


def fermat_like():
    x, y, z = three_vars()
    return x ** 3 + y ** 3 + z ** 3 - (x * y * z).scale(3)


def example_g():
    a, b = (Poly.variable(i, 2) for i in range(2))
    one = Poly.const(2, 1)
    return ((a ** 3).scale(2) + (a * a * b).scale(2) + (b * b).scale(4) - a * a
            + (a * b).scale(6) - a.scale(3) - b.scale(4) + one)


def test_split_with_extension_residual():
    # one Gaussian-rational factor; the conjugate pair stays in the residual
    p = fermat_like()
    fl = linear_factorization(p)
    assert len(fl.linear_factors) == 1
    assert fl.residual is not None and fl.residual.degree() == 2
    assert fl.remultiply(3) == p
    # the residual carries no Q(i)-linear factor: re-running on it directly
    res_fl = linear_factorization(fl.residual)
    assert res_fl.linear_factors == []


def test_monomial_split():
    x, y, _ = three_vars()
    p = x * x * y
    fl = linear_factorization(p)
    assert len(fl.linear_factors) == 3 and fl.residual is None
    assert fl.remultiply(3) == p


def test_example_g_has_no_factor():
    g = example_g()
    fl = linear_factorization(g)
    assert fl.linear_factors == []
    assert is_irreducible_cubic_over_gaussians(g)


def test_smooth_cubic_has_no_factor():
    x, y, z = three_vars()
    p = (x ** 3).scale(8) + y ** 3 + z ** 3 - (x * y * z).scale(10)
    fl = linear_factorization(p)
    assert fl.linear_factors == [] and fl.remultiply(3) == p


def test_affine_product_reconstruction():
    a, b = (Poly.variable(i, 2) for i in range(2))
    one = Poly.const(2, 1)
    f1 = a + b.scale(EC(2)) + one.scale(EC(F(1, 2)))
    f2 = a.scale(EC(0, 1)) + b + one
    f3 = a - b.scale(EC(3))
    prod = f1 * f2 * f3
    fl = linear_factorization(prod)
    assert len(fl.linear_factors) == 3 and fl.residual is None
    assert fl.remultiply(2) == prod


def test_repeated_affine_factor():
    a, b = (Poly.variable(i, 2) for i in range(2))
    one = Poly.const(2, 1)
    f1 = a + b.scale(EC(2)) + one.scale(EC(F(1, 2)))
    f3 = a - b.scale(EC(3))
    prod = f1 * f1 * f3
    fl = linear_factorization(prod)
    assert len(fl.linear_factors) == 3
    assert fl.remultiply(2) == prod


def test_random_homogeneous_products():
    rng = random.Random(21)
    for trial in range(12):
        forms = []
        for _ in range(3):
            coeffs = [EC(F(rng.randint(-4, 4), rng.randint(1, 2)),
                         F(rng.randint(-4, 4), rng.randint(1, 2))) for _ in range(3)]
            if all(c.is_zero() for c in coeffs):
                coeffs[0] = EC(1)
            forms.append(LinearForm(coeffs, EC(0), normalize=False))
        prod = Poly.const(3, 1)
        for f in forms:
            prod = prod * f.to_poly(3)
        fl = linear_factorization(prod)
        assert len(fl.linear_factors) == 3 and fl.residual is None
        assert fl.remultiply(3) == prod


def test_unit_scaling_preserved():
    p = fermat_like().scale(EC(F(5, 7), F(1, 3)))
    fl = linear_factorization(p)
    assert fl.remultiply(3) == p


def test_unsupported_shapes():
    too_many = Poly.variable(0, 4) * Poly.variable(1, 4) * Poly.variable(2, 4) \
        * Poly.variable(3, 4)
    with pytest.raises(UnsupportedShape):
        linear_factorization(too_many)
    x, y = (Poly.variable(i, 2) for i in range(2))
    quartic_affine = (x ** 4) + y + Poly.const(2, 1)
    with pytest.raises(UnsupportedShape):
        linear_factorization(quartic_affine)

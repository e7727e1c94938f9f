"""The Q(i) linear-factor finder: the line peel (``linear_factors``) and the
factor list of one form built on it (``linear_factorization``).

An affine polynomial is factored through its homogenization, which has a
Q(i)-linear factor exactly when the polynomial has one.  The factor lists
are checked field by field against the exact factor engine the peel
replaced (``oracles.peel``, kept verbatim), on random products
of forms within that engine's shapes.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from detvar import factorization as factorization_mod
from detvar.factorization import _random_exact_point, linear_factorization, linear_factors
from detvar.multipoly import LinearForm, Poly
from detvar.scalars import ExactComplex
from oracles.peel import linear_factorization as engine_factorization
from oracles.polys import homogenize
from shared_states import cross

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


def product(forms, nvars, unit=1):
    p = Poly.const(nvars, unit)
    for f in forms:
        p = p * f.to_poly(nvars)
    return p


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
    # an affine cubic with no Q(i)-linear factor is irreducible over Q(i)
    assert linear_factorization(homogenize(example_g())).linear_factors == []


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
    prod = homogenize(f1 * f2 * f3)
    fl = linear_factorization(prod)
    assert len(fl.linear_factors) == 3 and fl.residual is None
    assert fl.remultiply(3) == prod


def test_repeated_affine_factor():
    a, b = (Poly.variable(i, 2) for i in range(2))
    one = Poly.const(2, 1)
    f1 = a + b.scale(EC(2)) + one.scale(EC(F(1, 2)))
    f3 = a - b.scale(EC(3))
    prod = homogenize(f1 * f1 * f3)
    fl = linear_factorization(prod)
    assert len(fl.linear_factors) == 3
    assert fl.remultiply(3) == prod


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
        prod = product(forms, 3)
        fl = linear_factorization(prod)
        assert len(fl.linear_factors) == 3 and fl.residual is None
        assert fl.remultiply(3) == prod


def test_unit_scaling_preserved():
    p = fermat_like().scale(EC(F(5, 7), F(1, 3)))
    fl = linear_factorization(p)
    assert fl.remultiply(3) == p


def test_no_shape_limit():
    # four variables and degree 7 were beyond the engine's shapes
    forms = [LinearForm.variable(i, 4) for i in range(4)]
    fl = linear_factorization(product(forms, 4))
    assert Counter(fl.linear_factors) == Counter(forms) and fl.residual is None
    rng = random.Random(5)
    forms = [LinearForm([1, EC(rng.randint(-5, 5), rng.randint(-5, 5)), F(k, 3)])
             for k in range(7)]
    p = product(forms, 3, unit=EC(2, 1))
    fl = linear_factorization(p)
    assert len(fl.linear_factors) == 7 and fl.residual is None
    assert fl.remultiply(3) == p


# -- field by field against the engine it replaced ----------------------------

def _scalar(rng):
    return EC(F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))


def _engine_shaped_form(rng):
    kind = rng.random()
    if kind < 0.15:
        return LinearForm([0, 0, 1])                     # the last variable alone
    if kind < 0.3:
        return LinearForm([0, 1, _scalar(rng)])          # y + c z
    coeffs = [_scalar(rng) for _ in range(3)]
    return LinearForm(coeffs if any(not c.is_zero() for c in coeffs) else [1, 0, 0])


def _engine_shaped_product(rng):
    x, y, z = three_vars()
    while True:
        forms = [_engine_shaped_form(rng) for _ in range(rng.randint(0, 3))]
        forms += forms[:rng.randint(0, 1)]               # a repeated form
        p = product(forms, 3, unit=_scalar(rng) or EC(1))
        residual = rng.random()
        if residual < 0.3:
            p = p * (x * x + (y * y).scale(_scalar(rng)) + (z * x).scale(_scalar(rng))
                     + (y * z).scale(_scalar(rng)))
        elif residual < 0.45:
            p = p * (x ** 3 + y ** 3 + z ** 3 - (x * y * z).scale(rng.randint(1, 5)))
        if 1 <= p.degree() <= 6:
            return p


def test_factor_list_matches_the_engine_field_by_field():
    rng = random.Random(28)
    for _ in range(80):
        p = _engine_shaped_product(rng)
        got, want = linear_factorization(p), engine_factorization(p)
        assert got.unit == want.unit
        assert got.linear_factors == want.linear_factors
        assert got.residual == want.residual


# -- the stop rule --------------------------------------------------------------

@pytest.mark.parametrize("count", [1, 2])
def test_a_fruitless_line_does_not_end_the_peel(count):
    # l1 and l2 meet at the base of the peel's first line, so both
    # restrictions vanish there to order 2 and that root gives no normal;
    # the root still says that something may divide, so the peel must
    # draw another line rather than stop
    base = _random_exact_point(random.Random(20211), 3)
    l1, l2 = (LinearForm(cross(base, [EC(1), EC(k), EC(0, k)])) for k in (2, -3))
    assert l1.evaluate(base).is_zero() and l2.evaluate(base).is_zero()
    x, y, z = three_vars()
    quadrics = [x * x + (y * z).scale(EC(3, 1)) - z * z, y * y - (x * z).scale(2) + x * y]
    gens = [l1.to_poly(3) * l2.to_poly(3) * h for h in quadrics[:count]]
    forms, rest = linear_factors(gens, 3)
    assert Counter(forms) == Counter([l1, l2])
    assert rest == quadrics[:count]


def test_an_uncertified_peel_says_so(monkeypatch):
    # every line starts on the conic, so each restriction has a Q(i) root
    # (and a second one: a line through a rational point of a conic meets
    # it again rationally) that gives no dividing form; after m fruitless
    # lines the peel ends without a certificate
    x, y, z = three_vars()
    conic = x * y - z * z
    draws = iter([[EC(1), EC(1), EC(1)], [EC(2), EC(-1), EC(3)]] * 3)
    monkeypatch.setattr(factorization_mod, "_random_exact_point", lambda rng, m: next(draws))
    fl = linear_factorization(conic)
    assert fl.linear_factors == [] and fl.remultiply(3) == conic
    assert not fl.certified
    monkeypatch.undo()
    assert linear_factorization(conic).certified
    assert linear_factorization(product([LinearForm([EC(1), EC(2), EC(0)])], 3)).certified

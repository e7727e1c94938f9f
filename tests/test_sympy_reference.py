"""The exact layers against sympy, on small random Q(i) inputs.

``gaussian_rational_roots`` and ``linear_factorization`` (the line peel's
factor list; an affine polynomial is read through its homogenization) are
checked against sympy's factorization over QQ_I, ``symbolic_det`` against
sympy's determinant.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from detvar.exactroots import gaussian_rational_roots  # noqa: E402
from detvar.factorization import linear_factorization  # noqa: E402
from detvar.multipoly import LinearForm, Poly, symbolic_det  # noqa: E402
from detvar.scalars import ExactComplex  # noqa: E402
from test_factorization import homogenize  # noqa: E402

EC = ExactComplex
X = sympy.symbols("x0:3")


def scalar_to_sympy(c):
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def scalar_from_sympy(v):
    re, im = v.as_real_imag()
    return EC(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def poly_to_sympy(p):
    return sum((scalar_to_sympy(c) * sympy.Mul(*(X[i] ** e for i, e in enumerate(exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


def random_scalar(rng, real=False):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return EC(re) if real else EC(re, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))


def normalized_linear(expr, nvars):
    """A degree-1 sympy expression scaled so its first variable
    coefficient is 1."""
    p = sympy.Poly(expr, *X[:nvars])
    lead = next(p.coeff_monomial(v) for v in X[:nvars] if p.coeff_monomial(v) != 0)
    return sympy.expand(expr / lead)


def test_gaussian_roots_match_sympy():
    rng = random.Random(41)
    x = X[0]
    for _ in range(12):
        roots = [random_scalar(rng, real=rng.random() < 0.3) for _ in range(rng.randint(0, 3))]
        roots += roots[:rng.randint(0, 1)]
        cofactor = [random_scalar(rng) for _ in range(rng.randint(1, 4))]
        if cofactor[-1].is_zero():
            cofactor[-1] = EC(1)
        coeffs = cofactor
        for r in roots:
            shifted = [EC(0)] + coeffs
            coeffs = [a - r * b for a, b in zip(shifted, coeffs + [EC(0)])]
        expr = sum(scalar_to_sympy(c) * x ** k for k, c in enumerate(coeffs))
        _, factors = sympy.Poly(expr, x, domain="QQ_I").factor_list()
        want = sorted(((scalar_from_sympy(-f.nth(0) / f.nth(1)), m)
                       for f, m in factors if f.degree() == 1),
                      key=lambda item: (item[0].re, item[0].im))
        assert gaussian_rational_roots(coeffs) == want


def _random_form(rng, nvars, homogeneous):
    coeffs = [random_scalar(rng) for _ in range(nvars)]
    if all(c.is_zero() for c in coeffs):
        coeffs[0] = EC(1)
    return LinearForm(coeffs, EC(0) if homogeneous else random_scalar(rng), normalize=False)


@pytest.mark.parametrize("nvars,homogeneous,max_degree", [(3, True, 4), (2, False, 3)])
def test_linear_factorization_matches_sympy(nvars, homogeneous, max_degree):
    # sympy factors over QQ_I slowly, so the degrees stay low
    rng = random.Random(43 + nvars)
    for _ in range(5):
        forms = [_random_form(rng, nvars, homogeneous)
                 for _ in range(rng.randint(1, max_degree - 2))]
        forms += forms[:rng.randint(0, 1)]
        p = Poly.const(nvars, random_scalar(rng) or EC(1))
        for f in forms:
            p = p * f.to_poly(nvars)
        # a quadric that may or may not split, to leave a residual
        quad = (Poly.variable(0, nvars) ** 2 + (Poly.variable(1, nvars) ** 2).scale(
            random_scalar(rng, real=True)) + Poly.variable(nvars - 1, nvars).scale(
                random_scalar(rng)) * Poly.variable(0, nvars))
        if p.degree() + 2 <= max_degree:
            p = p * quad
        q, k = (p, nvars) if homogeneous else (homogenize(p), 3)
        fl = linear_factorization(q)
        assert fl.remultiply(k) == q
        got = Counter(normalized_linear(poly_to_sympy(f.to_poly(k)), k)
                      for f in fl.linear_factors)
        assert sum(got.values()) >= len(forms)
        _, factors = sympy.Poly(poly_to_sympy(q), *X[:k], domain="QQ_I").factor_list()
        want = Counter()
        for f, m in factors:
            if f.total_degree() == 1:
                want[normalized_linear(f.as_expr(), k)] += m
        assert got == want


def test_symbolic_det_matches_sympy():
    rng = random.Random(47)
    for n in (1, 2, 3, 4, 5):
        rows = [[_random_form(rng, 3, homogeneous=rng.random() < 0.5).to_poly(3)
                 for _ in range(n)] for _ in range(n)]
        ring = sympy.QQ_I[X]
        matrix = DomainMatrix.from_Matrix(
            sympy.Matrix([[poly_to_sympy(e) for e in row] for row in rows])).convert_to(ring)
        want = ring.to_sympy(matrix.det())
        assert sympy.Poly(poly_to_sympy(symbolic_det(rows)), *X, domain="QQ_I") == \
            sympy.Poly(want, *X, domain="QQ_I")

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from detvar.catalog import cyclic_cubic_state
from detvar.errors import (
    ArityMismatch,
    BadOrder,
    DegenerateLeadingCoefficient,
    NoConvergence,
    ZeroDirection,
)
from detvar.multipoly import (
    LinearForm,
    Poly,
    minors,
    restrict_to_line,
    substitute_affine,
    sylvester_resultant,
    symbolic_det,
    univariate_coeffs,
    univariate_roots,
)
from detvar.scalars import DEFAULT_TOL, ExactComplex
from detvar.variety import sample_points, tangent_form, variety_of_state
from oracles.polys import evaluate  # the float evaluation Poly.evaluate had

EC = ExactComplex


def xyz():
    return (Poly.variable(i, 3) for i in range(3))


def family_pencil(t_cubed):
    r1, r2, r3 = xyz()
    return [[r1.scale(EC(t_cubed)), r3, r2], [r2, r1, r3], [r3, r2, r1]]


def family_cubic(t_cubed):
    r1, r2, r3 = xyz()
    return (r1 ** 3).scale(EC(t_cubed)) + r2 ** 3 + r3 ** 3 \
        - (r1 * r2 * r3).scale(EC(t_cubed) + EC(2))


def test_ring_ops():
    x, y, _ = xyz()
    assert (x + y) * (x - y) == x * x - y * y
    p = x * y + x
    assert (p + p.scale(-1)).is_zero()
    with pytest.raises(ArityMismatch):
        _ = x + Poly.variable(0, 2)


def test_evaluate_checks_the_arity_of_the_point():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    p = x * x + y
    assert p.evaluate([EC(1), EC(2)]) == EC(3)
    for point in ([EC(1), EC(2), EC(99)], [EC(1)], [1, 2, 99], [1], []):
        with pytest.raises(ArityMismatch):
            p.evaluate(point)
    with pytest.raises(ArityMismatch):
        p.to_approx().evaluate([EC(1), EC(2), EC(99)])
    # exact only: a float point or poly is refused
    for q, point in ((p, [1, 2]), (p, [EC(1), 2j]), (p.to_approx(), [EC(1), EC(2)])):
        with pytest.raises(TypeError):
            q.evaluate(point)


def test_symbolic_det_family_cubic():
    for t3 in (Fraction(8), Fraction(-27), Fraction(27), Fraction(3, 5)):
        assert symbolic_det(family_pencil(t3)) == family_cubic(t3)


def test_symbolic_det_diag_of_forms():
    l1 = LinearForm([1, 2, 0], normalize=False).to_poly(3)
    l2 = LinearForm([0, 1, -1], normalize=False).to_poly(3)
    l3 = LinearForm([3, 0, 1], normalize=False).to_poly(3)
    z = Poly.zero(3)
    rows = [[l1, z, z], [z, l2, z], [z, z, l3]]
    assert symbolic_det(rows) == l1 * l2 * l3


def test_symbolic_det_5x5_vs_plain_cofactor():
    # at 5x5 the memoized expansion shares each 3x3 minor among several
    # 4x4 ones; compare against plain, unshared cofactor expansion
    rng = random.Random(9)

    def rand_poly():
        terms = {}
        for _ in range(2):
            e = [0] * 2
            e[rng.randint(0, 1)] = rng.randint(0, 1)
            terms[tuple(e)] = EC(rng.randint(-3, 3))
        return Poly(2, terms)

    rows = [[rand_poly() for _ in range(5)] for _ in range(5)]

    def cofactor(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        acc = Poly.zero(2)
        for j in range(n):
            sub = [[mat[i][c] for c in range(n) if c != j] for i in range(1, n)]
            term = mat[0][j] * cofactor(sub)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    assert symbolic_det(rows) == cofactor(rows)


def test_minors_counts():
    vars6 = [Poly.variable(i, 6) for i in range(6)]
    m23 = [[vars6[i * 3 + j] for j in range(3)] for i in range(2)]
    assert len(minors(m23, 2)) == 3
    with pytest.raises(BadOrder):
        minors(m23, 3)


def test_minors_of_block_identity_pencil():
    # the maximally mixed pencil [r1*I | r2*I | r3*I] yields pure powers
    n, m = 2, 3
    z = Poly.zero(m)
    rows = []
    for k in range(n):
        row = []
        for i in range(m):
            for j in range(n):
                row.append(Poly.variable(i, m) if j == k else z)
        rows.append(row)
    gens = minors(rows, n)
    rendered = {g.render() for g in gens if not g.is_zero()}
    for i in range(m):
        e = [0] * m
        e[i] = n
        assert Poly(m, {tuple(e): EC(1)}) in [g for g in gens]


def test_substitute_hesse_rescale():
    # r1 -> r1/t turns t^3 r1^3 into r1^3 and -(t^3+2) r1r2r3 into -((t^3+2)/t) r1r2r3
    t = Fraction(2)
    cubic = family_cubic(t ** 3)
    mapping = {
        0: LinearForm([EC(Fraction(1, t)), EC(0), EC(0)], normalize=False),
        1: LinearForm.variable(1, 3),
        2: LinearForm.variable(2, 3),
    }
    out = substitute_affine(cubic, mapping)
    r1, r2, r3 = xyz()
    lam = (t ** 3 + 2) / t
    expect = r1 ** 3 + r2 ** 3 + r3 ** 3 - (r1 * r2 * r3).scale(EC(lam))
    assert out == expect


def test_substitute_identity_and_hom_property():
    rng = random.Random(4)

    def rand_poly():
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(0, 2) for _ in range(2))
            terms[e] = EC(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return Poly(2, terms)

    ident = {0: LinearForm.variable(0, 2), 1: LinearForm.variable(1, 2)}
    sigma = {
        0: LinearForm([EC(1), EC(2)], EC(Fraction(1, 2)), normalize=False),
        1: LinearForm([EC(0, 1), EC(-1)], EC(3), normalize=False),
    }
    for _ in range(10):
        p, q = rand_poly(), rand_poly()
        assert substitute_affine(p, ident) == p
        lhs = substitute_affine(p * q, sigma)
        rhs = substitute_affine(p, sigma) * substitute_affine(q, sigma)
        assert lhs == rhs


def test_substitute_into_fewer_variables():
    # a quartic-ish polynomial in r1..r4 sent to a chart in (x, y, w), each
    # image a linear form in 3 variables, checked term by term against the
    # composition written out with Poly arithmetic
    r = [Poly.variable(i, 4) for i in range(4)]
    p = (r[0] * r[1] * r[3]).scale(EC(2, -1)) + (r[3] ** 3).scale(EC(Fraction(1, 3))) \
        - r[2] * r[2] + r[0].scale(EC(5)) + Poly.const(4, EC(-7))
    mapping = {
        0: LinearForm([EC(0)] * 3, EC(1), normalize=False),
        1: LinearForm.variable(0, 3),
        2: LinearForm([EC(0), EC(1), EC(0, 1)], normalize=False),
        3: LinearForm([EC(0), EC(-1), EC(1)], EC(-2), normalize=False),
    }
    x, y, w = xyz()
    one = Poly.const(3, EC(1))
    images = [one, x, y + w.scale(EC(0, 1)), w - y - one.scale(EC(2))]
    expect = (images[0] * images[1] * images[3]).scale(EC(2, -1)) \
        + (images[3] ** 3).scale(EC(Fraction(1, 3))) - images[2] * images[2] \
        + images[0].scale(EC(5)) + Poly.const(3, EC(-7))
    out = substitute_affine(p, mapping)
    assert out.nvars == 3
    assert out == expect
    assert substitute_affine(p.to_approx(), mapping).nvars == 3


def test_substitute_forms_of_different_arities_raise():
    p = Poly.variable(0, 2) * Poly.variable(1, 2)
    with pytest.raises(ArityMismatch):
        substitute_affine(p, {0: LinearForm.variable(0, 3), 1: LinearForm.variable(1, 2)})
    with pytest.raises(ArityMismatch):
        substitute_affine(p, {0: LinearForm.variable(0, 2)})


def test_restrict_to_line_basics():
    x, y, _ = xyz()
    p = x * x + y * y
    line = restrict_to_line(p, [EC(0)] * 3, [EC(1), EC(1), EC(0)])
    assert univariate_coeffs(line) == [EC(0), EC(0), EC(2)]
    const = restrict_to_line(Poly.const(3, 5), [EC(0)] * 3, [EC(1), EC(0), EC(0)])
    assert const.degree() == 0
    with pytest.raises(ZeroDirection):
        restrict_to_line(p, [EC(0)] * 3, [EC(0)] * 3)


def test_restrict_family_cubic_degree():
    rng = random.Random(12)
    cubic = family_cubic(Fraction(8))
    base = [EC(Fraction(rng.randint(-5, 5), 2)) for _ in range(3)]
    direction = [EC(Fraction(rng.randint(1, 5), 3)) for _ in range(3)]
    assert restrict_to_line(cubic, base, direction).degree() == 3


def test_univariate_roots_basics():
    roots = sorted(univariate_roots([1, 0, 1]), key=lambda z: z.imag)
    assert abs(roots[0] + 1j) < 1e-12 and abs(roots[1] - 1j) < 1e-12
    roots3 = univariate_roots([-1, 0, 0, 1])
    assert len(roots3) == 3
    for r in roots3:
        assert abs(r ** 3 - 1) < 1e-9
    with pytest.raises(DegenerateLeadingCoefficient):
        univariate_roots([1.0, 1e-14])


def _meets_residual_bar(coeffs, z):
    value = sum(c * z ** k for k, c in enumerate(coeffs))
    scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
    return abs(value) <= DEFAULT_TOL.abs_eps * scale


def _match_roots(got, want, tol):
    got = list(got)
    assert len(got) == len(want)
    for r in want:
        k = min(range(len(got)), key=lambda i: abs(got[i] - r))
        assert abs(got.pop(k) - r) <= tol * abs(r), (r, got)


ROOT_CASES = {
    "roots at 0": (1, [0, 0, 2, 3]),
    "complex coefficients": (2 - 1j, [1 + 2j, -0.5j, 3, -2 + 1j]),
    "coefficients 1e-6 to 1e6": (1e6, [1e-3, 2e-3j, -1e-4, 1e-2 - 1e-2j]),
}


@pytest.mark.parametrize("name", list(ROOT_CASES))
def test_univariate_roots_are_companion_eigenvalues(name):
    lead, want = ROOT_CASES[name]
    coeffs = [complex(c) for c in lead * np.poly(want)[::-1]]
    roots = univariate_roots(coeffs)
    assert all(_meets_residual_bar(coeffs, z) for z in roots)
    _match_roots(roots, want, 1e-6)
    if name == "roots at 0":
        assert roots.count(0j) == 2  # kept exactly, with their multiplicity
    if name == "coefficients 1e-6 to 1e6":
        mags = [abs(c) for c in coeffs]
        assert max(mags) / min(mags) >= 1e11


def test_univariate_roots_of_a_triple_root():
    coeffs = [complex(c) for c in np.poly([1.5, 1.5, 1.5, -2j])[::-1]]
    roots = univariate_roots(coeffs)
    assert all(_meets_residual_bar(coeffs, z) for z in roots)
    simple = min(roots, key=lambda z: abs(z + 2j))
    _match_roots([simple], [-2j], 1e-6)
    # a root of multiplicity 3 moves by about eps^(1/3) ~ 1e-5 under a
    # backward error of eps, for any float root finder; the mean of its
    # cluster is well-conditioned
    cluster = [z for z in roots if z != simple]
    assert all(abs(z - 1.5) <= 1e-4 for z in cluster)
    assert abs(sum(cluster) / 3 - 1.5) <= 1e-6
    # a bar below what float eigenvalues reach is a NoConvergence
    with pytest.raises(NoConvergence):
        univariate_roots(coeffs, dataclasses.replace(DEFAULT_TOL, abs_eps=1e-30))


def test_roots_on_restricted_cubics():
    # restriction/roots/un-restriction: returned points satisfy the cubic
    rng = random.Random(17)
    for trial in range(100):
        terms = {}
        for _ in range(5):
            e = [0, 0, 0]
            total = 3
            e[0] = rng.randint(0, total)
            e[1] = rng.randint(0, total - e[0])
            e[2] = total - e[0] - e[1]
            terms[tuple(e)] = EC(rng.randint(-5, 5))
        p = Poly(3, terms)
        if p.is_zero():
            continue
        base = [EC(rng.randint(-3, 3)) for _ in range(3)]
        direction = [EC(rng.randint(1, 3)) for _ in range(3)]
        line = restrict_to_line(p, base, direction)
        if line.degree() < 1:
            continue
        try:
            roots = univariate_roots(line)
        except DegenerateLeadingCoefficient:
            continue
        coeffs = [c.to_complex() for c in univariate_coeffs(line)]
        for s in roots:
            pt = [b.to_complex() + s * d.to_complex() for b, d in zip(base, direction)]
            # p(pt) equals the restriction at s, so judge it against the
            # restriction's own magnitude scale (the root-finder guarantee)
            scale = max(sum(abs(c) * abs(s) ** k for k, c in enumerate(coeffs)), 1e-12)
            assert abs(evaluate(p, pt)) <= 1e-6 * scale


def test_tangent_form_is_the_determinant_gradient():
    # t = n: the one row of the pencil's tangent matrix is the gradient of
    # det N(r) up to scale, and by Euler's identity it vanishes at the point
    cubic = family_cubic(Fraction(-27))
    v = variety_of_state(cyclic_cubic_state(EC(-27)))
    assert v.generators == [cubic]
    partials = [cubic.derivative(i).to_approx() for i in range(3)]
    for p in sample_points(v, 10, seed=23):
        grad = np.array([evaluate(d, list(p)) for d in partials])
        tf = np.array(tangent_form(v, p).coefficients)
        scale = np.linalg.norm(grad) * np.linalg.norm(tf)
        assert np.abs(np.outer(grad, tf) - np.outer(tf, grad)).max() <= 1e-9 * scale
        assert abs(tf @ np.array(p)) <= 1e-9 * np.linalg.norm(tf)


def test_exact_division():
    x, y, _ = xyz()
    prod = (x + y) * (x - y)
    assert prod.exact_div(x + y) == x - y
    with pytest.raises(ValueError):
        (x * x + y).exact_div(x + y)


def test_column_operation_preserves_zero_set():
    # adding a multiple of one column to another leaves the minor zero set
    # unchanged: verified by mutual membership of sampled points
    rng = random.Random(31)
    pencil = family_pencil(Fraction(8))
    d1 = symbolic_det(pencil)
    altered = [row[:] for row in pencil]
    for k in range(3):
        altered[k][1] = altered[k][1] + altered[k][2].scale(EC(Fraction(3, 2)))
    d2 = symbolic_det(altered)
    checked = 0
    while checked < 100:
        base = [EC(rng.randint(-4, 4)) for _ in range(3)]
        direction = [EC(rng.randint(1, 4)) for _ in range(3)]
        line = restrict_to_line(d1, base, direction)
        if line.degree() < 1:
            continue
        try:
            roots = univariate_roots(line)
        except DegenerateLeadingCoefficient:
            continue
        for s in roots:
            pt = [b.to_complex() + s * d.to_complex() for b, d in zip(base, direction)]
            scale = max(d2.evaluation_scale(pt), 1e-300)
            assert abs(evaluate(d2, pt)) <= 1e-7 * scale
            checked += 1


def _random_bivariate(rng, dx, dy):
    terms = {(i, j): EC(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
             for i in range(dx + 1) for j in range(dy + 1) if rng.random() < 0.7}
    terms[(rng.randint(0, dx), dy)] = EC(rng.randint(1, 3), rng.randint(-1, 1))
    return Poly(2, terms)


def test_sylvester_resultant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester
    x, y = sympy.symbols("x y")

    def to_sympy(p):
        return sum((sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)) * x ** i * y ** j
                   for (i, j), c in p.terms.items())

    rng = random.Random(2024)
    for _ in range(12):
        a = _random_bivariate(rng, rng.randint(0, 2), rng.randint(1, 3))
        b = _random_bivariate(rng, rng.randint(0, 2), rng.randint(1, 3))
        res = sylvester_resultant(a, b)
        got = sympy.expand(sum((sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)) * x ** k
                               for k, c in enumerate(univariate_coeffs(res))))
        # exactly the Sylvester determinant; sympy's resultant agrees up to
        # sign (its subresultant route does not always keep that sign)
        assert sympy.expand(got - sylvester(to_sympy(a), to_sympy(b), y).det()) == 0
        want = sympy.expand(sympy.resultant(to_sympy(a), to_sympy(b), y))
        assert sympy.expand(got - want) == 0 or sympy.expand(got + want) == 0
        # the approximate kind builds the same matrix in floating point
        approx = univariate_coeffs(sylvester_resultant(a.to_approx(), b.to_approx()))
        exact = [c.to_complex() for c in univariate_coeffs(res)]
        scale = max(abs(c) for c in exact)
        assert len(approx) == len(exact)
        assert max(abs(u - w) for u, w in zip(approx, exact)) <= 1e-9 * scale


def test_symbolic_det_approx_matches_exact_sign():
    # one expansion serves both kinds; from 5x5 on, the floating result of
    # the approximate entries must still match the exact polynomial
    rng = random.Random(5)
    for n in range(5, 8):
        rows = [[Poly(2, {(rng.randint(0, 1), rng.randint(0, 1)):
                          EC(rng.randint(-3, 3), rng.randint(-2, 2))})
                 for _ in range(n)] for _ in range(n)]
        exact = symbolic_det(rows).to_approx()
        approx = symbolic_det([[p.to_approx() for p in row] for row in rows])
        keys = set(exact.terms) | set(approx.terms)
        assert max(abs(exact.coeff(k) - approx.coeff(k)) for k in keys) \
            <= 1e-9 * max(abs(c) for c in exact.terms.values())

import random
from fractions import Fraction

import numpy as np
import pytest

from detvar.catalog import (
    CHART_NAMES,
    chart_reduction,
    cyclic_cubic_state,
    maximally_mixed,
    parse_family_parameter,
    ppt_4x6_state,
    printed_g,
)
from detvar import factorization as factorization_mod
from detvar.errors import BadParams
from detvar.exactroots import gaussian_rational_roots
from detvar.factorization import _line_gcd, _random_exact_point
from detvar.linalg import partial_transpose, rank_exact
from detvar.multipoly import LinearForm, Poly, substitute_affine
from detvar.scalars import ExactComplex
from detvar.states import ppt_check

EC = ExactComplex
F = Fraction


def test_parse_family_parameter():
    assert parse_family_parameter("2") == EC(8)
    assert parse_family_parameter("-3") == EC(-27)
    assert parse_family_parameter("1/2") == EC(F(1, 8))
    assert parse_family_parameter("3w") == EC(27)
    assert parse_family_parameter(F(-3)) == EC(-27)
    with pytest.raises(BadParams):
        parse_family_parameter("two")


def test_maximally_mixed_structure():
    s = maximally_mixed(3, 3)
    rho = s.density_matrix()
    assert rho.trace() == EC(1)
    for i in range(9):
        for j in range(9):
            expect = EC(F(1, 9)) if i == j else EC(0)
            assert rho[i, j] == expect


def test_cyclic_family_rank_three():
    s = cyclic_cubic_state(EC(8))
    assert rank_exact(s.density_matrix()) == 3


def test_ppt_4x6_state_facts():
    s = ppt_4x6_state()
    rho = s.density_matrix()
    assert rho.trace() == EC(1)
    assert rank_exact(rho) == 7
    assert np.array_equal(partial_transpose(rho, 4, 6), rho)
    assert ppt_check(s)


@pytest.fixture(scope="module")
def reduction():
    return chart_reduction(ppt_4x6_state())


def test_reduction_pencil_and_divisibility(reduction):
    assert reduction.pencil_matches_printed
    # the linear factor divides f2 exactly and remultiplies
    assert reduction.linear_factor * reduction.f2_quotient == reduction.f2


def test_reduction_quotient_discrepancy_documented(reduction):
    # the recomputed quadratic differs from the printed one by exactly +r4'
    assert not reduction.quotient_matches_printed
    w = Poly.variable(2, 3)
    assert reduction.quotient_discrepancy == w


def test_reduction_g_matches_up_to_sign(reduction):
    assert reduction.g_sign in (-1, 1)
    expect = printed_g() if reduction.g_sign == 1 else -printed_g()
    assert reduction.g == expect
    # independent recomputation of the substitution
    sub = substitute_affine(reduction.f1, {
        0: LinearForm.variable(0, 3),
        1: LinearForm.variable(1, 3),
        2: LinearForm([EC(1), EC(1), EC(0)], normalize=False),
    })
    assert sub == reduction.g


def test_reduction_g_irreducible(reduction):
    assert reduction.g_irreducible
    assert reduction.g_factors == []
    # the peel's first line certifies it: g's homogenization, in the free
    # third variable, restricts there to a cubic with no Q(i) root
    homogeneous = Poly(3, {(e[0], e[1], 3 - e[0] - e[1]): c for e, c in reduction.g.terms.items()})
    rng = random.Random(20211)
    line = _random_exact_point(rng, 3), _random_exact_point(rng, 3)
    common, full_degree = _line_gcd([homogeneous], *line)
    assert full_degree and gaussian_rational_roots(common) == []


def test_reduction_claims_irreducible_only_on_a_certificate(monkeypatch):
    # a fake Q(i) root on every line: no factor is found, none is ruled out
    monkeypatch.setattr(factorization_mod, "gaussian_rational_roots",
                        lambda coeffs: [(ExactComplex(0), 1)])
    cr = chart_reduction(ppt_4x6_state())
    assert cr.g_factors == [] and not cr.g_irreducible


def test_reduction_renders_deterministically(reduction):
    text = reduction.g.render(CHART_NAMES)
    again = chart_reduction(ppt_4x6_state()).g.render(CHART_NAMES)
    assert text == again

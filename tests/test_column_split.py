"""The column split of a square product pencil (``variety._column_split``).

Where every ray is a product a_l (x) b_l and t = n, column l of N(r) is
(a_l . r) b_l, so det N = det[b_1 .. b_n] * prod_l a_l . r.  The split
reads that factor list off the columns, with no minor expanded and no line
peeled.  It must be the factor list the line peel (``linear_factorization``)
finds on the expanded determinant, field by field and in the same order.
A pencil it cannot split, with a ray off product or dependent b_l, takes
the peel's path as before.  A split cubic is never of Hesse shape, so the
report's Hesse test (``report._hesse_cubic``) turns it down unexpanded.
"""

import pytest

import detvar.variety as variety_mod
from detvar.errors import NotHesseShape
from detvar.factorization import linear_factorization
from detvar.moduli import hesse_reduce
from detvar.report import _hesse_cubic, analyze_state
from detvar.scalars import ExactComplex
from detvar.states import (
    BipartiteState,
    apply_local_unitary,
    random_local_unitary,
    random_separable,
)
from detvar.variety import _analysis_system, linearity_decide, variety_of_state
from shared_states import float_copy, shared_direction_state

EC = ExactComplex

# m 3-5, n 2-5, t = n: side A is square, and side B too where m = n
SQUARE = [(m, n, seed) for m in range(3, 6) for n in range(2, 6) for seed in range(4)]


def _square_sides(s):
    return ["A"] + (["B"] if s.m == s.n else [])


def _check_split(s, side):
    v = variety_of_state(s, side)
    fl = v.split
    assert fl is not None and "generators" not in vars(v) and v.essential_count == 1
    det = v.essential_generators[0]
    assert fl == linear_factorization(det)
    assert fl.residual is None and fl.certified
    assert fl.remultiply(v.m) == det
    return fl


@pytest.mark.parametrize("m, n, seed", SQUARE, ids=lambda x: str(x))
def test_the_column_split_is_the_peels_factor_list(m, n, seed):
    s = random_separable(m, n, n, seed)
    for side in _square_sides(s):
        assert len(_check_split(s, side).linear_factors) == s.n


@pytest.mark.parametrize("seed", range(4))
def test_a_shared_direction_is_a_repeated_factor(seed):
    # two of the three rays share a: (a . r)^2 divides det N
    fl = _check_split(shared_direction_state(3, 2, seed), "A")
    assert len(fl.linear_factors) == 3 and len(set(fl.linear_factors)) == 2


@pytest.fixture
def factorizations(monkeypatch):
    """Record every form the variety module factors on the line peel."""
    calls = []
    real = variety_mod.linear_factorization

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(variety_mod, "linear_factorization", counting)
    return calls


def _off_product(s):
    """s with its first ray's first entry moved by one, so that ray's
    coefficient block has rank two."""
    (w, vec), *rest = s.ensemble
    return BipartiteState(s.m, s.n, ensemble=[(w, (vec[0] + 1, *vec[1:])), *rest])


@pytest.mark.parametrize("m, n, seed", [(3, 3, 0), (4, 4, 1), (3, 4, 2), (5, 2, 3)],
                         ids=lambda x: str(x))
def test_a_ray_off_product_falls_back_to_the_peel(factorizations, m, n, seed):
    v = variety_of_state(_off_product(random_separable(m, n, n, seed)))
    assert v.split is None and "generators" in vars(v)
    verdict = linearity_decide(v, seed=7)
    assert factorizations == v.essential_generators
    assert verdict.factor_list == linear_factorization(v.essential_generators[0])
    assert _analysis_system(v)[2] == verdict.factor_list


def _dependent_b(m, n, seed):
    """A product ensemble of t = n rays whose b_l span fewer than n
    dimensions: the last ray's b is twice the first's, so det N = 0."""
    s = random_separable(m, n, n, seed)
    vectors = [v for _, v in s.ensemble]
    b0 = [vectors[0][j] for j in range(n)]
    a_last = [vectors[-1][i * n] for i in range(m)]
    if all(x.is_zero() for x in a_last):
        a_last = [EC(1)] * m
    last = tuple(a_last[i] * b0[j] * 2 for i in range(m) for j in range(n))
    return BipartiteState(m, n, ensemble=[*s.ensemble[:-1], (s.ensemble[-1][0], last)])


@pytest.mark.parametrize("m, n", [(3, 2), (3, 3), (4, 4)])
def test_dependent_b_stays_full_through_the_peels_path(m, n):
    v = variety_of_state(_dependent_b(m, n, seed=1))
    assert v.split is None and "generators" in vars(v)
    assert v.structural == "Full" and linearity_decide(v).tag == "Full"


@pytest.mark.parametrize("make, tag_b", [
    (lambda: random_separable(3, 3, 3, seed=0), "LinearUnion"),
    (lambda: random_separable(4, 4, 4, seed=2), "LinearUnion"),
    (lambda: random_separable(4, 3, 3, seed=1), None),
    (lambda: random_separable(3, 2, 2, seed=3), None),
    # side B's rows are the a_l, two of them the same: det N = 0 there
    (lambda: shared_direction_state(3, 2, seed=1), "Full"),
], ids=["sep 3x3 t3", "sep 4x4 t4", "sep 4x3 t3", "sep 3x2 t2", "shared 3x3 t3"])
def test_exact_float_and_rotated_copies_give_no_witness(make, tag_b):
    # an exact square side ends LinearUnion with no minor expanded, or Full
    # where its b_l are dependent; no copy on either side gives a witness
    exact = make()
    rotated = apply_local_unitary(exact, random_local_unitary(exact.m, exact.n, seed=5))
    for s in (exact, float_copy(exact), rotated):
        for side in "AB":
            v = variety_of_state(s, side)
            verdict = linearity_decide(v, seed=3, samples=4)
            assert verdict.tag != "NonlinearWitness"
            if v.mode == "exact" and side in _square_sides(s):
                tag = "LinearUnion" if side == "A" else tag_b
                assert verdict.tag == tag and ("generators" not in vars(v)) == (tag == "LinearUnion")


def test_a_split_cubic_is_never_of_hesse_shape(monkeypatch):
    # the expanded det N of each split 3x3 pencil is refused by hesse_reduce,
    # and the report's Hesse test refuses it with no minor expanded
    states = [random_separable(3, 3, 3, seed) for seed in range(200)]
    for s in states:
        v = variety_of_state(s)
        assert v.split is not None
        with pytest.raises(NotHesseShape):
            hesse_reduce(v.essential_generators[0])

    def refuse(*args, **kwargs):
        raise AssertionError("a minor was expanded")

    monkeypatch.setattr(variety_mod, "minors", refuse)
    for s in states:
        assert _hesse_cubic(variety_of_state(s)) is None
        assert "moduli" not in analyze_state(s)

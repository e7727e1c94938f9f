"""Built-in states: the worked constructions the package reproduces.

* maximally mixed state on any m x n system (empty variety);
* the cyclic cubic family rho_t on 3x3, parametrized exactly by t^3
  (every quantity the analysis needs depends on t only through t^3, so
  the non-rational member t = 3*omega is carried as t^3 = 27);
* a rank-7 PPT-invariant state on 4x6 whose variety has a provably
  non-linear component, together with the symbolic chart reduction that
  exhibits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import BadParams, SymbolicMismatch
from .factorization import linear_factorization
from .linalg import exact_matrix
from .multipoly import LinearForm, Poly, substitute_affine, symbolic_det
from .scalars import EC_ONE, EC_ZERO, ExactComplex
from .states import BipartiteState
from .variety import pencil_matrix

CHART_NAMES = ("r2'", "r3'", "r4'")


def maximally_mixed(m: int, n: int) -> BipartiteState:
    """rho = I/(mn), as the basis-vector ensemble with equal weights."""
    if m < 1 or n < 1:
        raise BadParams("dimensions must be >= 1")
    mn = m * n
    w = Fraction(1, mn)
    ensemble = []
    for k in range(mn):
        v = [EC_ZERO] * mn
        v[k] = EC_ONE
        ensemble.append((w, tuple(v)))
    return BipartiteState(m, n, ensemble=ensemble, label=f"maximally-mixed-{m}x{n}")


def parse_family_parameter(token) -> ExactComplex:
    """t for the cyclic cubic family: an exact rational, or "3w" for
    t = 3*omega (a primitive cube root of unity), which enters every
    computed quantity only through t^3 = 27."""
    if isinstance(token, ExactComplex):
        return token * token * token
    if isinstance(token, (int, Fraction)):
        t = ExactComplex(token)
        return t * t * t
    text = str(token).strip().lower()
    if text in ("3w", "3omega", "3ω"):
        return ExactComplex(27)
    try:
        t = ExactComplex(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"cannot parse family parameter {token!r}: {exc}")
    return t * t * t


def cyclic_cubic_state(t_cubed: ExactComplex) -> BipartiteState:
    """rho_t = (1/3)(P_v1 + P_v2 + P_v3) on 3x3.

    v1 = t^3|11> + |22> + |33> (a ray; its 1/sqrt(|t|^6 + 2) normalization
    stays implicit), v2 = |12> + |23> + |31>, v3 = |13> + |21> + |32>.
    """
    t3 = ExactComplex.coerce(t_cubed) if not isinstance(t_cubed, ExactComplex) else t_cubed
    z, o = EC_ZERO, EC_ONE
    v1 = (t3, z, z, z, o, z, z, z, o)
    v2 = (z, o, z, z, z, o, o, z, z)
    v3 = (z, z, o, o, z, z, z, o, z)
    w = Fraction(1, 3)
    return BipartiteState(3, 3, ensemble=[(w, v1), (w, v2), (w, v3)],
                          label=f"cyclic-cubic t^3={t3.render()}")


# ---------------------------------------------------------------------------
# the 4x6 rank-7 PPT construction
# ---------------------------------------------------------------------------

_A1 = [
    [1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 2, 0, 0, 1],
    [0, 0, 0, 0, 2, 0, 0],
    [0, 0, 0, 0, 0, 2, 0],
]

_A2 = [
    [0, 1, 1, -1, 0, 0, 1],
    [1, 0, 1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 1, 1, 0],
    [0, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 1, 0, 0],
]

_A3 = [
    [2, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 2, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0],
    [0, 0, 0, 0, 1, 1, 0],
]

_A4 = [[1 if i == j else 0 for j in range(7)] for i in range(6)]


def ppt_4x6_blocks() -> List[np.ndarray]:
    """The four 6x7 integer blocks A_1..A_4 of the construction, as exact
    matrices."""
    return [exact_matrix(rows) for rows in (_A1, _A2, _A3, _A4)]


def ppt_4x6_state() -> BipartiteState:
    """rho = A A^dagger / D on 4x6, with A the 24x7 stack of the blocks
    and D the trace normalizer; rank 7 and invariant under partial
    transpose by the symmetry A_i A_j^T = A_j A_i^T."""
    cols = [tuple(col) for col in np.vstack(ppt_4x6_blocks()).T]
    norms = [sum((x.norm_sq() for x in col), Fraction(0)) for col in cols]
    total = sum(norms)
    ensemble = [(nsq / total, col) for nsq, col in zip(norms, cols)]
    return BipartiteState(4, 6, ensemble=ensemble, label="ppt-4x6-rank7")


# ---------------------------------------------------------------------------
# printed reference polynomials (4 ambient variables r1..r4)
# ---------------------------------------------------------------------------

def _pv(i: int) -> Poly:
    return Poly.variable(i, 4)


def printed_pencil_4x6() -> List[List[Poly]]:
    """The 6x7 pencil as printed: entries in u1, u1', u2, u2' shorthand."""
    r1, r2, r3, r4 = (_pv(i) for i in range(4))
    u1 = r4 + r1 + r3.scale(2)
    u1p = r4 + r3 + r1
    u2 = r4 + r3.scale(2) + r1.scale(2)
    u2p = r4 + r1.scale(2) + r3
    z = Poly.zero(4)
    return [
        [u1, r2, r2, -r2, z, z, r2],
        [r2, u1p, r2 + r3, z, z, z, z],
        [r2, r2 + r3, u1p, z, z, z, z],
        [-r2, z, z, u2, r2, r2, r1],
        [z, z, z, r2, u2p, r2 + r3, z],
        [z, z, z, r2, r2 + r3, u2p, z],
    ]


def _chart_poly(p3_terms: Dict[Tuple[int, int, int], int]) -> Poly:
    return Poly(3, {e: ExactComplex(c) for e, c in p3_terms.items()})


def printed_g() -> Poly:
    """g(r2', r3') as printed: 2x^3 + 2x^2 y + 4y^2 - x^2 + 6xy - 3x - 4y + 1
    (third chart variable unused)."""
    return _chart_poly({
        (3, 0, 0): 2, (2, 1, 0): 2, (0, 2, 0): 4, (2, 0, 0): -1,
        (1, 1, 0): 6, (1, 0, 0): -3, (0, 1, 0): -4, (0, 0, 0): 1,
    })


def printed_f2_quadratic() -> Poly:
    """The printed second factor of f2: y^2 + w^2 - 2x^2 + 2yw + xy + wx
    + x + y in chart coordinates (x, y, w) = (r2', r3', r4')."""
    return _chart_poly({
        (0, 2, 0): 1, (0, 0, 2): 1, (2, 0, 0): -2, (0, 1, 1): 2,
        (1, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): 1, (0, 1, 0): 1,
    })


# ---------------------------------------------------------------------------
# symbolic chart reduction
# ---------------------------------------------------------------------------

@dataclass
class ChartReduction:
    """Every intermediate of the 4x6 reduction, recomputed from scratch."""

    pencil: List[List[Poly]]               # 6x7 in r1..r4
    pencil_matches_printed: bool
    chart_pencil: List[List[Poly]]         # after column ops, in (x, y, w)
    f1: Poly
    f2: Poly
    linear_factor: Poly                    # w - x - y
    f2_quotient: Poly
    printed_quotient: Poly
    quotient_matches_printed: bool
    quotient_discrepancy: Optional[Poly]   # computed - printed, None if equal
    g: Poly                                # f1 restricted to w = x + y
    printed: Poly
    g_sign: int                            # g == g_sign * printed
    g_factors: List[LinearForm]            # Q(i) linear factors of g
    g_irreducible: bool                    # no Q(i) linear factor, certified

    @property
    def component_nonlinear(self) -> bool:
        return self.g_irreducible


def chart_reduction(state: BipartiteState) -> ChartReduction:
    """Recompute the 4x6 reduction of state = ppt_4x6_state(), end to end.

    Chart: r1 = 1, x = r2, y = r3, w = r4 + r3 + 2 (so r4 = w - y - 2).
    Column operations: col4 += col7 and col1 += x * col7 (x = r2/r1 in the
    chart).  The first 6x6 block of the result is block diagonal; f1, f2
    are its 3x3 determinants.  The linear factor w - x - y of f2 carves out
    the component on which f1 restricts to the (irreducible) plane cubic g.
    """
    pencil = pencil_matrix(state).entry_polys()
    printed_pencil = printed_pencil_4x6()
    matches = pencil == printed_pencil
    if not matches:
        diffs = [(r, c, pencil[r][c].render(), printed_pencil[r][c].render())
                 for r in range(6) for c in range(7)
                 if pencil[r][c] != printed_pencil[r][c]]
        raise SymbolicMismatch(f"recomputed pencil differs from printed: {diffs[:4]}")

    # move to the chart: r1 -> 1, r2 -> x, r3 -> y, r4 -> w - y - 2
    to_chart = {0: LinearForm([0, 0, 0], 1, normalize=False),
                1: LinearForm.variable(0, 3),
                2: LinearForm.variable(1, 3),
                3: LinearForm([0, -1, 1], -2, normalize=False)}
    chart = [[substitute_affine(p, to_chart) for p in row] for row in pencil]
    x, y, w = (Poly.variable(i, 3) for i in range(3))
    # col4 += col7; col1 += x * col7
    for r in range(6):
        chart[r][3] = chart[r][3] + chart[r][6]
        chart[r][0] = chart[r][0] + x * chart[r][6]

    f1 = symbolic_det([row[0:3] for row in chart[0:3]])
    f2 = symbolic_det([row[3:6] for row in chart[3:6]])

    lin = w - x - y
    quotient = lin.divides_into(f2)
    if quotient is None:
        raise SymbolicMismatch("w - x - y does not divide the recomputed f2")
    printed_quot = printed_f2_quadratic()
    quot_matches = quotient == printed_quot
    discrepancy = None if quot_matches else quotient - printed_quot

    g = substitute_affine(f1, {
        0: LinearForm.variable(0, 3),
        1: LinearForm.variable(1, 3),
        2: LinearForm([EC_ONE, EC_ONE, EC_ZERO], normalize=False),  # w -> x + y
    })
    printed = printed_g()
    if g == printed:
        sign = 1
    elif g == -printed:
        sign = -1
    else:
        raise SymbolicMismatch(
            f"f1 at w = x + y is not +-g: computed {g.render(CHART_NAMES)}, "
            f"printed {printed.render(CHART_NAMES)}")
    # a linear factor of g homogenizes, in the free third variable, to one
    # of g's homogenization, and back; a cubic without one is irreducible
    d = g.degree()
    fl = linear_factorization(Poly(3, {(e[0], e[1], d - e[0] - e[1]): c
                                       for e, c in g.terms.items()}))
    factors = [LinearForm([a, b, EC_ZERO], c, normalize=False)
               for a, b, c in (f.coefficients for f in fl.linear_factors)]
    return ChartReduction(
        pencil=pencil,
        pencil_matches_printed=matches,
        chart_pencil=chart,
        f1=f1,
        f2=f2,
        linear_factor=lin,
        f2_quotient=quotient,
        printed_quotient=printed_quot,
        quotient_matches_printed=quot_matches,
        quotient_discrepancy=discrepancy,
        g=g,
        printed=printed,
        g_sign=sign,
        g_factors=factors,
        g_irreducible=fl.certified and not factors,
    )

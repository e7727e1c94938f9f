"""Retired modular code, kept verbatim.

* ``monomial``, ``INTEGERS``, ``minor_terms``, ``_minors_mod_p`` and
  ``dict_macaulay_full_rank``: every minor expanded on the integers over
  packed monomials and reduced modulo p once, and the Macaulay matrix of
  those dicts; retired by commit a294814 ("One modular minor kernel").
* ``misses_line``: the exact line miss on expanded minors, retired by
  commit 7b925de ("Certified states build no symbolic minor").
"""

import operator
from itertools import combinations, combinations_with_replacement
from typing import Dict, Iterator, List, Sequence, Tuple

from detvar.factorization import _line_gcd
from detvar.modp import rank_mod_p
from detvar.multipoly import Terms, _laplace


# -- The symbolic mod-p path (verbatim) ---------------------------------------

# A form modulo p is a dict from monomials to residues in [0, p).  A
# monomial x^e is the int sum_i e_i << (EXP_BITS * i), so multiplying
# monomials is adding ints.
EXP_BITS = 8
ModPoly = Dict[int, int]


def monomial(exps: Sequence[int]) -> int:
    """The packed monomial of an exponent vector (each exponent < 256)."""
    return sum(e << (EXP_BITS * i) for i, e in enumerate(exps))


def monomial_degree(mono: int) -> int:
    total = 0
    while mono:
        total += mono & ((1 << EXP_BITS) - 1)
        mono >>= EXP_BITS
    return total


INTEGERS = (operator.mul, operator.add, operator.sub, operator.neg, 0)


def minor_terms(entries: List[List[Terms]], k: int, ring
                ) -> Iterator[Tuple[Tuple[int, ...], Terms]]:
    """(rows, terms) of every k x k minor of a matrix of raw term dicts
    with coefficients in `ring` (see ``_laplace``), in lexicographic
    row-subset then column-subset order, all from one memo."""
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Terms] = {}
    for rsub in combinations(range(len(entries)), k):
        for csub in combinations(range(len(entries[0])), k):
            yield rsub, _laplace(entries, rsub, csub, memo, ring)


def _minors_mod_p(forms: List[List[List[int]]], p: int) -> List[ModPoly]:
    """The n x n minors modulo p of a reduced pencil (each entry its
    coefficient vector), in lexicographic column-subset order: multipoly's
    Laplace expansion on the integers, over monomials packed as modp packs
    them, each minor reduced modulo p once."""
    units = [1 << (EXP_BITS * i) for i in range(len(forms[0][0]))]
    entries = [[{u: a for u, a in zip(units, c) if a} for c in row] for row in forms]
    return [{e: x % p for e, x in terms.items() if x % p}
            for _, terms in minor_terms(entries, len(forms), INTEGERS)]


def macaulay_matrix(gens: Sequence[ModPoly], nvars: int, degree: int) -> List[List[int]]:
    """The degree-`degree` Macaulay matrix of homogeneous forms in nvars
    variables: a row x^a * g for every form g and monomial x^a of degree
    `degree` - deg g, a column for every monomial of degree `degree`."""

    def monomials(d: int) -> List[int]:
        return [sum(1 << (EXP_BITS * i) for i in combo)
                for combo in combinations_with_replacement(range(nvars), d)]

    column = {e: j for j, e in enumerate(monomials(degree))}
    rows = []
    for g in gens:
        if not g or monomial_degree(next(iter(g))) > degree:
            continue
        for a in monomials(degree - monomial_degree(next(iter(g)))):
            row = [0] * len(column)
            for e, v in g.items():
                row[column[a + e]] = v
            rows.append(row)
    return rows


def dict_macaulay_full_rank(gens: Sequence[ModPoly], nvars: int, degree: int, p: int) -> bool:
    """True when the Macaulay matrix has full column rank modulo p, which
    proves the forms have no common projective zero over Q(i)-bar."""
    rows = macaulay_matrix(gens, nvars, degree)
    ncols = len(rows[0]) if rows else 0
    return len(rows) >= ncols > 0 and rank_mod_p(rows, p) == ncols


# -- The exact line miss of variety (verbatim) --------------------------------

def misses_line(gens, base, direction) -> bool:
    """True iff the exact homogeneous generators have no common zero on the
    projective line through base and direction.

    The affine points base + s*direction are missed when the gcd of the
    restrictions s -> g(base + s*direction) is a nonzero constant; the
    point at infinity, direction itself, is missed when some restriction
    keeps full degree (its top coefficient is g(direction)).  This is the
    exact test on symbolic minors.
    """
    common, full_degree = _line_gcd(gens, base, direction)
    return len(common) == 1 and full_degree

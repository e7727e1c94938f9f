"""The pencil's coefficient array against the LinearForm grid it replaced.

This file keeps, verbatim, the route the pencil took when each entry of
N(r) was a ``LinearForm``: ``pencil_matrix``'s grid of forms, and what its
readers did with it: ``entry_polys`` (``LinearForm.to_poly``), the
reduction modulo the first usable split prime (``_pencil_mod_p`` and
``PencilMatrix.mod_p``), the float tensor and its norm that
``Variety.pencil_floats`` built, and the exact N(p) of ``membership``
(``LinearForm.evaluate`` on each entry).  The coefficient array must hold
the same coefficients (exact ones equal, float ones in every bit), stay
read-only, and give the same polynomials (term order and float bits too),
the same prime and residues, a float tensor with identical bits, shape
and strides and the same norm, and the same exact N(p), on exact and
float pencils, side B, pencils with all-zero entries and pencils with
-0.0 parts.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import detvar.variety as variety_mod
from detvar.catalog import cyclic_cubic_state, ppt_4x6_state
from detvar.errors import FloatMinors
from detvar.linalg import exact_matrix
from detvar.modp import RANK_PRIME, reduce_scalar, split_primes
from detvar.multipoly import LinearForm
from detvar.scalars import EC_ZERO, ExactComplex
from detvar.statefile import load_state
from detvar.states import BipartiteState, random_mixed
from detvar.variety import membership, pencil_matrix, variety_of_state
from oracles.arrays import unit_scaled
from oracles.polys import entry_polys
from pinned import GOLDEN

EC = ExactComplex


# ---------------------------------------------------------------------------
# The reference (the LinearForm route, verbatim)
# ---------------------------------------------------------------------------

def reference_entry_forms(s, side="A"):
    """pencil_matrix's grid of LinearForms, and the pencil's kind."""
    state = s if side == "A" else s.swapped()
    terms = state.ensemble_terms()  # MissingEnsemble if absent
    m, n = state.m, state.n
    t = len(terms)
    exact = state.exact_ensemble
    kind = "exact" if exact else "approx"
    zero = EC_ZERO if exact else 0j
    entry_forms = []
    rays = [v if exact else unit_scaled(v) for _, v in terms]
    for k in range(n):
        row = []
        for l in range(t):
            coeffs = [rays[l][i * n + k] for i in range(m)]
            if all((c.is_zero() if isinstance(c, ExactComplex) else c == 0)
                   for c in coeffs):
                coeffs = [zero] * m
            row.append(LinearForm(coeffs, zero, normalize=False))
        entry_forms.append(row)
    return entry_forms, kind


def reference_entry_polys(entry_forms, m, kind):
    return [[f.to_poly(m, kind) for f in row] for row in entry_forms]


def reference_pencil_mod_p(entry_forms, p):
    rows = []
    for row in entry_forms:
        reduced = [[reduce_scalar(c, p) for c in form.coefficients] for form in row]
        if any(None in c for c in reduced):
            return None
        rows.append(reduced)
    return rows


def reference_mod_p(entry_forms):
    for p in split_primes(RANK_PRIME):
        forms = reference_pencil_mod_p(entry_forms, p)
        if forms is not None:
            return (p, forms)


def reference_pencil_floats(entry_forms, m):
    rows = [[[c.to_complex() if isinstance(c, ExactComplex) else complex(c)
              for c in form.coefficients] for form in row]
            for row in entry_forms]
    tensor = np.array(rows, dtype=complex).transpose(2, 0, 1)
    return (tensor, float(np.linalg.norm(tensor.reshape(m, -1), 2)))


def reference_exact_at(entry_forms, point):
    return exact_matrix([[form.evaluate(point) for form in row] for row in entry_forms])


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def _zero_entry_state(exact: bool) -> BipartiteState:
    """3x3, three rays; entry (1, 0) is zero in every coefficient, and in
    the float state two more coefficients are zero."""
    rays = [[1, 0, 2, 1, 0, -1, 2, 0, 1],
            [0, 1, 1, 2, -1, 0, 1, 1, 2],
            [1, 1, 0, 0, 2, 1, -1, 0, 1]]
    if exact:
        ensemble = [(Fraction(1, 3), tuple(EC(x, x * (x - 1)) for x in ray)) for ray in rays]
    else:
        ensemble = [(1 / 3, tuple(complex(x, 0.5 * x) for x in ray)) for ray in rays]
    return BipartiteState(3, 3, ensemble=ensemble)


def _signed_zero_state() -> BipartiteState:
    """3x3, three float rays with -0.0 parts: entry (0, 0) is ±0 in every
    coefficient, and other entries mix -0.0 parts with nonzero ones."""
    nz = complex(-0.0, -0.0)
    rays = [[nz, 0.5, 1j, complex(0.0, -0.0), complex(-0.0, 2.0), 1.0,
             -0.0, complex(1.5, -0.0), 2j],
            [1.0, nz, complex(0.25, -0.0), 0.5j, 1.0, complex(-0.0, 0.0), 2.0, -1.0, nz],
            [complex(-1.0, -0.0), 2.0, nz, 1.0, nz, 3j, complex(-0.0, 1.0), 1.0, 0.5]]
    return BipartiteState(3, 3, ensemble=[(1 / 3, tuple(complex(x) for x in ray))
                                          for ray in rays])


STATES = {
    "cyclic t^3 = 8": lambda: cyclic_cubic_state(EC(8)),
    "ppt 4x6": ppt_4x6_state,
    "gaussian 4x4 r5": lambda: load_state(str(GOLDEN / "gaussian_4x4_r5.state.json")),
    "float 3x4 r4": lambda: random_mixed(3, 4, 4, seed=1),
    "float 4x4 r5": lambda: load_state(str(GOLDEN / "mixed_4x4_r5.state.json")),
    "exact zero entry": lambda: _zero_entry_state(True),
    "float zero entry": lambda: _zero_entry_state(False),
    "float signed zeros": _signed_zero_state,
}
CASES = [(name, side) for name in STATES for side in "AB"]


def _bits(c):
    return (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c


def _poly_bits(p):
    return p.nvars, p.kind, [(e, _bits(c)) for e, c in p.terms.items()]


@pytest.mark.parametrize("name, side", CASES, ids=[f"{n} {s}" for n, s in CASES])
def test_pencil_entries_match_the_linear_form_route(name, side):
    state = STATES[name]()
    pencil = pencil_matrix(state, side)
    forms, kind = reference_entry_forms(state, side)
    assert pencil.kind == kind
    assert (pencil.n, pencil.t) == (len(forms), len(forms[0]))
    # one read-only (n, t, m) array of either kind holds the coefficients
    coeffs = pencil.coeffs
    assert (coeffs.dtype == object) == (kind == "exact")
    assert coeffs.shape == (pencil.n, pencil.t, pencil.m) and coeffs.flags.c_contiguous
    assert [[[_bits(c) for c in e] for e in row] for row in coeffs.tolist()] == \
        [[[_bits(c) for c in f.coefficients] for f in row] for row in forms]
    with pytest.raises(ValueError):  # floats and mod_p() are caches of it
        coeffs[0, 0, 0] = coeffs[0, 0, 0]
    # the coefficients as linear Polys of either kind, as entry_polys
    # built them when it served float pencils too; it now refuses those
    got = entry_polys(pencil)
    want = reference_entry_polys(forms, pencil.m, kind)
    assert got == want
    assert [[_poly_bits(p) for p in row] for row in got] == \
        [[_poly_bits(p) for p in row] for row in want]
    if kind == "exact":
        assert pencil.entry_polys() == got
    else:
        with pytest.raises(FloatMinors):
            pencil.entry_polys()
    prime, reduced = pencil.mod_p()
    assert reduced.dtype == np.int64 and reduced.shape == (pencil.n, pencil.t, pencil.m)
    assert (prime, reduced.tolist()) == reference_mod_p(forms)
    tensor, norm = pencil.floats
    want_tensor, want_norm = reference_pencil_floats(forms, pencil.m)
    assert tensor.dtype == want_tensor.dtype and tensor.shape == want_tensor.shape
    assert tensor.strides == want_tensor.strides
    assert tensor.tobytes() == want_tensor.tobytes()
    assert norm.hex() == want_norm.hex()


def test_the_cases_hold_zero_entries_and_signed_zeros():
    forms, _ = reference_entry_forms(_zero_entry_state(True))
    assert all(c.is_zero() for c in forms[1][0].coefficients)
    # the all-zero entry holds +0.0 only; -0.0 parts survive elsewhere
    pencil = pencil_matrix(_signed_zero_state())
    assert [_bits(c) for c in pencil.coeffs[0, 0].tolist()] == [_bits(0j)] * 3
    tensor = pencil.floats[0]
    assert np.signbit(tensor.real).any() and np.signbit(tensor.imag).any()


EXACT_CASES = [(name, side) for name, side in CASES
               if name in ("cyclic t^3 = 8", "ppt 4x6", "gaussian 4x4 r5", "exact zero entry")]


@pytest.mark.parametrize("name, side", EXACT_CASES, ids=[f"{n} {s}" for n, s in EXACT_CASES])
def test_exact_membership_reads_the_same_exact_pencil(monkeypatch, name, side):
    """The N(p) that membership ranks at an exact point equals the
    LinearForm grid evaluated there, at 20 random exact points."""
    state = STATES[name]()
    v = variety_of_state(state, side)
    assert v.structural != "Full"
    forms, _ = reference_entry_forms(state, side)
    ranked = []
    real_rank = variety_mod.rank_exact

    def recording(mat):
        ranked.append(mat)
        return real_rank(mat)

    monkeypatch.setattr(variety_mod, "rank_exact", recording)
    rng = random.Random(name + side)
    for _ in range(20):
        point = [EC(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(v.m)]
        if all(x.is_zero() for x in point):
            continue
        ranked.clear()
        membership(v, point)
        want = reference_exact_at(forms, variety_mod.project_normalize(point))
        assert len(ranked) == 1 and np.array_equal(ranked[0], want)

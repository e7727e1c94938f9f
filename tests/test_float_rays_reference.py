"""Float rays as arrays against the per-entry code they replaced.

A float state file was once parsed entry by entry (``parse_scalar`` for
every scalar), each ray was unit-scaled entry by entry in python
(``unit_scaled``), once for the pencil and once more for the density, and
the float pencil was a grid of tuples of python complex that
``PencilMatrix.floats`` turned back into an array.  This file keeps,
verbatim, ``parse_scalar`` and ``parse_state`` as they were, the float
branch of ``pencil_matrix`` with ``floats``, and the float branch of
``density_from_ensemble``; ``unit_scaled`` is kept in ``oracles.arrays``.

On drawn float state files (rays with -0.0 parts, all-zero pencil
entries, parts near 1e+-300, near the float maximum and subnormal), the
parsed rays and densities, the unit-scaled rays, the pencil tensor (bits,
shape, strides) and its norm, the pencil's coefficients and the density must
be the same in every bit, and the tensor must be a transpose of a
C-contiguous array.  On drawn malformed files the same StateFileError, with
the same path and message, must be raised.
"""

import cmath
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import detvar.statefile as statefile
from detvar.errors import DetvarError, StateFileError
from detvar.linalg import exact_matrix
from detvar.scalars import ExactComplex, from_fields
from detvar.statefile import _PARTS, _finite, _rational, parse_state, parse_weight, render_scalar
from detvar.states import BipartiteState, density_from_ensemble, random_mixed
from detvar.variety import pencil_matrix
from oracles.arrays import unit_scaled

SETTINGS = settings(max_examples=150)


# ---------------------------------------------------------------------------
# The reference (the per-entry float path, verbatim)
# ---------------------------------------------------------------------------

def reference_parse_scalar(obj, path: str):
    if isinstance(obj, bool):
        raise StateFileError(path, "booleans are not scalars")
    if isinstance(obj, (int, float)):
        return _finite(obj, 0, path)
    if isinstance(obj, list):
        if len(obj) == 2:
            re, im = obj
            if isinstance(re, (int, float)) and isinstance(im, (int, float)):
                if type(re) is bool or type(im) is bool:
                    part = 0 if type(re) is bool else 1
                    raise StateFileError(f"{path}[{part}]", "booleans are not numbers")
                return _finite(re, im, path)
        raise StateFileError(path, "pair form must be [re, im] numbers")
    if isinstance(obj, dict):
        # a part left out is zero in the form of the other
        re = obj.get("re", "0" if isinstance(obj.get("im"), str) else 0)
        im = obj.get("im", "0" if isinstance(re, str) else 0)
        if not obj.keys() <= _PARTS:
            raise StateFileError(path, f"unexpected keys {sorted(set(obj) - _PARTS)}")
        if isinstance(re, str) or isinstance(im, str):
            if not (isinstance(re, str) and isinstance(im, str)):
                raise StateFileError(path, "re/im must both be strings or both numbers")
            try:
                (a, q), (b, s) = _rational(re), _rational(im)
            except (ValueError, ZeroDivisionError) as exc:
                raise StateFileError(path, f"bad rational literal: {exc}")
            return from_fields(a * s, b * q, q * s)
        if isinstance(re, (int, float)) and isinstance(im, (int, float)):
            if type(re) is bool or type(im) is bool:
                part = "re" if type(re) is bool else "im"
                raise StateFileError(f"{path}.{part}", "booleans are not numbers")
            return _finite(re, im, path)
        raise StateFileError(path, "re/im must both be strings or both numbers")
    raise StateFileError(path, f"cannot interpret {type(obj).__name__} as a scalar")


def reference_parse_state(data: dict) -> BipartiteState:
    if not isinstance(data, dict):
        raise StateFileError("$", "state file must be a JSON object")
    for field in ("m", "n"):
        if field not in data:
            raise StateFileError(field, "missing")
        if not isinstance(data[field], int) or data[field] < 1:
            raise StateFileError(field, "must be a positive integer")
    m, n = data["m"], data["n"]
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFileError("label", "must be a string")
    has_ens = "ensemble" in data
    has_dens = "density" in data
    if has_ens == has_dens:
        raise StateFileError("$", "state file needs exactly one of ensemble/density")
    if has_ens:
        raw = data["ensemble"]
        if not isinstance(raw, list) or not raw:
            raise StateFileError("ensemble", "must be a nonempty list")
        ensemble = []
        for k, item in enumerate(raw):
            base = f"ensemble[{k}]"
            if not isinstance(item, dict) or "weight" not in item or "vector" not in item:
                raise StateFileError(base, "each item needs weight and vector")
            w = parse_weight(item["weight"], f"{base}.weight")
            vec_raw = item["vector"]
            if not isinstance(vec_raw, list) or len(vec_raw) != m * n:
                raise StateFileError(f"{base}.vector", f"must be a list of {m * n} scalars")
            vec = [reference_parse_scalar(x, f"{base}.vector[{i}]")
                   for i, x in enumerate(vec_raw)]
            if len({isinstance(x, ExactComplex) for x in vec}) > 1:
                raise StateFileError(f"{base}.vector", "mixes exact and floating-point entries")
            ensemble.append((w, tuple(vec)))
        try:
            return BipartiteState(m, n, ensemble=ensemble, label=label)
        except (DetvarError, OverflowError) as exc:
            raise StateFileError("ensemble", str(exc))
    raw = data["density"]
    mn = m * n
    if not isinstance(raw, list) or len(raw) != mn:
        raise StateFileError("density", f"must be a {mn}x{mn} array")
    entries = []
    exact = True
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != mn:
            raise StateFileError(f"density[{i}]", f"must have {mn} entries")
        for j, x in enumerate(row):
            v = reference_parse_scalar(x, f"density[{i}][{j}]")
            exact = exact and isinstance(v, ExactComplex)
            entries.append(v)
    if exact:
        mat = exact_matrix([entries[i * mn:(i + 1) * mn] for i in range(mn)])
    else:
        mat = np.array([x.to_complex() if isinstance(x, ExactComplex) else x
                        for x in entries], dtype=complex).reshape(mn, mn)
    try:
        return BipartiteState(m, n, density=mat, label=label)
    except (DetvarError, OverflowError) as exc:
        raise StateFileError("density", str(exc))


def reference_pencil(s, side="A"):
    """The float pencil's entries, and its tensor with ||A||."""
    state = s if side == "A" else s.swapped()
    terms = state.ensemble_terms()  # MissingEnsemble if absent
    m, n = state.m, state.n
    t = len(terms)
    zero = 0j
    rays = [unit_scaled(v) for _, v in terms]
    entries = []
    for k in range(n):
        row = []
        for l in range(t):
            coeffs = tuple(rays[l][i * n + k] for i in range(m))
            if all(c == 0 for c in coeffs):
                coeffs = (zero,) * m
            row.append(coeffs)
        entries.append(row)
    rows = [[[c.to_complex() if isinstance(c, ExactComplex) else c for c in e]
             for e in row] for row in entries]
    tensor = np.array(rows, dtype=complex).transpose(2, 0, 1)
    return entries, tensor, float(np.linalg.norm(tensor.reshape(m, -1), 2))


def reference_density(s):
    mn = s.m * s.n
    rho = np.zeros((mn, mn), dtype=complex)
    for w, v in s.ensemble_terms():
        vec = np.array(unit_scaled(v))
        nsq = float(np.vdot(vec, vec).real)
        rho += (float(w) / nsq) * np.outer(vec, vec.conj())
    return rho


# ---------------------------------------------------------------------------
# drawn states and documents
# ---------------------------------------------------------------------------

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -3e-300,
         1e300, -2.5e300, 1.7976931348623157e308, -1.7e308, 1.0, -0.5]
parts = st.one_of(st.sampled_from(EDGES),
                  st.floats(-10.0, 10.0, allow_nan=False),
                  st.floats(allow_nan=False, allow_infinity=False))
# a scalar as render_scalar writes it (a float, or a [float, float] pair),
# now and then as an int, which only the per-entry path reads
entries = st.one_of(parts, st.lists(parts, min_size=2, max_size=2),
                    st.integers(-3, 3))


@st.composite
def documents(draw):
    m, n, t = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    weight = draw(st.sampled_from([1 / t, f"1/{t}"]))
    vectors = draw(st.lists(st.lists(entries, min_size=m * n, max_size=m * n),
                            min_size=t, max_size=t))
    return {"m": m, "n": n,
            "ensemble": [{"weight": weight, "vector": v} for v in vectors]}


def _bits(x):
    if isinstance(x, complex):
        return "complex", x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return "float", x.hex()
    return type(x).__name__, str(x)


def _array_bits(a):
    return a.dtype, a.shape, a.strides, a.tobytes()


def outcome(parse, doc):
    """What parsing gives: the error, or the parsed state in bits."""
    try:
        s = parse(doc)
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)
    ens = None if s.ensemble is None else [
        (_bits(w), [_bits(x) for x in v]) for w, v in s.ensemble]
    dens = (None if s.density is None else
            [_bits(x) for x in s.density.ravel()] if s.density.dtype == object
            else _array_bits(s.density))
    return "ok", s.m, s.n, s.label, ens, dens


def _parsed(doc):
    got = outcome(parse_state, doc)
    assert got == outcome(reference_parse_state, doc)
    return parse_state(doc) if got[0] == "ok" else None


def _density_doc(s):
    rho = reference_density(s)
    mn = s.m * s.n
    return {"m": s.m, "n": s.n,
            "density": [[render_scalar(rho[i, j]) for j in range(mn)] for i in range(mn)]}


# ---------------------------------------------------------------------------
# the float path, bit for bit
# ---------------------------------------------------------------------------

@SETTINGS
@given(documents())
def test_float_rays_match_the_per_entry_path(doc):
    s = _parsed(doc)
    if s is None or s.exact_ensemble:
        return
    rays = s.unit_rays
    assert [[_bits(z) for z in row] for row in rays.tolist()] == \
        [[_bits(z) for z in unit_scaled(v)] for _, v in s.ensemble]
    rho = density_from_ensemble(s)
    assert _array_bits(rho) == _array_bits(reference_density(s))
    for side in "AB":
        pencil = pencil_matrix(s, side)
        tensor, norm = pencil.floats
        want_entries, want_tensor, want_norm = reference_pencil(s, side)
        assert _array_bits(tensor) == _array_bits(want_tensor)
        assert norm.hex() == want_norm.hex()
        assert tensor.base.flags.c_contiguous and tensor.base.shape == (pencil.n, pencil.t,
                                                                         pencil.m)
        assert [[[_bits(c) for c in e] for e in row] for row in pencil.coeffs.tolist()] == \
            [[[_bits(c) for c in e] for e in row] for row in want_entries]
    # the density a state file carries parses to the same bits too
    _parsed(_density_doc(s))


def test_the_drawn_cases_reach_the_edges():
    """Signed zeros, an all-zero entry, a part scaled to a subnormal and
    one scaled to zero, and a sum past the float range, which only the
    per-entry path then reads."""
    big = 1.7976931348623157e308
    doc = {"m": 2, "n": 2, "ensemble": [
        {"weight": 0.5, "vector": [[-0.0, -0.0], [1e-300, 5e-324], 0.0, [big, big]]},
        {"weight": 0.5, "vector": [[-0.0, 1.0], -0.0, [2.5, -1e-310], [0.0, -0.0]]}]}
    s = _parsed(doc)
    rays = s.unit_rays
    assert rays[0, 1] == 0 and 0 < -rays[1, 2].imag < 2.2250738585072014e-308
    pencil = pencil_matrix(s)
    tensor = pencil.floats[0]
    want_entries, want_tensor, _ = reference_pencil(s)
    assert tensor.tobytes() == want_tensor.tobytes()
    assert tuple(pencil.coeffs[0, 0].tolist()) == want_entries[0][0] == (0j, 0j)
    assert np.signbit(tensor.real).any() and np.signbit(tensor.imag).any()
    assert _array_bits(density_from_ensemble(s)) == _array_bits(reference_density(s))


def test_rays_with_exact_and_int_entries_are_rounded_as_before():
    """A float ensemble may hold ExactComplex or int entries (float
    weights, or a vector of each kind); they are rounded as unit_scaled
    rounded them."""
    EC = ExactComplex
    s = BipartiteState(2, 2, ensemble=[
        (0.5, (EC(Fraction(1, 3), 2), EC(0), EC(-7, Fraction(1, 10)), EC(5))),
        (0.5, (1, 0, 3, 10 ** 30))])
    assert not s.exact_ensemble
    assert [[_bits(z) for z in row] for row in s.unit_rays.tolist()] == \
        [[_bits(z) for z in unit_scaled(v)] for _, v in s.ensemble]
    assert density_from_ensemble(s).tobytes() == reference_density(s).tobytes()
    assert pencil_matrix(s).floats[0].tobytes() == reference_pencil(s)[1].tobytes()


# ---------------------------------------------------------------------------
# malformed documents: the same error, path and message
# ---------------------------------------------------------------------------

nan, inf = float("nan"), float("inf")
BAD_ENTRIES = [True, False, [1.0, True], [True, 1.0], [1.0, 2.0, 3.0], [1.0], [], "x",
               None, {"re": "1/2", "im": "1"}, {"re": 1.0}, {"re": "1", "im": 2.0}, {},
               nan, inf, -inf, [nan, 0.0], [0.5, -inf], 10 ** 400, [1.0, 10 ** 400],
               {"re": "1/0", "im": "0"}, {"im": 2.5, "x": 1}, [1, 2.0], 3]
BAD_WEIGHTS = [True, nan, inf, "1/0", "x", None, -0.5, 0]


@SETTINGS
@given(documents(), st.data())
def test_malformed_documents_fail_as_before(doc, data):
    as_density = data.draw(st.booleans())
    if as_density:
        s = _parsed(doc)
        if s is None or s.exact_ensemble:
            return
        doc = _density_doc(s)
        rows = doc["density"]
        i = data.draw(st.integers(0, len(rows) - 1))
        row = rows[i]
    else:
        item = doc["ensemble"][data.draw(st.integers(0, len(doc["ensemble"]) - 1))]
        if data.draw(st.integers(0, 5)) == 0:
            item["weight"] = data.draw(st.sampled_from(BAD_WEIGHTS))
        row = item["vector"]
    for _ in range(data.draw(st.integers(1, 2))):
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(BAD_ENTRIES))
    _parsed(doc)


# ---------------------------------------------------------------------------
# spies: the per-entry path stays off the happy path
# ---------------------------------------------------------------------------

def _float_documents():
    for k, (m, n, r) in enumerate([(2, 2, 2), (3, 3, 4), (3, 4, 5), (4, 4, 6), (1, 3, 2)]):
        s = random_mixed(m, n, r, seed=k)
        yield statefile.state_to_json(s)
        yield _density_doc(s)


def test_no_float_entry_goes_through_parse_scalar(monkeypatch):
    docs = list(_float_documents())
    want = [outcome(parse_state, doc) for doc in docs]
    calls = []
    real = statefile.parse_scalar

    def spy(obj, path):
        calls.append(path)
        return real(obj, path)

    monkeypatch.setattr(statefile, "parse_scalar", spy)
    assert [outcome(parse_state, doc) for doc in docs] == want
    assert calls == []
    # an int entry is decided entry by entry, for that vector alone
    doc = {"m": 1, "n": 2, "ensemble": [{"weight": 0.5, "vector": [1.0, 0]},
                                         {"weight": 0.5, "vector": [0.5, [0.0, 1.0]]}]}
    parse_state(doc)
    assert calls == ["ensemble[0].vector[0]", "ensemble[0].vector[1]"]


def test_a_float_parse_checks_finiteness_by_the_sum():
    """The one-pass check reads the sum of the values: an inf or nan entry
    leaves it non-finite, and so does a sum past the float range, which
    the per-entry path then accepts."""
    assert statefile._float_values([1.0, [2.0, -0.0]]) == [1 + 0j, complex(2.0, -0.0)]
    for raw in ([1.0, nan], [[0.0, inf], 1.0], [[inf, 0.0], [-inf, 0.0]],
                [1.7e308, 1.7e308], [1.0, 2]):
        assert statefile._float_values(raw) is None
    assert parse_state({"m": 1, "n": 2, "ensemble": [
        {"weight": 1.0, "vector": [1.7e308, 1.7e308]}]}).ensemble[0][1] == \
        (complex(1.7e308), complex(1.7e308))
    assert not cmath.isfinite(sum([complex(1.7e308)] * 2))


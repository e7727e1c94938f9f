"""State-file JSON format.

A state file carries m, n, an optional label, and exactly one of

    "ensemble": [{"weight": w, "vector": [scalar, ...]}, ...]
    "density":  [[scalar, ...], ...]            (mn x mn)

Scalars are exact as {"re": "p/q", "im": "p/q"} (strings), or approximate
as plain numbers, [re, im] pairs, or {"re": num, "im": num}; a part left
out is zero of the other part's form.  Weights are
probabilities: "p/q" strings (exact) or numbers.  Numbers must be finite
(JSON readers accept NaN and Infinity).  Parse failures raise
StateFileError naming the offending field.
"""

from __future__ import annotations

import cmath
import json
import re
from fractions import Fraction
from typing import Tuple, Union

import numpy as np

from .errors import DetvarError, StateFileError
from .linalg import Matrix
from .scalars import ExactComplex, from_fields
from .states import BipartiteState

Scalar = Union[ExactComplex, complex]

_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_PARTS = frozenset(("re", "im"))


def _rational(text: str) -> Tuple[int, int]:
    """(p, q) with q > 0 and p/q = Fraction(text): read on ints for the
    literals -?[0-9]+(/[0-9]+)?, else by Fraction, which accepts and
    rejects (ValueError, ZeroDivisionError) every other string."""
    lit = _LITERAL.fullmatch(text)
    if lit is not None:
        # int() fails past the digit limit as Fraction does, same message
        p, q = int(lit[1]), int(lit[2] or 1)
        if q:
            return p, q
    f = Fraction(text)
    return f.numerator, f.denominator


def _finite(re, im, path: str) -> complex:
    try:
        z = complex(re, im)
    except OverflowError:
        raise StateFileError(path, "number out of floating-point range")
    if not cmath.isfinite(z):
        raise StateFileError(path, f"non-finite number {z}")
    return z


def parse_scalar(obj, path: str) -> Scalar:
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


def render_scalar(x: Scalar):
    if isinstance(x, ExactComplex):
        return {"re": str(x.re), "im": str(x.im)}
    x = complex(x)
    if x.imag == 0:
        return x.real
    return [x.real, x.imag]


def parse_weight(obj, path: str):
    if isinstance(obj, str):
        try:
            return Fraction(*_rational(obj))
        except (ValueError, ZeroDivisionError) as exc:
            raise StateFileError(path, f"bad rational weight: {exc}")
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise StateFileError(path, "weight must be a number or a rational string")
    if isinstance(obj, int):
        return Fraction(obj)
    return _finite(obj, 0, path).real


def render_weight(w):
    if isinstance(w, (Fraction, int)):
        return str(Fraction(w))
    return float(w)


def parse_state(data: dict) -> BipartiteState:
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
            vec = [parse_scalar(x, f"{base}.vector[{i}]") for i, x in enumerate(vec_raw)]
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
            v = parse_scalar(x, f"density[{i}][{j}]")
            exact = exact and isinstance(v, ExactComplex)
            entries.append(v)
    if exact:
        mat = Matrix(mn, mn, entries)
    else:
        mat = np.array([x.to_complex() if isinstance(x, ExactComplex) else x
                        for x in entries], dtype=complex).reshape(mn, mn)
    try:
        return BipartiteState(m, n, density=mat, label=label)
    except (DetvarError, OverflowError) as exc:
        raise StateFileError("density", str(exc))


def state_to_json(s: BipartiteState) -> dict:
    out = {"m": s.m, "n": s.n}
    if s.label:
        out["label"] = s.label
    if s.ensemble is not None:
        out["ensemble"] = [
            {"weight": render_weight(w), "vector": [render_scalar(x) for x in v]}
            for w, v in s.ensemble
        ]
    elif s.density is not None:
        # an exact Matrix or a complex array: both index as [i, j]
        mn = range(s.m * s.n)
        out["density"] = [[render_scalar(s.density[i, j]) for j in mn] for i in mn]
    return out


def load_state(path: str) -> BipartiteState:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StateFileError("$", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise StateFileError("$", f"invalid JSON: {exc}")
    return parse_state(data)


def save_state(path: str, s: BipartiteState):
    with open(path, "w") as fh:
        json.dump(state_to_json(s), fh, indent=2, sort_keys=True)
        fh.write("\n")

"""State-file JSON format.

A state file carries m, n, an optional label, and exactly one of

    "ensemble": [{"weight": w, "vector": [scalar, ...]}, ...]
    "density":  [[scalar, ...], ...]            (mn x mn)

Scalars are exact as {"re": "p/q", "im": "p/q"} (strings), or approximate
as plain numbers, [re, im] pairs, or {"re": num, "im": num}.  Weights are
probabilities: "p/q" strings (exact) or numbers.  Numbers must be finite
(JSON readers accept NaN and Infinity).  Parse failures raise
StateFileError naming the offending field.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from typing import Union

from .errors import StateFileError
from .linalg import Matrix
from .scalars import ExactComplex
from .states import BipartiteState

Scalar = Union[ExactComplex, complex]


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
        if len(obj) != 2 or not all(isinstance(x, (int, float)) for x in obj):
            raise StateFileError(path, "pair form must be [re, im] numbers")
        return _finite(obj[0], obj[1], path)
    if isinstance(obj, dict):
        re = obj.get("re", 0)
        im = obj.get("im", 0)
        extra = set(obj) - {"re", "im"}
        if extra:
            raise StateFileError(path, f"unexpected keys {sorted(extra)}")
        if isinstance(re, str) or isinstance(im, str):
            if not (isinstance(re, str) and isinstance(im, str)):
                raise StateFileError(path, "re/im must both be strings or both numbers")
            try:
                return ExactComplex(Fraction(re), Fraction(im))
            except (ValueError, ZeroDivisionError) as exc:
                raise StateFileError(path, f"bad rational literal: {exc}")
        if isinstance(re, (int, float)) and isinstance(im, (int, float)):
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
            return Fraction(obj)
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
            ensemble.append((w, tuple(vec)))
        try:
            return BipartiteState(m, n, ensemble=ensemble, label=label)
        except Exception as exc:
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
        mat = Matrix(mn, mn, entries, "exact")
    else:
        mat = Matrix(mn, mn,
                     [x.to_complex() if isinstance(x, ExactComplex) else x
                      for x in entries], "approx")
    try:
        return BipartiteState(m, n, density=mat, label=label)
    except Exception as exc:
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
        out["density"] = [[render_scalar(s.density[i, j]) for j in range(s.density.cols)]
                          for i in range(s.density.rows)]
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

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

A file is read once, as bytes, and decoded as UTF-8.  A float vector or
density row written as the writer writes it (render_scalar: floats and
[float, float] pairs) is read in one pass (_float_values); any other is
read entry by entry (parse_scalar), so every error names its entry.  An
all-exact density becomes an exact matrix (linalg.exact_matrix), any
other a complex array, its exact entries rounded by complex(z).
Reports and state files are written by json_text: json.dumps with
indent=2 and sorted keys, then a newline.
"""

from __future__ import annotations

import cmath
import json
import re
from fractions import Fraction
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import DetvarError, StateFileError
from .linalg import exact_matrix
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
    if type(obj) is dict and len(obj) == 2 and type(obj.get("re")) is str \
            and type(obj.get("im")) is str:
        return _exact(obj["re"], obj["im"], path)
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
            return _exact(re, im, path)
        if isinstance(re, (int, float)) and isinstance(im, (int, float)):
            if type(re) is bool or type(im) is bool:
                part = "re" if type(re) is bool else "im"
                raise StateFileError(f"{path}.{part}", "booleans are not numbers")
            return _finite(re, im, path)
        raise StateFileError(path, "re/im must both be strings or both numbers")
    raise StateFileError(path, f"cannot interpret {type(obj).__name__} as a scalar")


def _exact(re: str, im: str, path: str) -> ExactComplex:
    try:
        (a, q), (b, s) = _rational(re), _rational(im)
    except (ValueError, ZeroDivisionError) as exc:
        raise StateFileError(path, f"bad rational literal: {exc}")
    return from_fields(a * s, b * q, q * s)


def _float_values(raw: list) -> Optional[List[complex]]:
    """The complex values of a vector or density row whose every entry has
    a form render_scalar writes, a float or a [float, float] pair, read in
    one pass; None when an entry has another form or is not finite, and
    parse_scalar, entry by entry, decides.  An inf or nan entry leaves the
    sum non-finite; a sum that overflows only sends finite entries down
    the parse_scalar path, which accepts them."""
    values = []
    for x in raw:
        if type(x) is float:
            values.append(complex(x))
        elif type(x) is list and len(x) == 2 and type(x[0]) is float and type(x[1]) is float:
            values.append(complex(x[0], x[1]))
        else:
            return None
    return values if cmath.isfinite(sum(values)) else None


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
        if type(data[field]) is not int or data[field] < 1:
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
            vec = _float_values(vec_raw)
            if vec is None:
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
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != mn:
            raise StateFileError(f"density[{i}]", f"must have {mn} entries")
        values = _float_values(row)
        if values is None:
            values = [parse_scalar(x, f"density[{i}][{j}]") for j, x in enumerate(row)]
        rows.append(values)
    try:  # an exact entry beyond the float range overflows where it is rounded
        if all(isinstance(x, ExactComplex) for row in rows for x in row):
            mat = exact_matrix(rows)
        else:
            mat = np.array(rows, dtype=complex)
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
        out["density"] = [[render_scalar(x) for x in row] for row in s.density.tolist()]
    return out


def read_state_file(path: str) -> bytes:
    """The bytes of a state file, read once."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise StateFileError("$", f"cannot read {path}: {exc}")


def parse_state_bytes(raw: bytes) -> BipartiteState:
    """A state from the bytes of a state file: UTF-8 JSON."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise StateFileError("$", f"not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise StateFileError("$", f"invalid JSON: {exc}")
    return parse_state(data)


def load_state(path: str) -> BipartiteState:
    return parse_state_bytes(read_state_file(path))


def save_state(path: str, s: BipartiteState):
    with open(path, "w") as fh:
        fh.write(json_text(state_to_json(s)))


def json_text(obj) -> str:
    """The text of every report and state file: json.dumps(obj, indent=2,
    sort_keys=True), then a newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

"""statefile.json_text against json.dumps(indent=2, sort_keys=True).

Reports (report.render_json) and state files (save_state) are rendered by
json_text, in one recursive pass; they were rendered by json.dumps, whose
indenting encoder is the reference.  On drawn documents (NaN, +-inf, -0.0,
subnormals, big ints, non-ASCII and control characters, empty and nested
containers, tuples, float subclasses, non-string keys) the text must be
the same, and what json refuses must be refused with the same error.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detvar.report import render_json
from detvar.statefile import json_text, load_state, save_state
from detvar.states import random_mixed

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def outcome(render, obj):
    try:
        return "ok", render(obj)
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)


floats = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e300, -1e-300, math.inf,
                                                 -math.inf, math.nan, 1.0, 0.1]))
scalars = st.one_of(st.none(), st.booleans(), floats, st.text(),
                    st.integers(), st.integers(min_value=10 ** 30, max_value=10 ** 400))
keys = st.text()
documents = st.recursive(
    scalars | st.lists(floats, max_size=6),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(keys, children, max_size=5)),
    max_leaves=40)


@SETTINGS
@given(documents)
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == reference(doc)


CASES = [
    [], {}, [[]], {"a": {}}, [{}], (), ((1, 2.5), []),
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324],
    [1.5, 2.5, math.nan], [True, 1.0], [1, 2.0], [None, -0.0],
    {"x": [1e16, 1e-7, 123456789.0]}, -0.0, math.nan, 10 ** 400, -(10 ** 40),
    "café ☃ \U0001F600", "tab\tnew\nline\x00\x1f\x7f quote\" back\\slash",
    {"é": 1, "a": [1, {"b": []}], "\n": None},
    {1: "int key", 2.5: "float key", -3: 0}, {True: "bool key", False: 0}, {None: "none key"},
    {-0.0: "neg zero key", math.inf: 1},
    [np.float64(0.1), np.float64(-0.0)], {"np": np.float64(1e-300)},
    "plain", True, False, None, 0, -7,
]


@pytest.mark.parametrize("doc", CASES, ids=range(len(CASES)))
def test_json_text_matches_json_dumps_on_edge_cases(doc):
    assert json_text(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {"a": 1, 2: "mixed keys cannot be sorted"},
    {(1, 2): "tuple key"},
    [object()],
    {"array": np.array([1.0])},
    [np.int64(3)],
    {1.5j: 1},
], ids=range(6))
def test_json_text_refuses_what_json_refuses(doc):
    got, want = outcome(json_text, doc), outcome(reference, doc)
    assert got[0] == "error" and got == want


def test_reports_and_state_files_are_json_text(tmp_path):
    state = random_mixed(2, 3, 3, seed=5)
    path = tmp_path / "state.json"
    save_state(str(path), state)
    from detvar.statefile import state_to_json
    assert path.read_text() == reference(state_to_json(state))
    assert load_state(str(path)).ensemble == state.ensemble
    report = {"spectra": [0.5, 0.25, -1e-17], "label": None, "ok": True, "n": 3}
    assert render_json(report) == reference(report)

import json
from fractions import Fraction

import numpy as np
import pytest

from detvar import catalog
from detvar.cli import main
from detvar.errors import (
    InconsistentRepresentations,
    NoConvergence,
    SamplingExhausted,
    StateFileError,
)
from detvar.scalars import ExactComplex
from detvar.statefile import parse_scalar, parse_state, render_scalar, state_to_json
from detvar.states import BipartiteState, random_mixed
from pinned import GOLDEN

EC = ExactComplex
F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_runtime(report: dict) -> dict:
    report = dict(report)
    report.pop("runtime_seconds", None)
    if "reduction" in report:
        report["reduction"] = dict(report["reduction"])
    return report


def test_scalar_parsing_forms():
    assert parse_scalar(1.5, "x") == 1.5 + 0j
    assert parse_scalar([1, -2], "x") == 1 - 2j
    assert parse_scalar({"re": 0.5, "im": 2}, "x") == 0.5 + 2j
    exact = parse_scalar({"re": "3/4", "im": "-1/2"}, "x")
    assert exact == EC(F(3, 4), F(-1, 2))
    with pytest.raises(StateFileError):
        parse_scalar("nope", "field")
    with pytest.raises(StateFileError):
        parse_scalar({"re": "1/2", "im": 0.5}, "field")


def test_boolean_in_a_pair_is_no_scalar():
    for obj, field in (([True, 1.0], "density[0][1][0]"), ([0.5, False], "density[0][1][1]"),
                       ([1, True], "density[0][1][1]")):
        with pytest.raises(StateFileError, match="booleans") as err:
            parse_scalar(obj, "density[0][1]")
        assert err.value.field == field


def test_boolean_in_numeric_parts_is_no_scalar():
    for obj, field in (({"re": True, "im": 1.0}, "x.re"), ({"re": 0.5, "im": False}, "x.im"),
                       ({"im": True}, "x.im"), ({"re": False}, "x.re")):
        with pytest.raises(StateFileError, match="booleans") as err:
            parse_scalar(obj, "x")
        assert err.value.field == field


def test_scalar_render_roundtrip():
    for x in (EC(F(1, 3), F(-2, 7)), 1.25 + 0j, 0.5 - 0.25j):
        back = parse_scalar(render_scalar(x), "x")
        assert back == x


def test_state_roundtrip_exact():
    from detvar.catalog import cyclic_cubic_state
    s = cyclic_cubic_state(EC(27))
    data = state_to_json(s)
    back = parse_state(json.loads(json.dumps(data)))
    assert back.exact_ensemble
    assert np.array_equal(back.density_matrix(), s.density_matrix())


def test_state_roundtrip_approx():
    s = random_mixed(2, 2, rank=2, seed=4)
    back = parse_state(state_to_json(s))
    assert np.max(np.abs(back.density_matrix() - s.density_matrix())) < 1e-12


def test_parse_errors_name_fields():
    with pytest.raises(StateFileError) as err:
        parse_state({"m": 2, "n": 2,
                     "ensemble": [{"weight": "1/1", "vector": [1, 0, 0]}]})
    assert "ensemble[0].vector" in str(err.value)
    with pytest.raises(StateFileError) as err2:
        parse_state({"m": 2, "n": 2})
    assert "ensemble/density" in str(err2.value)
    # JSON readers accept NaN and Infinity; a state file may not carry them
    nan, inf = float("nan"), float("inf")
    for bad, field in (
            ({"ensemble": [{"weight": 1, "vector": [1, 0, 0, nan]}]}, "ensemble[0].vector[3]"),
            ({"ensemble": [{"weight": 1, "vector": [1, [0, inf], 0, 0]}]},
             "ensemble[0].vector[1]"),
            ({"ensemble": [{"weight": nan, "vector": [1, 0, 0, 0]}]}, "ensemble[0].weight"),
            ({"ensemble": [{"weight": inf, "vector": [1, 0, 0, 0]}]}, "ensemble[0].weight"),
            ({"density": [[0.5, 0, 0, 0], [0, {"re": nan, "im": 0}, 0, 0],
                          [0, 0, 0.5, 0], [0, 0, 0, 0]]}, "density[1][1]"),
            ({"density": [[0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, -inf, 0],
                          [0, 0, 0, 0]]}, "density[2][2]")):
        with pytest.raises(StateFileError) as err3:
            parse_state({"m": 2, "n": 2, **bad})
        assert field in str(err3.value) and "non-finite" in str(err3.value)
    with pytest.raises(StateFileError) as err4:  # an integer past the float range
        parse_state({"m": 2, "n": 2, "ensemble": [{"weight": 1, "vector": [1, 0, 0, 10 ** 400]}]})
    assert "ensemble[0].vector[3]" in str(err4.value)


ONE_RAY = {"weight": 1, "vector": [1.0]}
REFUSED_FILES = {
    "not an object": ([ONE_RAY], "$"),
    "no m": ({"n": 1, "ensemble": [ONE_RAY]}, "m"),
    "label not a string": ({"m": 1, "n": 1, "label": 7, "ensemble": [ONE_RAY]}, "label"),
    "empty ensemble": ({"m": 1, "n": 1, "ensemble": []}, "ensemble"),
    "item without vector": ({"m": 1, "n": 1, "ensemble": [{"weight": 1}]}, "ensemble[0]"),
    "density of the wrong size": ({"m": 1, "n": 2, "density": [[1.0, 0.0]]}, "density"),
    "short density row": ({"m": 1, "n": 2, "density": [[1.0], [0.0, 0.0]]}, "density[0]"),
    "scalar with other keys": ({"m": 1, "n": 1, "ensemble": [
        {"weight": 1, "vector": [{"re": 1, "x": 0}]}]}, "ensemble[0].vector[0]"),
    "null part": ({"m": 1, "n": 1, "ensemble": [{"weight": 1, "vector": [{"re": None}]}]},
                  "ensemble[0].vector[0]"),
}


@pytest.mark.parametrize("name", list(REFUSED_FILES))
def test_a_refused_state_file_names_its_field(name):
    doc, field = REFUSED_FILES[name]
    with pytest.raises(StateFileError) as err:
        parse_state(doc)
    assert err.value.field == field


@pytest.mark.parametrize("field", ["m", "n"])
@pytest.mark.parametrize("value", [True, False])
def test_a_boolean_is_no_dimension(field, value):
    doc = {"m": 1, "n": 1, "ensemble": [{"weight": 1, "vector": [1.0]}], field: value}
    with pytest.raises(StateFileError) as err:
        parse_state(doc)
    assert str(err.value) == f"{field}: must be a positive integer"


def test_density_only_file(tmp_path):
    mn = 4
    rows = [[(1 / mn if i == j else 0) for j in range(mn)] for i in range(mn)]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "density": rows}))
    s = parse_state(json.loads(path.read_text()))
    assert s.ensemble is None and not s.exact_ensemble


def test_cli_analyze_family(tmp_path, capsys):
    state_path = tmp_path / "fam.json"
    code, _ = run_cli(capsys, "repro", "example2", "--t", "2",
                      "--write-state", str(state_path), "--json",
                      str(tmp_path / "r.json"))
    assert code == 0
    code, out = run_cli(capsys, "analyze", str(state_path))
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "detvar/1"
    assert report["conclusion"] == "entangled"
    assert report["verdict"]["tag"] == "NonlinearWitness"
    assert report["moduli"]["lambda_cubed"] == "125"
    assert report["input_digest"].startswith("sha256:")


def test_cli_analyze_deterministic(tmp_path, capsys):
    state_path = tmp_path / "fam.json"
    run_cli(capsys, "repro", "example2", "--t", "-3",
            "--write-state", str(state_path), "--json", str(tmp_path / "r.json"))
    code1, out1 = run_cli(capsys, "analyze", str(state_path), "--seed", "5")
    code2, out2 = run_cli(capsys, "analyze", str(state_path), "--seed", "5")
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert strip_runtime(r1) == strip_runtime(r2)


def test_cli_compare_same_state_not_distinguished(tmp_path, capsys):
    p = tmp_path / "fam.json"
    run_cli(capsys, "repro", "example2", "--t", "2", "--write-state", str(p),
            "--json", str(tmp_path / "r.json"))
    code, out = run_cli(capsys, "compare", str(p), str(p))
    assert code == 0
    report = json.loads(out)
    assert report["spectra_equal"]
    assert report["moduli"]["verdict"] == "NotDistinguished"


def test_cli_compare_dimension_mismatch(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "repro", "example1", "--m", "2", "--n", "2",
            "--write-state", str(a), "--json", str(tmp_path / "ra.json"))
    run_cli(capsys, "repro", "example1", "--m", "3", "--n", "3",
            "--write-state", str(b), "--json", str(tmp_path / "rb.json"))
    code, out = run_cli(capsys, "compare", str(a), str(b))
    assert code == 2
    assert "error" in json.loads(out)


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2, "n": 2, "ensemble": [{"weight": 1, "vector": [1,0,0,"x"]}]}')
    code, out = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    err = json.loads(out)["error"]
    assert "vector[3]" in err["message"]


def test_cli_non_finite_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"m": 2, "n": 2, "ensemble": [{"weight": 1, "vector": [1,0,0,NaN]}]}')
    code, out = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "ensemble[0].vector[3]" in json.loads(out)["error"]["message"]


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"m": 1, "n": 1, "label": "\xff", '
                    b'"ensemble": [{"weight": 1, "vector": [1.0]}]}')
    for argv in (("analyze", str(bad)), ("compare", str(bad), str(bad))):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "StateFileError" and err["message"].startswith("$: not UTF-8")


def test_cli_analyze_reads_the_file_once_and_digests_what_it_parsed(tmp_path, capsys,
                                                                    monkeypatch):
    import builtins
    import hashlib

    import detvar.cli as cli
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(random_mixed(2, 2, 2, seed=3))))
    opened, parsed = [], []
    real_open, real_parse = builtins.open, cli.parse_state_bytes

    def spy_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    def spy_parse(raw):
        parsed.append(raw)
        return real_parse(raw)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(cli, "parse_state_bytes", spy_parse)
    code, out = run_cli(capsys, "analyze", str(path), "--samples", "2")
    assert code == 0
    assert opened.count(str(path)) == 1
    assert parsed == [path.read_bytes()]
    assert json.loads(out)["input_digest"] == "sha256:" + hashlib.sha256(parsed[0]).hexdigest()


def test_missing_and_malformed_files_keep_their_messages(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    for argv, message in ((("analyze", str(tmp_path / "nope.json")), "$: cannot read "),
                          (("compare", str(bad), str(bad)), "$: invalid JSON: ")):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "StateFileError" and err["message"].startswith(message)


@pytest.mark.parametrize("flag", ["--json", "--write-state"])
def test_an_output_path_that_cannot_be_written_is_an_input_error(tmp_path, capsys, flag):
    # a directory, and a file in a folder that does not exist
    for path, kind in ((tmp_path, "IsADirectoryError"),
                       (tmp_path / "missing" / "out.json", "FileNotFoundError")):
        code, out = run_cli(capsys, "repro", "example1", flag, str(path))
        assert code == 2
        assert json.loads(out)["error"]["kind"] == kind


def test_cli_analyze_exact_file_empty_verdict(tmp_path, capsys):
    p = tmp_path / "mm.json"
    run_cli(capsys, "repro", "example1", "--write-state", str(p),
            "--json", str(tmp_path / "r.json"))
    code, out = run_cli(capsys, "analyze", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "exact"
    assert report["verdict"]["tag"] == "Empty"
    assert report["conclusion"] == "inconclusive"


def test_cli_repro_example1_empty(capsys):
    code, out = run_cli(capsys, "repro", "example1")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["tag"] == "Empty"
    assert report["conclusion"] == "inconclusive"


def test_cli_repro_example3_report(capsys):
    code, out = run_cli(capsys, "repro", "example3")
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 7 and report["ppt"] and report["partial_transpose_fixed"]
    red = report["reduction"]
    assert red["pencil_matches_printed"]
    assert red["g_irreducible_over_gaussian_rationals"]
    assert red["g_sign"] == -1
    assert not red["quotient_matches_printed"]
    kinds = {c["kind"] for c in red["caveats"]}
    assert "printed-quadratic-discrepancy" in kinds
    assert report["conclusion"] == "entangled"


def test_cli_repro_example3_builds_its_state_once(capsys, monkeypatch):
    built = []
    build = catalog.ppt_4x6_state
    monkeypatch.setattr(catalog, "ppt_4x6_state", lambda: built.append(1) or build())
    code, _ = run_cli(capsys, "repro", "example3")
    assert code == 0 and len(built) == 1


@pytest.mark.parametrize("argv", [
    ("analyze", "--tol", "0"), ("analyze", "--tol", "-1"), ("analyze", "--tol", "1e-400"),
    ("analyze", "--tol", "5e-324"), ("analyze", "--tol", "inf"), ("analyze", "--tol", "nan"),
    ("analyze", "--samples", "0"), ("analyze", "--samples", "-3"),
    ("repro", "--tol", "0"), ("repro", "--samples", "0"),
    ("compare", "--tol", "inf"), ("props", "--trials", "0"), ("props", "--tol", "-1"),
], ids=lambda argv: " ".join(argv))
def test_numeric_flag_out_of_range_is_an_input_error(tmp_path, capsys, argv):
    command, flag, value = argv
    state = tmp_path / "s.json"
    run_cli(capsys, "repro", "example1", "--write-state", str(state),
            "--json", str(tmp_path / "r.json"))
    positional = {"analyze": [str(state)], "compare": [str(state), str(state)],
                  "repro": ["example1"], "props": []}[command]
    code, out = run_cli(capsys, command, *positional, f"{flag}={value}")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "BadParams" and flag in err["message"]
    bound = "at least 1" if flag in ("--samples", "--trials") else "smallest normal float"
    assert bound in err["message"]


@pytest.mark.parametrize("tol,block", [
    (None, {"abs_eps": 1e-09, "eig_cutoff": 1e-10, "rel_eps": 1e-09}),
    ("1e-7", {"abs_eps": 1e-07, "eig_cutoff": 1e-10, "rel_eps": 1e-07}),
    ("1e-12", {"abs_eps": 1e-12, "eig_cutoff": 1e-13, "rel_eps": 1e-12}),
])
def test_tol_sets_the_rendered_tolerances(tmp_path, capsys, tol, block):
    state = tmp_path / "s.json"
    run_cli(capsys, "repro", "example1", "--write-state", str(state),
            "--json", str(tmp_path / "r.json"))
    code, out = run_cli(capsys, "analyze", str(state), *(["--tol", tol] if tol else []))
    assert code == 0
    assert json.loads(out)["tolerances"] == block


def test_cli_props_small(capsys):
    code, out = run_cli(capsys, "props", "--trials", "4", "--seed", "42")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"]
    assert report["covariance"]["fail"] == 0
    assert not report["negative_control"]["covariance_holds"]
    assert set(report["negative_control"]) == {"covariance_holds", "max_residual"}
    assert report["separability_linearity"]["shapes"] == [[2, 2, 2], [2, 3, 3]]


@pytest.mark.parametrize("n", [1, 3])
def test_cli_props_negative_control_is_vacuous_in_cp0(capsys, n):
    # for m = 1 every nonzero 1x1 map on side A fixes V_A, so the
    # non-unitary control cannot break covariance: it is reported vacuous
    # and all_pass rests on the trials alone
    code, out = run_cli(capsys, "props", "--m", "1", "--n", str(n))
    assert code == 0
    report = json.loads(out)
    assert report["covariance"] == {"trials": 20, "pass": 20, "fail": 0,
                                    "worst_residual": 0.0}
    # the separability trials run on their own fixed shapes, not on 1 x n
    assert report["separability_linearity"] == {
        "trials": 10, "pass": 10, "fail": 0,
        "shapes": [[2, 2, 2], [2, 3, 3], [3, 3, 3], [2, 2, 3], [3, 3, 4]]}
    assert report["negative_control"] == {
        "vacuous": True, "reason": "m = 1: every nonzero 1x1 map fixes V_A in CP^0"}
    assert report["all_pass"] is True


@pytest.mark.parametrize("error, code", [
    (InconsistentRepresentations("the two membership criteria disagree"), 3),
    (SamplingExhausted("found 0/4 points"), 4),
    (NoConvergence("no root"), 4),
], ids=["inconsistent", "exhausted", "no convergence"])
def test_internal_and_budget_errors_exit_3_and_4(capsys, monkeypatch, error, code):
    from detvar import cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "analyze_state", fail)
    got, out = run_cli(capsys, "repro", "example1")
    assert got == code
    assert out == json.dumps({"error": {"kind": type(error).__name__, "message": str(error)}},
                             sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_a_tolerance_below_the_hermitian_defect_is_an_input_error(capsys, command):
    # the golden density's Hermitian defect, 1.388e-17, is rounding, which
    # a tolerance of 1e-300 or 1e-20 refuses
    path = str(GOLDEN / "mixed_3x3_r3.state.json")
    argv = ([command, path, "--tol", "1e-300"] if command == "analyze"
            else [command, path, path, "--tol", "1e-20"])
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": {
        "kind": "NotHermitian", "message": "Hermitian defect 1.388e-17 exceeds tolerance"}}


def test_huge_float_ray_is_a_valid_state(tmp_path, capsys):
    # its squared norm, 2e400, is past the float range; the state is fine
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"m": 1, "n": 2,
                                "ensemble": [{"weight": 1, "vector": [1e200, 1e200]}]}))
    code, out = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["spectra"]["global"] == [1.0, 0.0]


def test_tiny_float_ray_is_a_valid_state(tmp_path, capsys):
    # every part of the scaled rays lies below 1e-162, where a square
    # underflows to zero; a power of two leaves each ratio's bits as they are
    unit = random_mixed(2, 3, rank=3, seed=8)
    tiny = BipartiteState(2, 3, ensemble=[(w, tuple(z * 2.0 ** -600 for z in v))
                                          for w, v in unit.ensemble])
    reports = []
    for name, state in (("unit.json", unit), ("tiny.json", tiny)):
        path = tmp_path / name
        path.write_text(json.dumps(state_to_json(state)))
        code, out = run_cli(capsys, "analyze", str(path), "--samples", "4")
        assert code == 0
        report = strip_runtime(json.loads(out))
        del report["input_digest"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_exact_scalar_with_one_part_left_out():
    # the missing part is zero in the form of the given one
    assert parse_scalar({"re": "1/2"}, "x").fields == (1, 0, 2)
    assert parse_scalar({"im": "-3/6"}, "x").fields == (0, -1, 2)
    for obj, z in (({"re": 2}, 2 + 0j), ({"im": 1.5}, 1.5j)):
        got = parse_scalar(obj, "x")
        assert type(got) is complex and got == z
    with pytest.raises(StateFileError, match="must both be strings or both numbers"):
        parse_scalar({"re": "1/2", "im": 0}, "x")


def test_state_errors_exit_2_and_bugs_propagate(tmp_path, capsys, monkeypatch):
    import detvar.statefile as statefile
    huge, zero = {"re": "1e400", "im": "0"}, {"re": "0", "im": "0"}
    bad_states = {
        "weights.json": {"m": 1, "n": 2, "ensemble": [{"weight": "2", "vector": [1, 0]}]},
        "hermitian.json": {"m": 1, "n": 2, "density": [[0.5, 1], [0, 0.5]]},
        # past the float range in a float view of an exact entry
        "huge.json": {"m": 1, "n": 2, "density": [[{"re": "1", "im": "0"}, huge], [huge, zero]]},
        "mixed.json": {"m": 1, "n": 2,
                       "ensemble": [{"weight": 1, "vector": [{"re": "1/2", "im": "0"}, 0.5]}]},
    }
    for name, doc in bad_states.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 2 and "error" in json.loads(out), name

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a bad file")

    monkeypatch.setattr(statefile, "BipartiteState", broken)
    for doc in ({"m": 1, "n": 2, "ensemble": [{"weight": 1, "vector": [1, 0]}]},
                {"m": 1, "n": 2, "density": [[1, 0], [0, 0]]}):
        with pytest.raises(TypeError):
            parse_state(doc)


def test_two_runs_build_one_parser(capsys, monkeypatch):
    import argparse

    from detvar import cli
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "detvar":
            built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    runs = [[run_cli(capsys, *argv) for argv in (["repro", "example1"],
                                                 ["repro", "example2", "--t", "x"])]
            for _ in range(2)]
    assert len(built) == 1
    (first_ok, first_bad), (second_ok, second_bad) = runs
    assert first_ok[0] == second_ok[0] == 0 and first_bad[0] == second_bad[0] == 2
    assert strip_runtime(json.loads(first_ok[1])) == strip_runtime(json.loads(second_ok[1]))
    assert first_bad[1] == second_bad[1]

import json
from fractions import Fraction

import pytest

from detvar.cli import main
from detvar.errors import StateFileError
from detvar.scalars import ExactComplex
from detvar.statefile import parse_scalar, parse_state, render_scalar, state_to_json
from detvar.states import random_mixed

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
    assert back.density_matrix() == s.density_matrix()


def test_state_roundtrip_approx():
    s = random_mixed(2, 2, rank=2, seed=4)
    back = parse_state(state_to_json(s))
    import numpy as np
    assert np.max(np.abs(back.density_matrix().to_numpy()
                         - s.density_matrix().to_numpy())) < 1e-12


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


def test_density_only_file(tmp_path):
    mn = 4
    rows = [[(1 / mn if i == j else 0) for j in range(mn)] for i in range(mn)]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "density": rows}))
    s = parse_state(json.loads(path.read_text()))
    assert s.ensemble is None and not s.exact


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


def test_cli_props_small(capsys):
    code, out = run_cli(capsys, "props", "--trials", "4", "--seed", "42")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"]
    assert report["covariance"]["fail"] == 0
    assert not report["negative_control"]["covariance_holds"]

"""What the suite pins: the golden reports (``CASES``, rendered by
``rendered_report`` less ``runtime_seconds``; ``test_golden`` says what
each pins) and the demo scripts (``DEMOS``)."""

import contextlib
import io
import json
from pathlib import Path

from detvar.cli import main
from detvar.report import render_json

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "data" / "golden"

CASES = {
    "example2_t3w": ["repro", "example2", "--t=3w"],
    "example1": ["repro", "example1"],
    "example1_4x3": ["repro", "example1", "--m", "4", "--n", "3"],
    "example3": ["repro", "example3"],
    **{name: ["analyze", str(GOLDEN / f"{name}.state.json"), "--seed", "42"] for name in [
        "gaussian_3x4_r4", "finite_v_3x3_r4", "separable_3x4_t5", "separable_3x3_t5",
        "ppt_4x6_rank7", "gaussian_4x4_r5", "separable_4x4_t6", "mixed_3x3_r3",
        "gaussian_4x4_r7", "mixed_3x4_r5", "mixed_4x4_r5", "mixed_density_4x4_r5",
        "separable_3x3_t3", "line_times_conic_3x3", "separable_4x4_t4", "gaussian_4x4_r4"]},
}


def rendered_report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, out.getvalue()
    report = json.loads(out.getvalue())
    del report["runtime_seconds"]
    return render_json(report)

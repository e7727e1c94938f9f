"""Reports pinned byte for byte across commits.

Each case runs one CLI command and compares its rendered report, less
``runtime_seconds``, with the file pinned under ``tests/data/golden/``.
A change that is meant to leave every report as it was (a faster scalar,
a refactor) must pass these unchanged.  Two state files are random
Gaussian-rational ensembles (entries in {-3..3} + {-3..3}i, weights
k / sum k): a 3x4 rank-4 state on which the criterion finds a witness and
a 3x3 rank-4 state whose variety is finite.  The third is
``random_separable(3, 4, 5, seed=5)``, whose variety is finite too; both
finite reports pin the Macaulay certificate of a line of CP^2 that V
misses, in degree 2n - 1.  ``random_separable(3, 3, 5, seed=4)``
(``separable_3x3_t5``) has t - n + 1 > m - 1, and its variety is certified
empty by the Macaulay test on the minors themselves.  The
fourth is the rank-7 PPT 4x6 state of ``repro example3 --write-state``,
whose side-A pencil has 6x6 minors: the largest symbolic determinants of
any pinned report.  Two 4x4 cases run the multi-generator hyperplane peel
in four variables: a rank-5 Gaussian-rational ensemble (drawn as the
benchmark's ``gaussian_rational_ensemble(4, 4, 5, random.Random(1))``) on
which the criterion finds a witness, and ``random_separable(4, 4, 6,
seed=1)``, whose variety is finite.  Two more pin the Macaulay certificate
modulo a prime (hyperplane, prime and degree): a Gaussian-rational 4x4
rank-7 ensemble (``gaussian_rational_ensemble(4, 4, 7,
random.Random(1))``), whose variety is empty, and the float ensemble
``random_mixed(3, 4, 5, seed=1)``, whose variety is finite as given and
which is therefore never sampled.  The float case ``random_mixed(3, 3, 3,
seed=1)`` pins the approximate pathway on a hypersurface: line roots as
eigenvalues of the pencil on random lines, and the float witness probe.
``random_mixed(4, 4, 5, seed=1)`` (``mixed_4x4_r5``) and the same state
given as its density (``mixed_density_4x4_r5``, analysed on its spectral
ensemble) pin Gauss-Newton on the incidence system y^T N(r) = 0 of a
4x5 pencil in four variables; both end in a NonlinearWitness.  Two 3x3
cases pin the ``factorization`` field of a square pencil's determinant:
``random_separable(3, 3, 3, seed=5)`` (``separable_3x3_t3``) splits into
three Q(i) forms and is a LinearUnion, and ``line_times_conic_3x3`` (one
product ray and two entangled Gaussian-rational rays) splits into one
form times a conic on which the witness lies.  Two 4x4 square pencils
pin the split of a determinant in four variables:
``random_separable(4, 4, 4, seed=1)`` (``separable_4x4_t4``) splits into
four Q(i) forms and is a LinearUnion, and a rank-4 Gaussian-rational
ensemble (``gaussian_rational_ensemble(4, 4, 4, random.Random(1))``,
``gaussian_4x4_r4``) has no Q(i) linear factor, and the criterion finds a
witness on its quartic.  ``repro example3`` pins the
symbolic 4x6 chart reduction: the pencil, its chart substitution, f1, f2
and the plane cubic g.  ``repro example1`` (the maximally mixed 3x3
state, the default ``--m 3 --n 3``) and ``repro example1 --m 4 --n 3``
pin the monomial path: every minor is a monomial or zero, and a pure
power of each variable among them leaves V empty with no certificate.
Spectra and entropies come from LAPACK, so their last digits are pinned
for one numpy build.

When a change is meant to move a report, rewrite the pinned files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change which reports moved and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from detvar.cli import main
from detvar.report import render_json

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

CASES = {
    "example2_t3w": ["repro", "example2", "--t=3w"],
    "example1": ["repro", "example1"],
    "example1_4x3": ["repro", "example1", "--m", "4", "--n", "3"],
    "example3": ["repro", "example3"],
    "gaussian_3x4_r4": ["analyze", str(GOLDEN / "gaussian_3x4_r4.state.json"), "--seed", "42"],
    "finite_v_3x3_r4": ["analyze", str(GOLDEN / "finite_v_3x3_r4.state.json"), "--seed", "42"],
    "separable_3x4_t5": ["analyze", str(GOLDEN / "separable_3x4_t5.state.json"),
                         "--seed", "42"],
    "separable_3x3_t5": ["analyze", str(GOLDEN / "separable_3x3_t5.state.json"),
                         "--seed", "42"],
    "ppt_4x6_rank7": ["analyze", str(GOLDEN / "ppt_4x6_rank7.state.json"), "--seed", "42"],
    "gaussian_4x4_r5": ["analyze", str(GOLDEN / "gaussian_4x4_r5.state.json"), "--seed", "42"],
    "separable_4x4_t6": ["analyze", str(GOLDEN / "separable_4x4_t6.state.json"),
                         "--seed", "42"],
    "mixed_3x3_r3": ["analyze", str(GOLDEN / "mixed_3x3_r3.state.json"), "--seed", "42"],
    "gaussian_4x4_r7": ["analyze", str(GOLDEN / "gaussian_4x4_r7.state.json"), "--seed", "42"],
    "mixed_3x4_r5": ["analyze", str(GOLDEN / "mixed_3x4_r5.state.json"), "--seed", "42"],
    "mixed_4x4_r5": ["analyze", str(GOLDEN / "mixed_4x4_r5.state.json"), "--seed", "42"],
    "mixed_density_4x4_r5": ["analyze", str(GOLDEN / "mixed_density_4x4_r5.state.json"),
                             "--seed", "42"],
    "separable_3x3_t3": ["analyze", str(GOLDEN / "separable_3x3_t3.state.json"),
                         "--seed", "42"],
    "line_times_conic_3x3": ["analyze", str(GOLDEN / "line_times_conic_3x3.state.json"),
                             "--seed", "42"],
    "separable_4x4_t4": ["analyze", str(GOLDEN / "separable_4x4_t4.state.json"),
                         "--seed", "42"],
    "gaussian_4x4_r4": ["analyze", str(GOLDEN / "gaussian_4x4_r4.state.json"), "--seed", "42"],
}


def rendered_report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, out.getvalue()
    report = json.loads(out.getvalue())
    del report["runtime_seconds"]
    return render_json(report)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_pinned(name):
    pinned = (GOLDEN / f"{name}.report.json").read_text()
    assert rendered_report(CASES[name]) == pinned


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.report.json").write_text(rendered_report(argv))
        print(f"wrote {name}.report.json", file=sys.stderr)

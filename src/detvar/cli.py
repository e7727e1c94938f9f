"""Command-line interface.

    detvar analyze <file> [--side A|B] [--tol X] [--samples N] [--seed S] [--json OUT]
    detvar compare <a> <b> [--tol X] [--json OUT]
    detvar repro example1 [--m M] [--n N] | example2 --t <rat|3w> | example3
    detvar props [--m M] [--n N] [--trials K] [--seed S]

Exit codes: 0 completed, 2 input error, 3 internal inconsistency (the two
membership criteria disagreed), 4 resource budget exceeded.  Reports are
JSON on stdout (or --json PATH); all randomized commands default to seed 42
and echo it in the report; every command takes --tol X (a Tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

import numpy as np

from . import catalog
from .errors import (
    BadDims,
    BadParams,
    DimensionMismatch,
    InconsistentRepresentations,
    NoConvergence,
    NotAState,
    NotHermitian,
    SamplingExhausted,
    StateFileError,
)
from .linalg import partial_transpose, rank_exact
from .report import (
    SCHEMA,
    analyze_state,
    chart_reduction_report,
    compare_states,
    digest_bytes,
    render_json,
)
from .scalars import DEFAULT_TOL, Tolerance
from .statefile import load_state, parse_state_bytes, read_state_file, save_state
from .states import (
    LocalUnitaryPair,
    _complex_gaussians,
    ppt_check,
    random_local_unitary,
    random_mixed,
    random_separable,
    random_unitary,
)
from .variety import (DEFAULT_SAMPLES, DEFAULT_SEED, linearity_decide, variety_of_state,
                      verify_lu_covariance)


def _check_flags(args) -> None:
    """Turn --tol into a Tolerance, which checks it; a count must be >= 1."""
    try:
        args.tol = DEFAULT_TOL if args.tol is None else Tolerance(args.tol)
    except ValueError as exc:
        raise BadParams(f"--tol {exc}") from None
    for flag in ("samples", "trials"):
        if getattr(args, flag, 1) < 1:
            raise BadParams(f"--{flag} must be at least 1, got {getattr(args, flag)}")


def _emit(report: dict, args) -> None:
    text = render_json(report)
    path = getattr(args, "json", None)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(f"report written to {path}")
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    raw = read_state_file(args.file)
    state = parse_state_bytes(raw)  # the bytes the digest is taken of
    report = analyze_state(state, side=args.side, tol=args.tol, samples=args.samples,
                           seed=args.seed, input_digest=digest_bytes(raw))
    _emit(report, args)
    return 0


def cmd_compare(args) -> int:
    a = load_state(args.a)
    b = load_state(args.b)
    report = compare_states(a, b, tol=args.tol)
    _emit(report, args)
    return 0


def cmd_repro(args) -> int:
    if args.which == "example1":
        state = catalog.maximally_mixed(args.m, args.n)
    elif args.which == "example2":
        if args.t is None:
            raise BadParams("example2 needs --t (an exact rational or '3w')")
        state = catalog.cyclic_cubic_state(catalog.parse_family_parameter(args.t))
    elif args.which == "example3":
        state = catalog.ppt_4x6_state()
    else:
        raise BadParams(f"unknown example {args.which!r}")
    if args.write_state:
        save_state(args.write_state, state)
    if args.which == "example3":
        start = time.perf_counter()
        rho = state.density_matrix()
        report = {
            "schema": SCHEMA,
            "label": state.label,
            "rank": rank_exact(rho),
            "ppt": ppt_check(state, args.tol),
            "partial_transpose_fixed": np.array_equal(partial_transpose(rho, 4, 6), rho),
            "reduction": chart_reduction_report(catalog.chart_reduction(state)),
        }
        report["conclusion"] = report["reduction"]["conclusion"]
        report["runtime_seconds"] = time.perf_counter() - start
    else:
        report = analyze_state(state, side="A", tol=args.tol,
                               samples=args.samples, seed=args.seed,
                               input_digest="builtin:" + state.label)
    _emit(report, args)
    return 0


def _negative_control(args) -> dict:
    """A deliberately non-unitary map on side A must break covariance.  In
    CP^0 (m = 1) every nonzero 1 x 1 map fixes V_A, so there the control
    cannot fire and is reported vacuous instead of run."""
    if args.m == 1:
        return {"vacuous": True,
                "reason": "m = 1: every nonzero 1x1 map fixes V_A in CP^0"}
    rng = random.Random(args.seed + 5)
    bad = _complex_gaussians(rng, args.m * args.m).reshape(args.m, args.m)
    control_pair = LocalUnitaryPair(bad, random_unitary(args.n, rng), validate=False)
    control_state = random_mixed(args.m, args.n, rank=args.n, seed=args.seed + 6)
    control = verify_lu_covariance(control_state, control_pair, samples=3,
                                   seed=args.seed, tol=args.tol)
    return {"covariance_holds": bool(control), "max_residual": control.max_residual}


def cmd_props(args) -> int:
    start = time.perf_counter()
    cov_pass = cov_fail = 0
    worst = 0.0
    for k in range(args.trials):
        s = random_mixed(args.m, args.n, rank=args.n, seed=args.seed + 7919 * k)
        u = random_local_unitary(args.m, args.n, seed=args.seed + 104729 * k + 1)
        res = verify_lu_covariance(s, u, samples=3, seed=args.seed, tol=args.tol)
        worst = max(worst, res.max_residual)
        if res:
            cov_pass += 1
        else:
            cov_fail += 1

    sep_configs = [(2, 2, 2), (2, 3, 3), (3, 3, 3), (2, 2, 3), (3, 3, 4)]
    sep_pass = sep_fail = 0
    sep_trials = max(args.trials // 2, 1)
    for k in range(sep_trials):
        m, n, terms = sep_configs[k % len(sep_configs)]
        st = random_separable(m, n, terms, seed=args.seed + 31 * k)
        verdict = linearity_decide(variety_of_state(st), seed=args.seed, tol=args.tol)
        if verdict.tag == "NonlinearWitness":
            sep_fail += 1
        else:
            sep_pass += 1

    control = _negative_control(args)
    report = {
        "schema": SCHEMA,
        "m": args.m,
        "n": args.n,
        "seed": args.seed,
        "covariance": {"trials": args.trials, "pass": cov_pass, "fail": cov_fail,
                       "worst_residual": worst},
        # the trials run on these fixed shapes, whatever --m and --n are
        "separability_linearity": {"trials": sep_trials, "pass": sep_pass,
                                   "fail": sep_fail,
                                   "shapes": [list(c) for c in sep_configs[:sep_trials]]},
        "negative_control": control,
        "all_pass": (cov_fail == 0 and sep_fail == 0
                     and (control.get("vacuous", False) or not control["covariance_holds"])),
        "runtime_seconds": time.perf_counter() - start,
    }
    _emit(report, args)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="detvar",
        description="Determinantal-variety invariants of bipartite mixed states")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags several subcommands share, each defined once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--json", default=None)
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sampled = argparse.ArgumentParser(add_help=False, parents=[seeded])
    sampled.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    pa = sub.add_parser("analyze", help="analyze a state file", parents=[sampled])
    pa.add_argument("file")
    pa.add_argument("--side", choices=["A", "B"], default="A")
    pa.set_defaults(fn=cmd_analyze)

    pc = sub.add_parser("compare", help="compare two state files", parents=[common])
    pc.add_argument("a")
    pc.add_argument("b")
    pc.set_defaults(fn=cmd_compare)

    pr = sub.add_parser("repro", help="reproduce a built-in construction", parents=[sampled])
    pr.add_argument("which", choices=["example1", "example2", "example3"])
    pr.add_argument("--m", type=int, default=3)
    pr.add_argument("--n", type=int, default=3)
    pr.add_argument("--t", default=None,
                    help="family parameter for example2: a rational or '3w' "
                         "(write negative fractions as --t=-1/2)")
    pr.add_argument("--write-state", default=None,
                    help="also write the state file used")
    pr.set_defaults(fn=cmd_repro)

    pp = sub.add_parser("props", help="randomized property suite", parents=[seeded])
    pp.add_argument("--m", type=int, default=3)
    pp.add_argument("--n", type=int, default=3)
    pp.add_argument("--trials", type=int, default=20)
    pp.set_defaults(fn=cmd_props)
    return parser


# the exit code of each error a command reports, the first match counting
EXIT_CODES = {
    StateFileError: 2, BadParams: 2, BadDims: 2, DimensionMismatch: 2, NotAState: 2,
    NotHermitian: 2,  # a density whose Hermitian defect exceeds the given --tol
    OSError: 2,  # a path that cannot be read or written: a directory, a missing folder
    InconsistentRepresentations: 3, SamplingExhausted: 4, NoConvergence: 4,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        sys.stdout.write(json.dumps(
            {"error": {"kind": type(exc).__name__, "message": str(exc)}},
            sort_keys=True) + "\n")
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

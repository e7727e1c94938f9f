"""Benchmark of the detvar state -> verdict pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``workloads.py``):

* ``silent_sweep``: separable, two-row and finite-V states, on which the
  criterion stays silent and the sampler runs out its budget.
* ``exact_witness``: the exact pathway where witnesses are expected, plus
  the ``repro`` commands and the t^3 = 27 / -27 comparison.
* ``approx_witness``: floating-point states, half delivered as densities,
  plus local-unitary covariance checks.

One process, one thread; the BLAS pools are pinned to one thread before
numpy loads.  The loop is closed: one operation at a time.  A run holds a
fixed number of operations per stratum, scaled to ``--seconds``, so every
run of a workload times the same mixture.  Every output is checked; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Latencies and set-up times are CPU time at a reference speed.

* CPU time (of the benchmark's one thread, and of the import probe's
  child) and not wall time: the pipeline is single-threaded and never
  waits, so the two agree on an idle machine, but on a shared VM the CPU
  time leaves out the time the hypervisor gives to other guests (steal).
  Thread rather than process CPU time, because the interval timer below
  coarsens the process clock to scheduler ticks.
* At a reference speed: on such a VM the same CPU work still takes from
  about 0.6x to 1.2x its usual time, in spells of seconds to minutes.  So
  a fixed pure-Python reference kernel, which nothing in detvar affects,
  is timed before and after every operation and every PROBE_EVERY CPU
  seconds within it, and each latency, less the kernel's own time, is
  scaled by REF_SECONDS over the mean of those timings.

The unscaled CPU and wall-clock rate and median are printed next to the
metrics, for information.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs a
half-length schedule untraced, then replays the same operations with spans
around every wrapped layer (``spans.py``) and prints the per-layer metrics,
with the tracing overhead measured on the same operations.  Spans are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# CPU time of reference_kernel() on the reference machine (a shared 2-core
# Xeon VM, in its usual, slower spells); only the unit of the scaled times
REF_SECONDS = 0.005
PROBE_EVERY = 0.25  # CPU seconds between speed probes within an operation

# the end-to-end metrics of BENCHMARK.json, in print order
END_TO_END = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
              ("silent_frac", "ratio")]

# the child times its import of detvar and probes its own speed around it
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; from run import speed_probe; "
                "b = speed_probe(); t = time.process_time(); import detvar; "
                "c = time.process_time() - t; print(c, b, speed_probe())")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "detvar" / "__init__.py").is_file():
        fail(f"no detvar sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import detvar

    if Path(detvar.__file__).resolve().parent != SRC / "detvar":
        fail(f"imported detvar from {detvar.__file__}, not from {SRC}")


def commit_id() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_import() -> float:
    """CPU time of importing detvar (numpy included) in a fresh interpreter,
    at reference speed."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    cpu, before, after = map(float, done.stdout.split())
    return cpu * REF_SECONDS / ((before + after) / 2)


def reference_kernel():
    """Fixed pure-Python work, about 5 ms: Fraction, complex and dict
    operations, the mix the program's own kernels are made of."""
    x, z, table = Fraction(1, 3), complex(0.5, 0.25), {}
    for i in range(450):
        x = x * Fraction(3, 4) + Fraction(i % 7 + 1, i % 5 + 2)
        z = z * complex(0.999, 0.01) + 0.001
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0.0) + z.real * z.imag
    return x, z, table


def speed_probe() -> float:
    """CPU seconds of one reference_kernel() call."""
    t0 = time.thread_time()
    reference_kernel()
    return time.thread_time() - t0


class InOpProbes:
    """Speed probes taken inside an operation by a CPU-time interval timer
    (SIGPROF), so that an operation longer than a spell of the machine's
    speed is scaled by the speed during it.  ``taken`` holds (start, CPU
    seconds) of each probe since the last ``with``."""

    def __init__(self):
        self.taken = []
        self._armed = False
        signal.signal(signal.SIGPROF, self._on_timer)

    def _on_timer(self, signum, frame):
        # not armed: within a probe, or the signal of a timer that was
        # already stopped
        if not self._armed:
            return
        self._armed = False
        t0 = time.thread_time()
        reference_kernel()
        self.taken.append((t0, time.thread_time() - t0))
        self._armed = True

    def __enter__(self):
        self.taken.clear()
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_PROF, 0)


def setup(workloads, name: str, seed: int, seconds: float):
    """Import time plus corpus generation and serialization, SETUP_REPEATS
    times, at reference speed; returns the operations and the median."""
    times = []
    for _ in range(SETUP_REPEATS):
        t_import = timed_import()
        before = speed_probe()
        t0 = time.thread_time()
        ops = workloads.build_corpus(name, seed, seconds, OUT)
        cpu = time.thread_time() - t0
        times.append(t_import + cpu * REF_SECONDS / ((before + speed_probe()) / 2))
    return ops, statistics.median(times)


def warm_up(workloads):
    """One cheap operation of each kind, untimed and unchecked, so that the
    first timed operations do not pay for lazy imports."""
    corpus = workloads.Corpus(OUT)
    rng = random.Random(0)
    for make in (workloads.separable(2, 2, 2), workloads.compare,
                 workloads.repro("example1"), workloads.mixed(2, 3, 3, True),
                 workloads.covariance(3, 3, 3)):
        make(rng, 0, corpus).call()


class Tally:
    """Latencies, failures and verdicts of one pass over some operations."""

    def __init__(self, probes=None):
        self.probes = probes  # InOpProbes, or None for the endpoints only
        self.latencies = []  # CPU seconds at reference speed
        self.cpu = []        # unscaled CPU seconds, for information
        self.wall = []       # wall-clock seconds, for information
        self.last_probe = speed_probe()
        self.failed = 0
        self.analyses = 0
        self.witnesses = 0
        self.problems = []
        self.digest = hashlib.sha256()


def run_op(op, tally: Tally, check: bool):
    inside = tally.probes or contextlib.nullcontext()
    w0, t0 = time.perf_counter(), time.thread_time()
    with inside:
        try:
            result = op.call()
            error = None
        except Exception as exc:  # any escape is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
    t1, wall = time.thread_time(), time.perf_counter() - w0
    speeds = [d for start, d in getattr(inside, "taken", ()) if start < t1]
    cpu = t1 - t0 - sum(speeds)
    probe = speed_probe()
    speeds += [tally.last_probe, probe]
    tally.latencies.append(cpu * REF_SECONDS / statistics.mean(speeds))
    tally.cpu.append(cpu)
    tally.wall.append(wall)
    tally.last_probe = probe
    if op.kind == "analyze":
        tally.analyses += 1
    if error is not None:
        tally.failed += 1
        tally.problems.append(f"{op.label}: {error}")
        return
    if not check:
        return
    try:
        rendered, problems, tag = op.check(result)
    except Exception as exc:
        rendered, problems, tag = None, [f"check raised {type(exc).__name__}: {exc}"], None
    if tag == "NonlinearWitness":
        tally.witnesses += 1
    if problems:
        tally.failed += 1
        tally.problems.extend(f"{op.label}: {p}" for p in problems)
    if rendered is not None:
        rep = json.loads(rendered)
        rep.pop("runtime_seconds", None)
        tally.digest.update(json.dumps(rep, indent=2, sort_keys=True).encode())


def run_ops(ops, tally: Tally, check: bool, on_op=None, deadline=math.inf) -> int:
    """Run the operations in order, stopping early once `deadline` wall
    seconds have passed; returns how many ran."""
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if time.perf_counter() - start > deadline:
            return k
        run_op(op if on_op is None else on_op(op), tally, check)
    return len(ops)


def tail(latencies):
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank); returns (value, percentile, samples beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    pct = max(math.floor(100 * (n - 10) / n), 0)
    rank = max(math.ceil(pct * n / 100), 1)
    return xs[rank - 1], pct, n - rank


def end_to_end(tally: Tally, setup_s: float):
    n = len(tally.latencies)
    tail_s, pct, beyond = tail(tally.latencies)
    values = {
        "ops_per_s": n / sum(tally.latencies),
        "op_p50_ms": 1e3 * statistics.median(tally.latencies),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - tally.failed / n,
        "silent_frac": 1 - tally.witnesses / tally.analyses,
    }
    notes = {
        "ops_per_s": f"raw CPU {n / sum(tally.cpu):.4g}/s, wall {n / sum(tally.wall):.4g}/s",
        "op_p50_ms": f"raw CPU {1e3 * statistics.median(tally.cpu):.4g} ms, "
                     f"wall {1e3 * statistics.median(tally.wall):.4g} ms",
        "op_tail_ms": f"p{pct}, n={n}, {beyond} beyond",
        "ok_frac": f"= 1 - failed_frac; failed_frac = {tally.failed / n:.4g} ({tally.failed}/{n})",
        "silent_frac": f"= 1 - witness_frac; witness_frac = "
                       f"{tally.witnesses / tally.analyses:.4g} "
                       f"({tally.witnesses}/{tally.analyses} analyses)",
    }
    return values, notes


def machine_record(workload: str, seed: int):
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit_id(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def traced_pass(spans, ops, untraced: Tally, name: str, seed: int):
    """Replay `ops` with spans; returns the per-layer metrics and the
    traced tally."""
    rec = spans.Recorder()
    traced = Tally()

    def with_span(op):
        rec.current_op[0] += 1
        return type(op)(op.kind, op.label, rec.span_wrapper(op.call, f"op.{op.kind}"),
                        op.check)

    rec.install()
    try:
        run_ops(ops, traced, check=False, on_op=with_span)
    finally:
        rec.uninstall()
    metrics = rec.layer_metrics(traced.analyses)
    metrics["trace.ops"] = len(traced.latencies)
    metrics["trace.untraced_ops_per_s"] = len(untraced.latencies) / sum(untraced.latencies)
    metrics["trace.ops_per_s"] = len(traced.latencies) / sum(traced.latencies)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(untraced.latencies)
    rec.write(OUT / f"spans-{name}-seed{seed}.npz")
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    import_program()
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    print("machine " + json.dumps(machine_record(args.workload, args.seed), sort_keys=True))
    budget = args.seconds / 2 if args.trace else args.seconds
    ops, setup_s = setup(workloads, args.workload, args.seed, budget)
    warm_up(workloads)
    gc.collect()

    tally = Tally(InOpProbes())
    # the cap only bites on a machine much slower than the reference
    done = run_ops(ops, tally, check=True, deadline=3 * budget)
    print(f"workload {args.workload}: seed {args.seed}, {done} of {len(ops)} operations, "
          f"{tally.analyses} analyses, {sum(tally.latencies):.4g} s at reference speed, "
          f"{sum(tally.cpu):.4g} CPU s, {sum(tally.wall):.4g} wall s")
    print(f"report digest: sha256:{tally.digest.hexdigest()}")
    attempted, failed, problems = len(tally.latencies), tally.failed, tally.problems
    if args.trace:
        metrics, traced = traced_pass(spans, ops[:done], tally, args.workload, args.seed)
        attempted += len(traced.latencies)
        failed += traced.failed
        problems += [f"traced {p}" for p in traced.problems]
        specs = [(name, unit, "") for name, unit, _ in spans.metric_specs()]
    else:
        metrics, notes = end_to_end(tally, setup_s)
        specs = [(name, unit, notes.get(name, "")) for name, unit in END_TO_END]

    for name, unit, note in specs:
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit:<6} {note}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder for the traced run.

Wraps public functions of the ``detvar`` modules from outside: every call
records a span (name, start, end, parent, operation).  Spans stay in
memory, in flat arrays, and are written out when the run ends.  A layer's
self time is its span time minus the time of its direct child spans.

A function bound by name in several modules (``variety`` imports
``minors``, ``report`` imports ``variety_of_state``, ``cli`` imports
``analyze_state``, ...) is replaced in every ``detvar`` module namespace
that holds it, and methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from detvar.errors import SamplingExhausted

# (module, function or Class.method) wrapped with a span
TRACED = [
    ("report", "analyze_state"), ("report", "compare_states"), ("report", "render_json"),
    ("statefile", "parse_state"),
    ("variety", "variety_of_state"), ("variety", "linearity_decide"),
    ("variety", "sample_points"), ("variety", "membership"), ("variety", "tangent_form"),
    ("variety", "Variety.hermitian_residual"), ("variety", "Variety.generator_residual"),
    ("variety", "verify_lu_covariance"),
    ("variety", "_newton_polish"), ("variety", "_analysis_system"),
    ("variety", "_plane_slice_candidates"), ("variety", "_witness_search_at"),
    ("multipoly", "minors"), ("multipoly", "restrict_to_line"),
    ("multipoly", "univariate_roots"), ("multipoly", "Poly.evaluate"),
    ("multipoly", "Poly.evaluation_scale"), ("multipoly", "Poly.derivative"),
    ("multipoly", "Poly.to_approx"),
    ("factorization", "linear_factorization"),
    ("exactroots", "gaussian_rational_roots"), ("exactroots", "rational_roots"),
    ("moduli", "hesse_reduce"), ("moduli", "moduli_value"),
    ("states", "density_from_ensemble"), ("states", "ensemble_from_density"),
    ("states", "entropy_and_spectra"), ("states", "ppt_check"),
    ("linalg", "det_exact"), ("linalg", "rank_exact"), ("linalg", "hermitian_eigen"),
    ("catalog", "chart_reduction"),
]
# operations of the exact kernel, counted without spans
COUNTED = [("scalars", "ExactComplex.__mul__"), ("scalars", "ExactComplex.__add__")]

# useful-to-attempted tallies: (metric, unit, better)
TALLIES = [
    ("variety.sample_points.requested", "count", "lower"),
    ("variety.sample_points.yield", "ratio", "higher"),
    ("variety.sample_points.exhausted", "count", "lower"),
    ("variety._newton_polish.converged_ratio", "ratio", "higher"),
    ("variety._witness_search_at.hit_ratio", "ratio", "higher"),
    ("multipoly.univariate_roots.failed", "count", "lower"),
    ("states.density_from_ensemble.per_analysis", "ratio", "lower"),
]
# whole-run figures of the traced run
RUN_FIGURES = [
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric the traced run prints: (name, unit, better)."""
    specs = []
    for mod, fn in TRACED:
        specs.append((f"{mod}.{fn}.calls", "count", "lower"))
        specs.append((f"{mod}.{fn}.self_s", "s", "lower"))
    specs += [(f"{mod}.{fn}.calls", "count", "lower") for mod, fn in COUNTED]
    return specs + TALLIES + RUN_FIGURES


class Recorder:
    """Spans in flat arrays; ``stack`` holds the open spans (-1 = none)."""

    def __init__(self):
        self.names: List[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = [-1]
        self.counts: Counter = Counter()
        self._ids: Dict[str, int] = {}
        self._patched: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_wrapper(self, fn, name: str, observe=None):
        nid = self.name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack, current = self.start, self.end, self.stack, self.current_op
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(current[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = now()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            ends[idx] = now()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return wrapper

    def count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _replace(self, owner_mod: str, qualname: str, make):
        mod = sys.modules[f"detvar.{owner_mod}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owners = [getattr(mod, cls_name)]
            orig = vars(owners[0])[attr]
        else:
            orig = getattr(mod, qualname)
            owners = [m for key, m in sys.modules.items()
                      if key == "detvar" or key.startswith("detvar.")]
        wrapped = make(orig, f"{owner_mod}.{qualname}")
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    setattr(owner, key, wrapped)
                    self._patched.append((owner, key, orig))

    def install(self):
        observers = {
            "variety.sample_points": self._observe_sampling,
            "variety._newton_polish": self._observe_newton,
            "variety._witness_search_at": self._observe_witness,
            "multipoly.univariate_roots": self._observe_roots,
        }
        for mod, fn in TRACED:
            self._replace(mod, fn, lambda orig, name: self.span_wrapper(
                orig, name, observers.get(name)))
        for mod, fn in COUNTED:
            self._replace(mod, fn, self.count_wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- tallies (args, kwargs, result, exception) ------------------------------

    def _observe_sampling(self, args, kwargs, result, exc):
        self.counts["sampling.requested"] += kwargs["count"] if "count" in kwargs else args[1]
        if exc is None:
            self.counts["sampling.returned"] += len(result)
        elif isinstance(exc, SamplingExhausted):
            self.counts["sampling.exhausted"] += 1

    def _observe_newton(self, args, kwargs, result, exc):
        self.counts["newton.converged"] += result is not None

    def _observe_witness(self, args, kwargs, result, exc):
        self.counts["witness.hits"] += result is not None

    def _observe_roots(self, args, kwargs, result, exc):
        self.counts["roots.failed"] += exc is not None

    # -- results ------------------------------------------------------------

    def layer_metrics(self, analyses: int) -> Dict[str, float]:
        """calls and self_s per traced name, the counted operations and the
        useful-to-attempted tallies."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parents >= 0
        child_time = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        self_time = np.bincount(names, weights=dur - child_time, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        out: Dict[str, float] = {}
        for mod, fn in TRACED:
            nid = self._ids[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.calls"] = int(calls[nid])
            out[f"{mod}.{fn}.self_s"] = float(self_time[nid])
        c = self.counts
        for mod, fn in COUNTED:
            out[f"{mod}.{fn}.calls"] = c[f"{mod}.{fn}"]

        def ratio(num, den):
            return num / den if den else 0.0

        out["variety.sample_points.requested"] = c["sampling.requested"]
        out["variety.sample_points.yield"] = ratio(c["sampling.returned"],
                                                   c["sampling.requested"])
        out["variety.sample_points.exhausted"] = c["sampling.exhausted"]
        out["variety._newton_polish.converged_ratio"] = ratio(
            c["newton.converged"], out["variety._newton_polish.calls"])
        out["variety._witness_search_at.hit_ratio"] = ratio(
            c["witness.hits"], out["variety._witness_search_at.calls"])
        out["multipoly.univariate_roots.failed"] = c["roots.failed"]
        out["states.density_from_ensemble.per_analysis"] = ratio(
            out["states.density_from_ensemble.calls"], analyses)
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))

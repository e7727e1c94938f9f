"""Seeded corpora and operations for the three benchmark workloads.

A workload is a list of strata (shape, rank, delivery form), each with a
fixed number of operations per run.  The seed only changes which random
states fill the strata and the order of the operations, so every run of a
workload measures the same mixture of operations, each on its own state.

The program sees the states only as serialized state documents.  An
analyze operation is what ``detvar analyze`` does in-process:
``json.loads`` -> ``statefile.parse_state`` -> ``report.analyze_state`` ->
``report.render_json``.  The remaining operations are ``cli.main`` for the
``repro`` commands, ``report.compare_states`` and
``variety.verify_lu_covariance``.

The program is called through its module attributes (``report.analyze_state``
and not a name bound here), so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

from detvar import catalog, cli, report, statefile, states, variety
from detvar.scalars import ExactComplex

# The sampling and probing budgets scale with `samples`; at 4 (the CLI
# default is 12) a 4x4 analysis takes about 2 s instead of 7 s.
SAMPLES = 4
SEED = 42            # the CLI's default analysis seed
RECHECK_TOL = 1e-12  # serialized witness re-check, as in acceptance criterion 3
COVARIANCE_SAMPLES = 3


class Op:
    """One operation: a timed call into the program and an untimed check.

    ``call`` returns what ``check`` needs.  ``check`` returns the rendered
    report (or None), a list of problems, and the verdict tag of an
    analysis (or None for other kinds).
    """

    __slots__ = ("kind", "label", "call", "check")

    def __init__(self, kind: str, label: str, call: Callable, check: Callable):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check


def _render(state) -> str:
    return json.dumps(statefile.state_to_json(state), sort_keys=True)


def _witness_problems(rep: dict, state_text: str, side: str = "A") -> List[str]:
    """A cyclic family member must be certified, and its serialized probe
    must reproduce the reported Hermitian residual."""
    verdict = rep["verdict"]
    if verdict["tag"] != "NonlinearWitness":
        return [f"expected NonlinearWitness, got {verdict['tag']}"]
    v = variety.variety_of_state(statefile.parse_state(json.loads(state_text)), side)
    probe = tuple(complex(re, im) for re, im in verdict["witness"]["probe"])
    recheck = v.hermitian_residual(probe)
    drift = abs(recheck - verdict["witness"]["hermitian_residual"])
    if drift > RECHECK_TOL:
        return [f"witness re-check drifted by {drift:.3e}"]
    return []


def analyze_op(label: str, text: str, expect: Optional[str], side: str = "A") -> Op:
    """``expect`` is "silent" (a witness is a false certificate),
    "witness" (a cyclic family member) or None (no verdict is required)."""

    def call():
        rep = report.analyze_state(
            statefile.parse_state(json.loads(text)), side=side, samples=SAMPLES, seed=SEED,
            input_digest=report.digest_bytes(text.encode()))
        return report.render_json(rep)

    def check(rendered):
        rep = json.loads(rendered)
        tag = rep["verdict"]["tag"]
        problems = []
        if expect == "silent" and tag == "NonlinearWitness":
            problems.append("NonlinearWitness on a state where the criterion cannot fire")
        elif expect == "witness":
            problems = _witness_problems(rep, text, side)
        return rendered, problems, tag

    return Op("analyze", label, call, check)


def compare_op(label: str, text_a: str, text_b: str) -> Op:
    def call():
        a = statefile.parse_state(json.loads(text_a))
        b = statefile.parse_state(json.loads(text_b))
        return report.render_json(report.compare_states(a, b))

    def check(rendered):
        verdict = json.loads(rendered).get("moduli", {}).get("verdict")
        problems = [] if verdict == "DistinguishedInequivalent" else [
            f"expected DistinguishedInequivalent, got {verdict}"]
        return rendered, problems, None

    return Op("compare", label, call, check)


def repro_op(args: List[str], out_path: Path) -> Op:
    """``detvar repro <args> --json <out_path>`` with stdout captured."""
    argv = ["repro", *args, "--json", str(out_path)]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        if code != 0:
            return None, [f"exit code {code}"], None
        rendered = out_path.read_text()
        rep = json.loads(rendered)
        problems = []
        if args[0] == "example1" and rep["verdict"]["tag"] != "Empty":
            problems.append(f"maximally mixed state gave {rep['verdict']['tag']}")
        elif args[0] == "example2":
            t_cubed = catalog.parse_family_parameter(args[-1].split("=")[-1])
            problems = _witness_problems(rep, _render(catalog.cyclic_cubic_state(t_cubed)))
        elif args[0] == "example3" and not (
                rep["conclusion"] == "entangled"
                and rep["reduction"]["g_irreducible_over_gaussian_rationals"]):
            problems.append("4x6 reduction did not certify an irreducible cubic")
        return rendered, problems, None

    return Op("repro", " ".join(args), call, check)


def covariance_op(label: str, text: str, pair) -> Op:
    """V_A must transform covariantly under a true local unitary."""

    def call():
        state = statefile.parse_state(json.loads(text))
        return variety.verify_lu_covariance(state, pair, samples=COVARIANCE_SAMPLES,
                                            seed=SEED)

    def check(result):
        problems = [] if result.ok else [f"covariance failed: {result!r}"]
        return None, problems, None

    return Op("covariance", label, call, check)


# ---------------------------------------------------------------------------
# state generators that states.py does not have
# ---------------------------------------------------------------------------

def gaussian_rational_ensemble(m: int, n: int, rank: int, rng: random.Random,
                               label: str) -> states.BipartiteState:
    """Exact rank-`rank` ensemble of random Gaussian-rational rays.

    Generic such states are entangled once rank < m*n; small entries keep
    the exact arithmetic representative of hand-written state files.
    """
    raw = [rng.randint(1, 9) for _ in range(rank)]
    total = sum(raw)
    ensemble = []
    for w in raw:
        while True:
            vec = tuple(ExactComplex(rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(m * n))
            if any(not x.is_zero() for x in vec):
                break
        ensemble.append((Fraction(w, total), vec))
    return states.BipartiteState(m, n, ensemble=ensemble, label=label)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


# ---------------------------------------------------------------------------
# strata: each maker returns one operation on a fresh state
# ---------------------------------------------------------------------------

class Corpus:
    """What the makers of one corpus share: the repro output file and the
    cyclic family documents, rendered once per corpus."""

    def __init__(self, out_dir: Path):
        self.repro_out = out_dir / "repro.json"
        self._family = {}

    def family(self, t: str) -> str:
        if t not in self._family:
            self._family[t] = _render(
                catalog.cyclic_cubic_state(catalog.parse_family_parameter(t)))
        return self._family[t]


def separable(m: int, n: int, t: int):
    def make(rng, i, corpus):
        text = _render(states.random_separable(m, n, t, seed=_seed(rng)))
        return analyze_op(f"separable {m}x{n} t={t} #{i}", text, "silent")
    return make


def gaussian(kind: str, m: int, n: int, r: int, expect: Optional[str]):
    def make(rng, i, corpus):
        label = f"{kind} {m}x{n} r{r} #{i}"
        return analyze_op(label, _render(gaussian_rational_ensemble(m, n, r, rng, label)),
                          expect)
    return make


def cyclic(t: str, side: str):
    def make(rng, i, corpus):
        return analyze_op(f"cyclic t={t} side {side} #{i}", corpus.family(t), "witness", side)
    return make


def ppt(rng, i, corpus):
    return analyze_op(f"ppt 4x6 #{i}", _render(catalog.ppt_4x6_state()), None)


def repro(*args: str):
    def make(rng, i, corpus):
        return repro_op(list(args), corpus.repro_out)
    return make


def compare(rng, i, corpus):
    return compare_op(f"t^3=27 vs t^3=-27 #{i}", corpus.family("3w"), corpus.family("-3"))


def mixed(m: int, n: int, r: int, as_density: bool):
    """A random_mixed state, as its ensemble or as its density only."""
    expect = "silent" if m == 2 else None

    def make(rng, i, corpus):
        ens = states.random_mixed(m, n, r, seed=_seed(rng))
        if not as_density:
            ens.label = f"mixed {m}x{n} r{r} #{i}"
            return analyze_op(ens.label, _render(ens), expect)
        dens = states.BipartiteState(m, n, density=states.density_from_ensemble(ens),
                                     validate=False, label=f"mixed-density {m}x{n} r{r} #{i}")
        return analyze_op(dens.label, _render(dens), expect)
    return make


def covariance(m: int, n: int, r: int):
    def make(rng, i, corpus):
        s = states.random_mixed(m, n, r, seed=_seed(rng))
        pair = states.random_local_unitary(m, n, seed=_seed(rng))
        return covariance_op(f"covariance {m}x{n} r{r} #{i}", _render(s), pair)
    return make


# ---------------------------------------------------------------------------
# workloads: (operations in a RUN_SECONDS run, maker)
# ---------------------------------------------------------------------------

# The counts are sized for RUN_SECONDS of CPU time on one thread of a shared
# 2-core Xeon VM (about 25 s there).  Latencies of different strata overlap,
# so the counts also place the median and the tail (the 11th largest
# latency) inside one large stratum each, away from a stratum boundary:
# otherwise the seed decides which stratum they fall in.
RUN_SECONDS = 30

SILENT_SWEEP = [
    # separable: square t = n cases (LinearUnion for m <= 3) and t past n,
    # where the sampler exhausts its budget on a finite or empty variety
    (15, separable(2, 2, 2)), (1, separable(2, 2, 3)), (1, separable(2, 3, 3)),
    (1, separable(2, 4, 4)), (1, separable(3, 3, 3)), (1, separable(3, 3, 4)),
    (1, separable(3, 3, 5)), (1, separable(3, 4, 4)),
    (14, separable(3, 4, 5)),   # the tail stratum; Newton does most of its work
    (1, separable(4, 4, 4)), (1, separable(4, 4, 6)),
    # m = 2: V_A lies in CP^1, so it is linear and the criterion is vacuous
    (2, gaussian("two-row", 2, 2, 2, "silent")), (1, gaussian("two-row", 2, 2, 3, "silent")),
    # 3x3 rank 4: V_A is finite, hence linear; the median stratum
    (20, gaussian("finite-V", 3, 3, 4, None)),
]

FAMILY_T = ["2", "3w", "-3"]  # t; the state depends on t^3 = 8, 27, -27

EXACT_WITNESS = [
    # the median stratum: family analyses (side B also rebuilds the swapped
    # state in the Hermitian oracle) and `repro example2`, about equally fast
    *[(2, cyclic(t, side)) for t in FAMILY_T for side in "AB"],
    *[(2, repro("example2", f"--t={t}")) for t in FAMILY_T],
    (4, repro("example1")), (1, repro("example3")), (8, compare),
    # Gaussian-rational entangled ensembles; 3x4 r4 is the tail stratum
    (2, gaussian("gaussian", 3, 3, 3, None)), (8, gaussian("gaussian", 3, 4, 4, None)),
    (3, gaussian("gaussian", 4, 4, 4, None)), (3, gaussian("gaussian", 4, 4, 5, None)),
    (1, ppt),
]

APPROX_SHAPES = [(3, 3, 3), (3, 4, 4), (4, 4, 4), (4, 4, 5), (2, 3, 3), (3, 4, 5)]

# 4x4 r5 as densities is the tail stratum; as ensembles, a third as many,
# since their slowest land among it.  3x4 r4 ensembles are the median
# stratum, centred by the extra 3x3 covariance checks.
APPROX_COUNTS = {(4, 4, 5, False): 8, (4, 4, 5, True): 26}

APPROX_WITNESS = [
    *[(APPROX_COUNTS.get((m, n, r, as_density), 22), mixed(m, n, r, as_density))
      for m, n, r in APPROX_SHAPES for as_density in (False, True)],
    (34, covariance(3, 3, 3)), (22, covariance(3, 4, 4)),
]

WORKLOADS = {
    "silent_sweep": SILENT_SWEEP,
    "exact_witness": EXACT_WITNESS,
    "approx_witness": APPROX_WITNESS,
}


def build_corpus(name: str, seed: int, seconds: float, out_dir: Path) -> List[Op]:
    """The operations of one run of `seconds`, in a seeded order; every
    stratum keeps at least one operation."""
    rng = random.Random(f"{name}:{seed}")
    corpus = Corpus(out_dir)
    ops = [make(rng, i, corpus) for count, make in WORKLOADS[name]
           for i in range(max(1, round(count * seconds / RUN_SECONDS)))]
    rng.shuffle(ops)
    return ops

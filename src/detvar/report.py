"""Machine-readable analysis reports (schema "detvar/1").

Reports are deterministic given (input, seed, tol) except for the
"runtime_seconds" field; byte-identity tests should strip it.  Every exact
claim (factor lists, moduli fractions, divisibility) is serialized in a
form that can be re-verified from the report alone, and witness data
(point, tangent form, probe, residual) is complete enough to re-evaluate
the Hermitian determinant independently.
"""

from __future__ import annotations

import hashlib
import time
from typing import Optional

from .catalog import CHART_NAMES, ChartReduction
from .errors import DimensionMismatch, NotHesseShape
from .moduli import HesseCubic, hesse_reduce, moduli_value, moduli_verdict
from .multipoly import LinearForm
from .scalars import DEFAULT_TOL, Tolerance
from .statefile import json_text, render_scalar
from .states import BipartiteState, entropy_and_spectra, ppt_check
from .variety import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    HYPERPLANE_RADIUS,
    Variety,
    VarietyVerdict,
    linearity_decide,
    variety_of_state,
)

SCHEMA = "detvar/1"


def _complex_pair(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def _form_to_json(f: LinearForm):
    return {
        "coefficients": [render_scalar(c) for c in f.coefficients],
        "constant": render_scalar(f.constant),
    }


def verdict_to_json(verdict: VarietyVerdict) -> dict:
    out = {"tag": verdict.tag, "conclusion": verdict.conclusion}
    if verdict.reason:
        out["reason"] = verdict.reason
    if verdict.certificate is not None:
        cert = verdict.certificate
        out["certificate"] = {
            "kind": cert.kind,
            "hyperplane": None if cert.hyperplane is None
            else [render_scalar(x) for x in cert.hyperplane],
            "prime": cert.prime,
            "degree": cert.degree,
        }
    if verdict.forms is not None:
        out["linear_forms"] = [_form_to_json(f) for f in verdict.forms]
    if verdict.factor_list is not None:
        fl = verdict.factor_list
        out["factorization"] = {
            "unit": render_scalar(fl.unit),
            "linear_factors": [_form_to_json(f) for f in fl.linear_factors],
            "residual": None if fl.residual is None else fl.residual.render(),
        }
    if verdict.point is not None:
        out["witness"] = {
            "point": [_complex_pair(z) for z in verdict.point],
            "tangent_form": [_complex_pair(c) for c in verdict.tangent.coefficients],
            "probe": [_complex_pair(z) for z in verdict.probe],
            "hermitian_residual": verdict.residual,
        }
    return out


def _hesse_cubic(v: Variety) -> Optional[HesseCubic]:
    """The Hesse form of V when it is cut out by one exact generator of
    Hesse shape; None otherwise.  The generator must be a cubic, so only an
    exact V with n = 3 and one nonzero minor has its minors read here.

    A V split off its columns (Variety.split) is None with nothing
    expanded, as its det N is a product of three Q(i) linear forms, and no
    such product has Hesse shape.  Rescaled by cube roots of a, b, c, a
    cubic a x^3 + b y^3 + c z^3 + d xyz with abc != 0 is a member of the
    Hesse pencil X^3 + Y^3 + Z^3 - lambda XYZ, which is smooth, hence
    irreducible, unless lambda^3 = 27.  There it is the triangle of lines
    prod_j (alpha x + w^(j+k) beta y + w^(2j) gamma z), w a primitive cube
    root of unity: scaled to the same x coefficient, two of its lines
    differ in their y coefficients by a factor w or w^2.  Factors are
    unique up to scalars, so three Q(i) linear factors would put w in
    Q(i), which holds no root of x^2 + x + 1."""
    if v.mode != "exact" or v.n != 3 or v.essential_count != 1 or v.split is not None:
        return None
    try:
        return hesse_reduce(v.essential_generators[0])
    except NotHesseShape:
        return None


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def analyze_state(s: BipartiteState, *, side: str = "A", tol: Tolerance = DEFAULT_TOL,
                  samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                  input_digest: str = "unhashed") -> dict:
    """Full pipeline: pencil -> generators -> linearity verdict -> PPT ->
    spectra -> report dict."""
    start = time.perf_counter()
    work = s if s.ensemble is not None else s.spectral(tol)
    v = variety_of_state(work, side)
    verdict = linearity_decide(v, seed=seed, samples=samples, tol=tol)
    spectra = entropy_and_spectra(work, tol)
    report = {
        "schema": SCHEMA,
        "input_digest": input_digest,
        "label": s.label,
        "m": s.m,
        "n": s.n,
        "mode": v.mode,
        "side": side,
        "ppt": ppt_check(work, tol),
        "generators": {
            "count": v.generator_count,
            "essential": v.essential_count,
            "degrees": [v.n] if v.essential_count else [],
        },
        "verdict": verdict_to_json(verdict),
        "conclusion": verdict.conclusion,
        "spectra": {
            "global": spectra.spectrum,
            "reduced_a": spectra.reduced_a_spectrum,
            "reduced_b": spectra.reduced_b_spectrum,
        },
        "entropies": {
            "global": spectra.entropy,
            "reduced_a": spectra.entropy_reduced_a,
            "reduced_b": spectra.entropy_reduced_b,
        },
        "tolerances": {
            "abs_eps": tol.abs_eps,
            "rel_eps": tol.rel_eps,
            "eig_cutoff": tol.eig_cutoff,
        },
        "seed": seed,
        "samples": samples,
        "probe_radius": HYPERPLANE_RADIUS,
    }
    hc = _hesse_cubic(v)
    if hc is not None:
        mv = moduli_value(hc)
        report["moduli"] = {
            "lambda_cubed": hc.lambda_cubed.render(),
            "provenance": hc.provenance,
            "moduli_value": mv.render(),
            "degenerate": mv.degenerate,
        }
    report["runtime_seconds"] = time.perf_counter() - start
    return report


def compare_states(a: BipartiteState, b: BipartiteState, *,
                   tol: Tolerance = DEFAULT_TOL) -> dict:
    """Spectra/entropy agreement plus the moduli comparison when both
    varieties are Hesse cubics."""
    start = time.perf_counter()
    if (a.m, a.n) != (b.m, b.n):
        raise DimensionMismatch(f"({a.m},{a.n}) vs ({b.m},{b.n})")
    sa = entropy_and_spectra(a, tol)
    sb = entropy_and_spectra(b, tol)

    def dev(xs, ys):
        return max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)

    spec_dev = {
        "global": dev(sa.spectrum, sb.spectrum),
        "reduced_a": dev(sa.reduced_a_spectrum, sb.reduced_a_spectrum),
        "reduced_b": dev(sa.reduced_b_spectrum, sb.reduced_b_spectrum),
    }
    ent_dev = {
        "global": abs(sa.entropy - sb.entropy),
        "reduced_a": abs(sa.entropy_reduced_a - sb.entropy_reduced_a),
        "reduced_b": abs(sa.entropy_reduced_b - sb.entropy_reduced_b),
    }
    threshold = 10 * tol.abs_eps
    spectra_equal = all(d <= threshold for d in spec_dev.values())
    report = {
        "schema": SCHEMA,
        "m": a.m,
        "n": a.n,
        "labels": [a.label, b.label],
        "spectra_deviation": spec_dev,
        "entropy_deviation": ent_dev,
        "spectra_equal": spectra_equal,
    }

    ha, hb = (_hesse_cubic(variety_of_state(st)) if st.exact_ensemble else None
              for st in (a, b))
    if ha is not None and hb is not None:
        ma, mb = moduli_value(ha), moduli_value(hb)
        report["moduli"] = {
            "lambda_cubed": [ha.lambda_cubed.render(), hb.lambda_cubed.render()],
            "values": [ma.render(), mb.render()],
            "verdict": moduli_verdict(ma, mb),
        }
    report["runtime_seconds"] = time.perf_counter() - start
    return report


def chart_reduction_report(cr: ChartReduction) -> dict:
    """Every intermediate of the 4x6 symbolic reduction, serialized.

    The conclusion field follows the printed argument: the carved plane
    cubic is certified irreducible over Q(i), hence nonlinear as a curve.
    The caveats record what the recomputation additionally established,
    including that the carving plane itself lies inside the variety.
    """
    names = CHART_NAMES
    caveats = []
    if not cr.quotient_matches_printed:
        caveats.append({
            "kind": "printed-quadratic-discrepancy",
            "detail": "recomputed second factor of f2 differs from the printed "
                      "one; the recomputation is authoritative (divisibility "
                      "was verified exactly)",
            "computed_minus_printed": cr.quotient_discrepancy.render(names),
        })
    caveats.append({
        "kind": "carving-plane-inside-variety",
        "detail": "the plane r4' = r2' + r3' (homogeneous form 2*r1 - r2 + r4) "
                  "divides every 6x6 minor: two pencil rows coincide on it, so "
                  "the whole plane lies in the variety and the carved cubic "
                  "curve is not an irreducible component of it; the blind "
                  "witness search therefore reports inconclusive on this state",
    })
    return {
        "schema": SCHEMA,
        "chart": {
            "coordinates": list(names),
            "substitution": "r1 = 1, r2' = r2, r3' = r3, r4' = r4 + r3 + 2",
            "column_operations": ["col4 += col7", "col1 += r2' * col7"],
        },
        "pencil_matches_printed": cr.pencil_matches_printed,
        "pencil": [[p.render() for p in row] for row in cr.pencil],
        "chart_pencil": [[p.render(names) for p in row] for row in cr.chart_pencil],
        "f1": cr.f1.render(names),
        "f2": cr.f2.render(names),
        "linear_factor": cr.linear_factor.render(names),
        "f2_quotient": cr.f2_quotient.render(names),
        "printed_quotient": cr.printed_quotient.render(names),
        "quotient_matches_printed": cr.quotient_matches_printed,
        "g": cr.g.render(names),
        "printed_g": cr.printed.render(names),
        "g_sign": cr.g_sign,
        "g_linear_factors": [_form_to_json(f) for f in cr.g_factors],
        "g_irreducible_over_gaussian_rationals": cr.g_irreducible,
        "component_nonlinear": cr.component_nonlinear,
        "conclusion": "entangled" if cr.component_nonlinear else "inconclusive",
        "caveats": caveats,
    }


def render_json(report: dict) -> str:
    """The report as json.dumps(report, indent=2, sort_keys=True) writes
    it, then a newline (statefile.json_text)."""
    return json_text(report)

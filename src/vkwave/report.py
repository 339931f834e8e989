"""Scenario execution and report serialization.

run_scenario executes every check of a validated scenario in listed order
(a failing check never aborts the rest) and collects one CheckResult per
law-resolved check.  Residuals are scaled: each raw residual is divided by
the larger of 1 and the natural magnitude of the terms entering it, so
tolerances compare like with like across parameter regimes.  A check
kind's runner only computes its scaled residuals; _run_check alone picks
the tolerance, names the rows and gives their status.

emit_report serializes a Report to json, csv, or a fixed-width human
table.  Emitted bytes are deterministic for a given scenario and seed;
the wall-clock duration is kept on the Report object only and never
serialized.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .balance import _BATCH_POINTS, _balance_reports
from .conservation import _divergence_estimates
from .errors import ValidationError, VkwaveError
from .jumps import (
    _balance_jump_terms,
    _closed_form_residuals,
    _dynamic_residuals,
    _dynamic_scales,
    _front_jets,
    amplitude_relation_residuals,
    amplitude_relation_scales,
    extract_jumps,
)
from .scenario import Scenario, build_field, sample_front_point, scenario_to_dict
from .solutions import _pde_terms
from .wavefront import _front_distance
from .version import __version__


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one executed check (one row in the report)."""

    name: str
    kind: str
    status: str  # "pass" | "fail" | "error"
    residual: float | None
    tolerance: float | None
    detail: str = ""


@dataclass(frozen=True)
class Report:
    """All results of one scenario run."""

    scenario: dict
    results: tuple[CheckResult, ...]
    version: str
    duration_seconds: float

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == "fail")

    @property
    def errors(self) -> int:
        return sum(1 for r in self.results if r.status == "error")

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.failed else 0


def _worst(scaled) -> float:
    """The largest scaled residual, 0.0 for none; NaN if any is NaN, which
    the builtin max would drop."""
    return float(np.max(scaled, initial=0.0))


def _run_pde_residual(scenario: Scenario, field, check, rng):
    if check.points is not None:
        pts = np.array(check.points, dtype=np.float64)
    else:
        n = check.samples if check.samples is not None else 20
        pts = rng.uniform(-1.0, 1.0, (n, 3))
    # batched so that at most _BATCH_POINTS jets are held at once; np.max
    # keeps a NaN from any batch
    maxima = []
    for start in range(0, len(pts), _BATCH_POINTS):
        jet = field.jet(pts[start : start + _BATCH_POINTS])
        r1, r2, s1, s2 = _pde_terms(jet, field.params)
        maxima.append(
            (
                np.max(np.abs(r1) / np.maximum(1.0, s1)),
                np.max(np.abs(r2) / np.maximum(1.0, s2)),
            )
        )
        del jet  # free this batch's jets before the next batch is filled
    max1, max2 = np.max(maxima, axis=0)
    yield None, max(float(max1), float(max2)), f"max over {len(pts)} points"


def _sample_off_front(field, rng, n: int, h: float) -> np.ndarray:
    """Uniform points in [-1,1]^3 kept clear of the front by the FD margin."""
    front = getattr(field, "front", None)
    margin = max(0.05, 8.0 * h)
    pts = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 200 * n + 100:
            raise ValidationError(
                "could not sample points clear of the front; the front may "
                "nearly fill the sampling box"
            )
        cand = rng.uniform(-1.0, 1.0, 3)
        if front is not None and _front_distance(front, cand) <= margin:
            continue
        pts.append(cand)
    return np.array(pts)


def _run_conservation(scenario: Scenario, field, check, rng):
    h = check.step if check.step is not None else 1e-3
    if check.points is not None:
        pts = np.array(check.points, dtype=np.float64)
    else:
        pts = _sample_off_front(field, rng, check.samples if check.samples else 3, h)
    per_point = [_divergence_estimates(field, check.laws, pt, h=h) for pt in pts]
    for i, name in enumerate(check.laws):
        res = _worst([abs(ests[i].residual) / np.maximum(1.0, ests[i].scale) for ests in per_point])
        yield name, res, f"h={h:g}, {pts.shape[0]} points"


def _front_batch(field, check, rng):
    """Jump data at the check's front points, n seeded draws per time, with
    one jet batch per side."""
    times = check.times if check.times is not None else (0.0,)
    n = check.samples if check.samples is not None else 3
    state = rng.bit_generator.state
    try:
        points = [
            sample_front_point(field.front, t, float(draw))
            for t in times
            for draw in rng.uniform(-1.0, 1.0, n)
        ]
        return _front_jets(field, np.array(points))
    except VkwaveError:
        # Replay the same draws one point at a time, so that the error
        # raised, and the draws taken before it, are those of the first
        # failing point: later checks then draw what they would have drawn.
        rng.bit_generator.state = state
        for t in times:
            for _ in range(n):
                point = sample_front_point(field.front, t, float(rng.uniform(-1.0, 1.0)))
                extract_jumps(field, point)
        raise


def _run_dynamic_jumps(scenario: Scenario, field, check, rng):
    fj = _front_batch(field, check, rng)
    r_w, r_phi = _dynamic_residuals(fj, field.params)
    s_w, s_phi = _dynamic_scales(fj, field.params)
    worst = _worst(
        np.concatenate(
            (np.abs(r_w) / np.maximum(1.0, s_w), np.abs(r_phi) / np.maximum(1.0, s_phi))
        )
    )
    yield None, worst, f"{len(fj.point)} front points"


def _run_balance_jump(scenario: Scenario, field, check, rng):
    fj = _front_batch(field, check, rng)
    for name in check.laws:
        r, s = _balance_jump_terms(name, fj, field.params)
        yield name, _worst(np.abs(r) / np.maximum(1.0, s)), f"{len(fj.point)} front points"


def _run_closed_form_jump(scenario: Scenario, field, check, rng):
    fj = _front_batch(field, check, rng)
    for name in check.laws:
        try:
            r = _closed_form_residuals(name, fj, field.params)
            _, s = _balance_jump_terms(name, fj, field.params)
            residual = _worst(np.abs(r) / np.maximum(1.0, s))
        except Exception as exc:
            residual = exc  # this law's row errors; the other laws still run
        yield name, residual, f"{len(fj.point)} front points"


def _run_wave_relations(scenario: Scenario, field, check, rng):
    r1, r2 = amplitude_relation_residuals(field)
    s1, s2 = amplitude_relation_scales(field)
    scaled = max(abs(r1) / max(1.0, s1), abs(r2) / max(1.0, s2))
    yield None, scaled, f"residuals ({r1:.3e}, {r2:.3e})"


def _run_balance(scenario: Scenario, field, check, rng):
    region = check.region if check.region is not None else scenario.region
    times = check.times if check.times is not None else (0.0,)
    per_time = _balance_reports(field, check.laws, region, times, check.dt)
    for i, name in enumerate(check.laws):
        reps = [reports[i] for reports in per_time]
        res = _worst(
            [
                abs(rep.residual)
                / np.max([1.0, abs(rep.time_derivative), abs(rep.flux_integral)])
                for rep in reps
            ]
        )
        err = _worst([rep.quadrature_error for rep in reps])
        yield name, res, f"quadrature error {err:.2e}"


#: Each check kind's runner, and the class of scenario tolerance its rows
#: take when the check sets none.  A runner yields one (law name or None,
#: scaled residual, detail) per row; a law whose residual could not be
#: computed gives the exception in place of its residual.
_KINDS = {
    "pde_residual": (_run_pde_residual, "analytic"),
    "conservation": (_run_conservation, "finite_difference"),
    "dynamic_jumps": (_run_dynamic_jumps, "analytic"),
    "balance_jump": (_run_balance_jump, "analytic"),
    "closed_form_jump": (_run_closed_form_jump, "analytic"),
    "wave_relations": (_run_wave_relations, "analytic"),
    "balance": (_run_balance, "quadrature"),
}


def _error_row(name: str, kind: str, tolerance: float | None, exc: Exception) -> CheckResult:
    return CheckResult(
        name=name,
        kind=kind,
        status="error",
        residual=None,
        tolerance=tolerance,
        detail=f"{type(exc).__name__}: {exc}",
    )


def _run_check(scenario: Scenario, field, check, rng) -> list[CheckResult]:
    """The rows of one check; a check whose runner raises gives one error
    row without a tolerance."""
    runner, tolerance_class = _KINDS[check.kind]
    try:
        rows = list(runner(scenario, field, check, rng))
    except Exception as exc:
        return [_error_row(check.kind, check.kind, None, exc)]
    tol = check.tolerance
    if tol is None:
        tol = getattr(scenario.tolerances, tolerance_class)
    results = []
    for law_name, residual, detail in rows:
        name = check.kind if law_name is None else f"{check.kind}[{law_name}]"
        if isinstance(residual, Exception):
            results.append(_error_row(name, check.kind, tol, residual))
        else:
            # a NaN residual fails
            status = "pass" if residual < tol else "fail"
            results.append(CheckResult(name, check.kind, status, residual, tol, detail))
    return results


def run_scenario(scenario: Scenario) -> Report:
    """Build the scenario's field and execute its checks in order."""
    start = time.perf_counter()
    field = build_field(scenario)
    rng = np.random.default_rng(scenario.seed)
    results: list[CheckResult] = []
    for check in scenario.checks:
        results.extend(_run_check(scenario, field, check, rng))
    return Report(
        scenario=scenario_to_dict(scenario),
        results=tuple(results),
        version=__version__,
        duration_seconds=time.perf_counter() - start,
    )


def _emit_value(v):
    if v is None:
        return None
    return v if math.isfinite(v) else repr(v)


def _emit_json(report: Report) -> bytes:
    payload = {
        "version": report.version,
        "scenario": report.scenario,
        "checks": [
            {
                "name": r.name,
                "kind": r.kind,
                "status": r.status,
                "residual": _emit_value(r.residual),
                "tolerance": _emit_value(r.tolerance),
                "detail": r.detail,
            }
            for r in report.results
        ],
        "summary": {
            "total": len(report.results),
            "passed": report.passed,
            "failed": report.failed,
            "errors": report.errors,
        },
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _emit_csv(report: Report) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "kind", "status", "residual", "tolerance", "detail"])
    for r in report.results:
        writer.writerow(
            [
                r.name,
                r.kind,
                r.status,
                "" if r.residual is None else repr(r.residual),
                "" if r.tolerance is None else repr(r.tolerance),
                r.detail,
            ]
        )
    return buf.getvalue().encode("utf-8")


def _emit_human(report: Report) -> bytes:
    name_w = max([len(r.name) for r in report.results], default=10)
    name_w = min(max(name_w, 12), 44)
    header = f"{'name':<{name_w}}  {'status':<6}  {'residual':>12}  {'tolerance':>10}  detail"
    lines = [header, "-" * len(header)]
    for r in report.results:
        res = "" if r.residual is None else f"{r.residual:12.4e}"
        tol = "" if r.tolerance is None else f"{r.tolerance:10.1e}"
        lines.append(
            f"{r.name[:name_w]:<{name_w}}  {r.status:<6}  {res:>12}  {tol:>10}  {r.detail}"
        )
    lines.append(
        f"{len(report.results)} checks: {report.passed} passed, "
        f"{report.failed} failed, {report.errors} errors"
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_report(report: Report, fmt: str = "json") -> bytes:
    """Serialize a report; bytes are stable across runs with equal inputs."""
    if fmt == "json":
        return _emit_json(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "human":
        return _emit_human(report)
    raise ValidationError(f"unknown report format {fmt!r}; use json, csv, or human")

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
from functools import partial

import numpy as np

# The benchmark tracer (perfbench/tracing.py) can first load this module while
# it installs its wrappers, so the public functions it wraps are read through
# their modules at call time, never bound here by `from ... import`.
from . import jumps, solutions
from . import scenario as scenario_module
from .balance import _balance_terms
from .conservation import _exact_divergence
from .errors import ValidationError, _first_failure
from .jumps import _balance_jump_terms, _closed_form_residuals, _dynamic_terms, _front_jets
from .scenario import Scenario, sample_front_point, scenario_to_dict
from .solutions import (
    _NO_ZERO_SLOTS, _PDE_SLOTS, Side, _batch_size, _jet_batches, _pde_rows, _pde_slots,
)
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


def _scaled(residual, scale):
    """|residual| / max(1, scale): the scaled residual of a pointwise row."""
    return np.abs(residual) / np.maximum(1.0, scale)


def _batch_maxima(batches, keys, scaled, p) -> list:
    """Each key's largest scaled residual over ``batches``: the _worst of
    the per-batch maxima of scaled(key, batch, p), so a NaN in any batch
    is kept.  A key whose scaled raises gives its first exception instead
    and is not evaluated again; an error from ``batches`` propagates."""
    found = [[] for _ in keys]
    for batch in batches:
        for i, key in enumerate(keys):
            if isinstance(found[i], list):
                try:
                    found[i].append(np.max(scaled(key, batch, p)))
                except Exception as exc:
                    found[i] = exc  # this law's row errors; the other laws still run
        del batch  # free this batch's jets before the next batch is filled
    return [f if isinstance(f, Exception) else _worst(f) for f in found]


def _pde_scaled(_, batch, p, zero):
    # batch is a (rows, jet) pair of _pde_batches, and zero the field's
    # _zero_slots; each equation's _scaled, then their maximum, formed in
    # the rows _pde_rows returns
    r, s = _pde_rows(batch[1], p, zero)
    np.divide(np.abs(r, out=r), np.maximum(1.0, s, out=s), out=r)
    return np.maximum(r[0], r[1], out=r[0])


def _pde_batches(field, n: int, take, zero):
    """The (rows, jet) pairs a pde_residual check reads at n points, as
    _jet_batches yields them: batches of _batch_size(_PDE_SLOTS) points,
    whatever they fill.  Each batch's points are taken by
    take(start, stop) just before its jets are filled, so that one batch
    is held at a time whatever n is; on an error the rest are taken and
    discarded, so that a take that draws from a generator leaves it where
    one draw of all n points would.

    Only the slots _pde_slots gives for the field's zero slots ``zero``
    are filled, every batch into the front of one block allocated here:
    a new block for each batch was handed back to the system when freed
    and faulted in again for the next.  The block has room for all seven
    _PDE_SLOTS, though only the part a batch fills is ever touched:
    glibc hands the free top of its heap back to the system once it
    exceeds twice the largest block it has mapped and then freed, and a
    block of the filled slots alone left that below what a batch's
    temporaries free, which were then faulted in again on every batch.
    The next batch overwrites the jets of the one before, so a caller
    reads each batch before it asks for the next and keeps nothing of
    it."""
    slots, size = _pde_slots(zero), _batch_size(_PDE_SLOTS)
    block = np.empty(2 * len(_PDE_SLOTS) * min(size, n))
    for start in range(0, n, size):
        pts = take(start, min(start + size, n))
        try:
            jet = field.jet(pts, Side.AUTO, slots, _block=block)
        except Exception:
            for rest in range(start + size, n, size):
                take(rest, min(rest + size, n))
            raise
        yield slice(start, start + len(pts)), jet
        del pts, jet  # hold nothing of this batch while the next is taken


def _run_pde_residual(scenario: Scenario, field, check, rng):
    # the terms of the slots the field makes identically zero are left
    # out, and only the slots the other terms read are filled: their sums
    # are the same numbers but for the sign of a zero, which _scaled drops
    zero = getattr(field, "_zero_slots", _NO_ZERO_SLOTS)
    if check.points is not None:
        pts = np.array(check.points, dtype=np.float64)
        n, take = len(pts), lambda start, stop: pts[start:stop]
    else:
        n = check.samples if check.samples is not None else 20
        take = lambda start, stop: rng.uniform(-1.0, 1.0, (stop - start, 3))
    batches = _pde_batches(field, n, take, zero)
    (worst,) = _batch_maxima(batches, (None,), partial(_pde_scaled, zero=zero), field.params)
    yield None, worst, f"max over {n} points"


def _sample_off_front(field, rng, n: int) -> np.ndarray:
    """Uniform points in [-1,1]^3 at least 0.05 from the front: the first
    n clear ones of at most 200 n + 100 candidates, drawn in blocks and
    tested a block at a time.  The generator is left where drawing one
    candidate at a time would leave it."""
    front = getattr(field, "front", None)
    limit = 200 * n + 100
    blocks, found, drawn = [], 0, 0
    while found < n and drawn < limit:
        state = rng.bit_generator.state
        block = rng.uniform(-1.0, 1.0, (min(solutions._BATCH_POINTS, limit - drawn), 3))
        drawn += len(block)
        # a candidate at a NaN distance is kept, as it is not near the front
        clear = np.flatnonzero(~(_front_distance(front, block) <= 0.05))[: n - found]
        blocks.append(block[clear])
        found += len(clear)
    if found < n:
        raise ValidationError(
            "could not sample points clear of the front; the front may "
            "nearly fill the sampling box"
        )
    # leave the generator after the n-th clear candidate: redraw the last
    # block up to it
    rng.bit_generator.state = state
    rng.uniform(-1.0, 1.0, (clear[-1] + 1, 3))
    return np.concatenate(blocks)


def _conservation_scaled(name, batch, p):
    # batch is a (rows, jet) pair of _jet_batches
    est = _exact_divergence(name, batch[1], p)
    return _scaled(est.residual, est.scale)


def _run_conservation(scenario: Scenario, field, check, rng):
    if check.points is not None:
        pts = np.array(check.points, dtype=np.float64)
    else:
        pts = _sample_off_front(field, rng, check.samples if check.samples else 3)
    maxima = _batch_maxima(_jet_batches(field, pts), check.laws, _conservation_scaled, field.params)
    for name, worst in zip(check.laws, maxima):
        yield name, worst, f"exact divergence, {len(pts)} points"


def _dynamic_scaled(_, fj, p):
    r_w, r_phi, s_w, s_phi = _dynamic_terms(fj, p)
    return np.maximum(_scaled(r_w, s_w), _scaled(r_phi, s_phi))


def _balance_jump_scaled(name, fj, p):
    return _scaled(*_balance_jump_terms(name, fj, p))


def _closed_form_scaled(name, fj, p):
    return _scaled(_closed_form_residuals(name, fj, p), _balance_jump_terms(name, fj, p)[1])


def _run_jump_check(scaled, scenario: Scenario, field, check, rng):
    """A jump check's rows: each law's (or the check's) _batch_maxima of
    ``scaled`` over the jump data at its front points, n seeded draws per
    time, a jet batch at a time.  An error is that of the first failing
    draw, taken as if each point were drawn on its own, so that later
    checks draw what they would have drawn."""
    times = check.times if check.times is not None else (0.0,)
    n = check.samples if check.samples is not None else 3
    keys = check.laws if check.laws is not None else (None,)
    state = rng.bit_generator.state

    def batch():
        points = np.concatenate(
            [sample_front_point(field.front, t, rng.uniform(-1.0, 1.0, n)) for t in times]
        )
        return _batch_maxima(_front_jets(field, points), keys, scaled, field.params)

    def redrawn():
        # on an error only: the batch's draws again, one at a time
        rng.bit_generator.state = state
        for t in times:
            for _ in range(n):
                yield sample_front_point(field.front, t, float(rng.uniform(-1.0, 1.0)))

    maxima = _first_failure(batch, lambda point: list(_front_jets(field, point[None])), redrawn())
    for key, worst in zip(keys, maxima):
        yield key, worst, f"{len(times) * n} front points"


def _run_wave_relations(scenario: Scenario, field, check, rng):
    r1, r2 = jumps.amplitude_relation_residuals(field)
    s1, s2 = jumps.amplitude_relation_scales(field)
    scaled = max(abs(r1) / max(1.0, s1), abs(r2) / max(1.0, s2))
    yield None, scaled, f"residuals ({r1:.3e}, {r2:.3e})"


def _run_balance(scenario: Scenario, field, check, rng):
    region = check.region if check.region is not None else scenario.region
    times = check.times if check.times is not None else (0.0,)
    deriv, flux, residual, error = _balance_terms(field, check.laws, region, times, check.dt)
    scaled = _scaled(residual, np.maximum(np.abs(deriv), np.abs(flux)))
    # each law's largest over its times, 0.0 for none and NaN if any is
    # NaN, as _worst gives it
    worst = np.max(scaled, axis=1, initial=0.0).tolist()
    quad_errors = np.max(error, axis=1, initial=0.0).tolist()
    for name, res, err in zip(check.laws, worst, quad_errors):
        yield name, res, f"quadrature error {err:.2e}"


#: Each check kind's runner, and the class of scenario tolerance its rows
#: take when the check sets none.  A runner yields one (law name or None,
#: scaled residual, detail) per row; a law whose residual could not be
#: computed gives the exception in place of its residual.
_KINDS = {
    "pde_residual": (_run_pde_residual, "analytic"),
    "conservation": (_run_conservation, "analytic"),
    "dynamic_jumps": (partial(_run_jump_check, _dynamic_scaled), "analytic"),
    "balance_jump": (partial(_run_jump_check, _balance_jump_scaled), "analytic"),
    "closed_form_jump": (partial(_run_jump_check, _closed_form_scaled), "analytic"),
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
    field = scenario_module.build_field(scenario)
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

"""The benchmark's three workloads.

Each workload makes its inputs from a seed (``setup``), executes once
(``execute``) and knows the verdict every row must reach (``expected``)
and how far its checked values sit from their closed-form oracles
(``oracle_gap``).

vkwave is driven only through public entry points, looked up on the
package at call time, so that the wrappers of ``trace.py`` see the calls.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

import vkwave

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

#: Laws whose jump conditions the example acceleration wave violates; their
#: balance and balance_jump rows fail genuinely.
FAILING_LAWS = ("angular_momentum_x1", "galilean_moment_x1", "phi_linear_x1")

#: A front-jump oracle J counts as nonzero when it exceeds this share of the
#: one-sided magnitude of its integrand (the analytic tolerance).
NONZERO_ORACLE = 1e-9

#: Quadrature tolerance of a balance row; the scenario default.
BALANCE_TOLERANCE = 1e-5


@dataclasses.dataclass(frozen=True)
class Inputs:
    """What one workload execution needs, built once per benchmark run."""

    seed: int
    field: object
    region: vkwave.Region | None
    scenario: vkwave.Scenario | None = None


@dataclasses.dataclass(frozen=True)
class Execution:
    """Outcome of one execution: verdict rows and its deterministic bytes."""

    rows: tuple[tuple[str, str], ...]
    output: bytes
    balance: vkwave.BalanceReport | None = None


def _expected_status(law_name: str) -> str:
    return "fail" if law_name in FAILING_LAWS else "pass"


def _front_oracle(field, law_key, region, t) -> float | None:
    """Front-jump oracle J of a balance row, or None when J vanishes."""
    jump = vkwave.front_segment_jump_integral(field, law_key, region, t)
    scale = vkwave.front_segment_jump_integral(field, law_key, region, t, absolute=True)
    return None if abs(jump) <= NONZERO_ORACLE * max(1.0, scale) else jump


class ScenarioWorkload:
    """A scenario file run as ``load_scenario -> run_scenario -> emit_report``."""

    def __init__(self, name: str):
        self.name = name

    def setup(self, seed: int) -> Inputs:
        scenario = vkwave.load_scenario(SCENARIOS / f"{self.name}.yaml")
        scenario = dataclasses.replace(scenario, seed=seed)
        return Inputs(seed, vkwave.build_field(scenario), scenario.region, scenario)

    def execute(self, inputs: Inputs) -> Execution:
        report = vkwave.run_scenario(inputs.scenario)
        rows = tuple((r.name, r.status) for r in report.results)
        return Execution(rows, vkwave.emit_report(report, "json"))


class WaveBalance(ScenarioWorkload):
    """Fourteen-law regional balance across the straight front of the example wave."""

    def __init__(self):
        super().__init__("wave_balance")

    def expected(self) -> tuple[tuple[str, str], ...]:
        return tuple((f"balance[{law.name}]", _expected_status(law.name)) for law in vkwave.LAWS)

    def oracle_gap(self, inputs: Inputs, last: Execution) -> float:
        # The report keeps only scaled residuals, so the oracle rows are
        # evaluated again here, outside the timed executions.
        (check,) = inputs.scenario.checks
        gap = 0.0
        for law_key in check.laws:
            for t in check.times:
                jump = _front_oracle(inputs.field, law_key, inputs.region, t)
                if jump is not None:
                    rep = vkwave.balance_residual(inputs.field, law_key, inputs.region, t)
                    gap = max(gap, abs(rep.residual - jump) / abs(jump))
        return gap


class Pointwise(ScenarioWorkload):
    """Every pointwise check of the example wave; the only seeded draws."""

    #: Front points of the amplitude oracle: times, and draws per time.
    ORACLE_TIMES = (0.1, 0.3)
    ORACLE_DRAWS = 20

    def __init__(self):
        super().__init__("pointwise")

    def expected(self) -> tuple[tuple[str, str], ...]:
        rows = [("pde_residual", "pass")]
        rows += [(f"conservation[{law.name}]", "pass") for law in vkwave.LAWS]
        rows.append(("dynamic_jumps", "pass"))
        rows += [(f"balance_jump[{law.name}]", _expected_status(law.name)) for law in vkwave.LAWS]
        rows += [(f"closed_form_jump[{vkwave.law(k).name}]", "pass") for k in range(2, 7)]
        return tuple(rows)

    def oracle_gap(self, inputs: Inputs, last: Execution) -> float:
        """Jump amplitudes extracted on the front against the wave's closed forms."""
        wave = inputs.field
        rng = np.random.default_rng(inputs.seed)
        gap = 0.0
        for t in self.ORACLE_TIMES:
            for draw in rng.uniform(-1.0, 1.0, self.ORACLE_DRAWS):
                rec = vkwave.extract_jumps(wave, vkwave.sample_front_point(wave.front, t, draw))
                gap = max(
                    gap,
                    abs(rec.lambda_ - wave.lambda_amplitude) / abs(wave.lambda_amplitude),
                    abs(rec.mu - wave.mu_amplitude) / abs(wave.mu_amplitude),
                )
        return gap


class DiscBalance:
    """Law-1 balance across a growing circular front (curved-front quadrature).

    w = x3 inside a disc of radius 0.35 growing at 0.25, and 0 outside, on
    a generic plate.  The balance fails genuinely (the field jumps across
    the front); its residual should equal the front line integral
    rho * 2 pi r v, and today's subdivision quadrature misses that by 39%.
    """

    name = "disc_balance"
    LAW = vkwave.law(1)
    TIME = 0.0

    def setup(self, seed: int) -> Inputs:
        p = vkwave.make_plate_params(2.1, 0.27, 0.31, 1.7)
        front = vkwave.CircleFront(0.1, -0.05, 0.35, radial_speed=0.25)
        inside = vkwave.polynomial_field({(0, 0, 1): 1.0}, None, p)
        outside = vkwave.polynomial_field(None, None, p)
        field = vkwave.PiecewiseField(outside, inside, front, p)
        return Inputs(seed, field, vkwave.Region(-0.7, 0.9, -0.8, 0.7))

    def execute(self, inputs: Inputs) -> Execution:
        rep = vkwave.balance_residual(inputs.field, self.LAW, inputs.region, self.TIME)
        scale = max(1.0, abs(rep.time_derivative), abs(rep.flux_integral))
        status = "pass" if abs(rep.residual) / scale < BALANCE_TOLERANCE else "fail"
        output = repr(dataclasses.astuple(rep)).encode()
        return Execution(((f"balance[{self.LAW.name}]", status),), output, rep)

    def expected(self) -> tuple[tuple[str, str], ...]:
        return ((f"balance[{self.LAW.name}]", "fail"),)

    def oracle_gap(self, inputs: Inputs, last: Execution) -> float:
        jump = _front_oracle(inputs.field, self.LAW, inputs.region, self.TIME)
        if jump is None:
            raise RuntimeError("the disc front-jump oracle vanished; the workload is miswired")
        return abs(last.balance.residual - jump) / abs(jump)


WORKLOADS = {w.name: w for w in (WaveBalance(), Pointwise(), DiscBalance())}


def count_mismatches(rows, expected) -> int:
    """Rows whose status differs from the pinned one (an error never matches)."""
    mismatched = sum(1 for got, want in zip(rows, expected) if got != want or got[1] == "error")
    return mismatched + abs(len(rows) - len(expected))



class Checker:
    """Verdict and determinism checks over every execution of a run."""

    def __init__(self, expected, reference: Execution):
        self.expected = expected
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.identical = True

    def add(self, execution: Execution) -> None:
        self.attempted += len(self.expected)
        self.failed += count_mismatches(execution.rows, self.expected)
        self.identical &= execution.output == self.reference.output

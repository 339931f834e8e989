"""Self-tests of the benchmark harness (not of vkwave).

    python3 perfbench/selftest.py

Takes about ten seconds: one test executes wave_balance twice and
pointwise twice.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (defines the BLAS pins and the source path)

os.environ.update(run.BLAS_PINS)
sys.path.insert(0, str(run.SRC))

import vkwave  # noqa: E402

import calibration  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _vkwave_namespace() -> dict:
    """Every value held by a vkwave module or by a class defined in one."""
    out = {}
    for mod_name, mod in tracing.vkwave_modules():
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for member, v in vars(value).items():
                    out[(mod_name, attr, member)] = v
    return out


class WrapperLifetime(unittest.TestCase):
    def test_uninstall_restores_every_original(self):
        before = _vkwave_namespace()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wrapped = tracing.leftover_wrappers()
            self.assertIn("vkwave.balance.density_flux", wrapped)
            self.assertIn("vkwave.jumps.density_flux", wrapped)
            self.assertIn("vkwave.solutions.traveling_jet_fill", wrapped)
            self.assertIn("vkwave.solutions.PiecewiseField.jet", wrapped)
            self.assertEqual(tracer.missing, [])
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.leftover_wrappers(), [])
        after = _vkwave_namespace()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_timed_run_refuses_installed_wrappers(self):
        class NeverRun:
            def execute(self, inputs):
                raise AssertionError("executed with wrappers installed")

        args = types.SimpleNamespace(seconds=0.01, setup_probes=[(1.0, 1.0)])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with self.assertRaisesRegex(RuntimeError, "before the timed runs"):
                run.untraced_run(args, NeverRun(), None, None, [])
        finally:
            tracer.uninstall()


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        tracer = tracing.Tracer()
        tracer.enter(tracing.ROOT)
        tracer.enter("a")
        tracer.enter("b")
        tracer.exit()
        tracer.enter("b")
        tracer.exit()
        tracer.exit()
        tracer.enter("c")
        tracer.exit()
        tracer.exit()
        root_total = tracer.stats[tracing.ROOT][2]
        self.assertEqual(tracer.stats["b"][0], 2)
        self.assertAlmostEqual(sum(s[3] for s in tracer.stats.values()), root_total, delta=1e-12)
        for calls, _, total, self_s in tracer.stats.values():
            self.assertGreaterEqual(self_s, 0.0)
            self.assertLessEqual(self_s, total)

    def test_traced_balance_adds_up(self):
        wave = vkwave.acceleration_wave(
            vkwave.invariant_solution((0.1, 0.0, -0.2, 0.4), (0.0, 0.2, 0.25, -0.1), 1.1,
                                      vkwave.make_plate_params(1.0, 0.3, 1.0, 1.0)),
            c1=0.8, c2=0.45,
        )
        region = vkwave.Region(-0.8, 0.9, -0.6, 0.7, cells=(2, 2))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.reset()
            tracer.enter(tracing.ROOT)
            vkwave.balance_residual(wave, "energy", region, 0.1)
            tracer.exit()
        finally:
            tracer.uninstall()
        m = tracing.execution_metrics(tracer)
        self.assertAlmostEqual(m["trace.self_sum_ratio"], 1.0, delta=1e-12)
        self.assertEqual(m["balance.balance_residual.calls"], 1)
        self.assertEqual(m["balance.density_integral.calls"], 5)
        self.assertEqual(m["balance.boundary_flux_integral.calls"], 2)
        self.assertEqual(m["solutions.jet.calls"], m["_kernels.traveling_jet_fill.calls"])
        self.assertEqual(m["conservation.density_flux.points"], m["solutions.jet.points"])


class CalibratedTime(unittest.TestCase):
    def test_timer_samples_then_disarms(self):
        cal = calibration.Calibration()
        handler = signal.getsignal(signal.SIGALRM)

        def spin():
            end = time.perf_counter() + 2.2 * calibration.INTERVAL_S
            while time.perf_counter() < end:
                pass
            return "done"

        start = time.perf_counter()
        result, wall, calibrated = cal.time(spin)
        self.assertLess(wall, time.perf_counter() - start)
        self.assertEqual(result, "done")
        self.assertEqual(len(cal.samples), 3)  # two from the timer, one after the span
        self.assertGreater(cal.spent, 0.0)
        self.assertAlmostEqual(wall, 2.2 * calibration.INTERVAL_S - cal.spent, delta=0.02)
        self.assertEqual(calibrated, wall * calibration.REF_S / statistics.fmean(cal.samples))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)


class Seeds(unittest.TestCase):
    def test_seed_changes_pointwise_draws_only(self):
        def without_seed(report_bytes):
            payload = json.loads(report_bytes)
            del payload["scenario"]["seed"]
            return payload

        runs = {}
        for name in ("wave_balance", "pointwise"):
            w = workloads.WORKLOADS[name]
            runs[name] = [without_seed(w.execute(w.setup(seed)).output) for seed in (1, 2)]
        self.assertEqual(runs["wave_balance"][0], runs["wave_balance"][1])
        self.assertEqual(runs["pointwise"][0]["scenario"], runs["pointwise"][1]["scenario"])
        self.assertNotEqual(runs["pointwise"][0]["checks"], runs["pointwise"][1]["checks"])

        disc = workloads.WORKLOADS["disc_balance"]
        a, b = disc.setup(1), disc.setup(2)
        self.assertEqual((a.region, repr(a.field.front)), (b.region, repr(b.field.front)))


class Verdicts(unittest.TestCase):
    def test_pins_hold_the_genuine_fails(self):
        wave = dict(workloads.WORKLOADS["wave_balance"].expected())
        self.assertEqual(len(wave), 14)
        fails = sorted(k for k, v in wave.items() if v == "fail")
        self.assertEqual(
            fails,
            ["balance[angular_momentum_x1]", "balance[galilean_moment_x1]", "balance[phi_linear_x1]"],
        )
        point = dict(workloads.WORKLOADS["pointwise"].expected())
        self.assertEqual(sum(v == "fail" for v in point.values()), 3)

    def test_mismatch_count(self):
        expected = (("a", "pass"), ("b", "fail"))
        self.assertEqual(workloads.count_mismatches(expected, expected), 0)
        self.assertEqual(workloads.count_mismatches((("a", "pass"), ("b", "pass")), expected), 1)
        self.assertEqual(workloads.count_mismatches((("a", "error"),), (("a", "error"),)), 1)
        self.assertEqual(workloads.count_mismatches((("a", "pass"),), expected), 1)


class Declaration(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(tracing.PER_LAYER))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_compare_refuses_a_different_backend(self):
        env = {"backend": "python", "python": "3.11", "numpy": "2"}
        base = {"workload": "pointwise", "trace": 0, "env": env}
        self.assertEqual(compare.mismatches(base, base), [])
        other = dict(base, env=dict(env, backend="compiled"))
        self.assertEqual(len(compare.mismatches(base, other)), 1)


if __name__ == "__main__":
    unittest.main()

"""Per-layer tracing for the benchmark: spans around public vkwave names.

``Tracer.install`` replaces each traced function wherever a vkwave module
holds it (so ``density_flux`` is wrapped in ``balance``, ``conservation``
and ``jumps`` alike) and each traced method on its class; ``uninstall``
puts the originals back.  The code under test is single-threaded, so the
spans nest on one stack.  A span's self time is its duration minus the
durations of its direct children, so the self times recorded during one
execution add up to that execution's root span.

Spans are aggregated per name as they close; nothing is kept per call.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

import numpy as np

#: Marker attribute set on every wrapper, used to find leftovers.
MARK = "_perfbench_span"

#: Root span of one workload execution; its self time is the time spent
#: in code that no other span covers.
ROOT = "bench.execute"

#: Jet-fill batch-size histogram buckets: (metric suffix, lower, upper).
FILL_BUCKETS = (
    ("batch_1", 1, 1),
    ("batch_2_64", 2, 64),
    ("batch_65_1000", 65, 1000),
    ("batch_gt_1000", 1001, math.inf),
)

#: Bytes one jet-fill point moves: 3 coordinates in, 2 x 35 jet slots out.
FILL_BYTES_PER_POINT = (3 + 2 * 35) * 8


def _batch(point) -> int:
    shape = getattr(point, "shape", None)
    if shape is None:
        shape = np.shape(point)
    return math.prod(shape[:-1])


def _arg_points(position):
    return lambda args: _batch(args[position])


def _jet_points(position):
    return lambda args: _batch(args[position].point)


#: Functions traced as spans: (span name, module, attributes).  Each is
#: wrapped in every vkwave module that holds it.
FUNCTIONS = (
    ("_kernels.traveling_jet_fill", "vkwave._kernels", ("traveling_jet_fill",), lambda a: a[4].shape[0]),
    ("conservation.density_flux", "vkwave.conservation", ("density_flux",), _jet_points(1)),
    ("conservation.conservation_divergence", "vkwave.conservation", ("conservation_divergence",), None),
    (
        "tensors.all",
        "vkwave.tensors",
        (
            "membrane_stress", "moment_tensor", "shear_force", "membrane_strain",
            "bending_tensor", "g_tensor", "f_vector", "strain_energy_density",
            "kinetic_energy_density", "lagrangian_density",
        ),
        None,
    ),
    ("balance.balance_residual", "vkwave.balance", ("balance_residual",), None),
    ("balance.density_integral", "vkwave.balance", ("density_integral",), None),
    ("balance.boundary_flux_integral", "vkwave.balance", ("boundary_flux_integral",), None),
    ("wavefront.front_geometry", "vkwave.wavefront", ("front_geometry",), None),
    ("jumps.extract_jumps", "vkwave.jumps", ("extract_jumps",), None),
    (
        "jumps.residuals",
        "vkwave.jumps",
        (
            "dynamic_jump_residuals", "dynamic_jump_scales", "balance_jump_residual",
            "balance_jump_scale", "closed_form_jump_residual",
            "amplitude_relation_residuals", "amplitude_relation_scales",
        ),
        None,
    ),
    ("solutions.pde_residual", "vkwave.solutions", ("pde_residual",), _jet_points(0)),
    ("solutions.pde_term_scales", "vkwave.solutions", ("pde_term_scales",), None),
    ("scenario.load_scenario", "vkwave.scenario", ("load_scenario",), None),
    ("scenario.build_field", "vkwave.scenario", ("build_field",), None),
    ("report.run_scenario", "vkwave.report", ("run_scenario",), None),
    ("report.emit_report", "vkwave.report", ("emit_report",), None),
)

#: Methods traced as spans: (span name, module, class, method).
METHODS = (
    ("solutions.InvariantSolution.jet", "vkwave.solutions", "InvariantSolution", "jet", _arg_points(1)),
    ("solutions.PolynomialField.jet", "vkwave.solutions", "PolynomialField", "jet", _arg_points(1)),
    ("solutions.PiecewiseField.jet", "vkwave.solutions", "PiecewiseField", "jet", _arg_points(1)),
    ("wavefront.front_value", "vkwave.wavefront", "LineFront", "value", _arg_points(1)),
    ("wavefront.front_value", "vkwave.wavefront", "CircleFront", "value", _arg_points(1)),
    ("jets.FieldJet", "vkwave.jets", "FieldJet", "__post_init__", None),
)

#: Functions only counted, because a span per call would cost more than the call.
COUNTED = (("indexing.idx", "vkwave.indexing", "idx"),)

_JET_SPANS = frozenset(name for name, *_ in METHODS if name.endswith(".jet"))

#: Per-layer metrics a traced run reports, in order: (name, unit).
PER_LAYER = (
    ("_kernels.traveling_jet_fill.calls", "count"),
    ("_kernels.traveling_jet_fill.points", "points"),
    ("_kernels.traveling_jet_fill.self_s", "s"),
    ("_kernels.traveling_jet_fill.bytes_computed", "bytes"),
    *((f"_kernels.traveling_jet_fill.{suffix}", "count") for suffix, _, _ in FILL_BUCKETS),
    ("solutions.jet.calls", "count"),
    ("solutions.jet.points", "points"),
    ("solutions.jet.points_per_call", "points/call"),
    ("solutions.InvariantSolution.jet.self_s", "s"),
    ("solutions.PolynomialField.jet.self_s", "s"),
    ("solutions.PiecewiseField.jet.self_s", "s"),
    ("jets.FieldJet.count", "count"),
    ("jets.FieldJet.self_s", "s"),
    ("indexing.idx.calls", "count"),
    ("conservation.density_flux.calls", "count"),
    ("conservation.density_flux.points", "points"),
    ("conservation.density_flux.self_s", "s"),
    ("tensors.all.calls", "count"),
    ("tensors.all.self_s", "s"),
    ("balance.balance_residual.calls", "count"),
    ("balance.balance_residual.self_s", "s"),
    ("balance.density_integral.calls", "count"),
    ("balance.density_integral.self_s", "s"),
    ("balance.boundary_flux_integral.calls", "count"),
    ("balance.boundary_flux_integral.self_s", "s"),
    ("wavefront.front_value.calls", "count"),
    ("wavefront.front_value.points", "points"),
    ("wavefront.front_value.self_s", "s"),
    ("wavefront.front_geometry.calls", "count"),
    ("wavefront.front_geometry.self_s", "s"),
    ("conservation.conservation_divergence.calls", "count"),
    ("conservation.conservation_divergence.self_s", "s"),
    ("jumps.extract_jumps.calls", "count"),
    ("jumps.extract_jumps.self_s", "s"),
    ("jumps.residuals.calls", "count"),
    ("jumps.residuals.self_s", "s"),
    ("solutions.pde_residual.points", "points"),
    ("solutions.pde_residual.self_s", "s"),
    ("solutions.pde_term_scales.self_s", "s"),
    ("scenario.load_scenario.s", "s"),
    ("scenario.build_field.s", "s"),
    ("scenario.build_field.self_s", "s"),
    ("report.run_scenario.total_s", "s"),
    ("report.run_scenario.self_s", "s"),
    ("report.emit_report.s", "s"),
    ("report.emit_report.self_s", "s"),
    ("bench.execute.self_s", "s"),
    ("trace.total_s", "s"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.executions", "count"),
)


def vkwave_modules():
    """(name, module) of every imported vkwave module."""
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "vkwave" or name.startswith("vkwave."))
    ]


class Tracer:
    """Span stack and per-name totals for one traced process."""

    def __init__(self):
        # name -> [calls, points, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self._jet_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, points: int = 0) -> None:
        self._stack.append([name, points, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, points, start, child = self._stack.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0.0, 0.0]
        st[0] += 1
        st[1] += points
        st[2] += duration
        st[3] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError(f"reset inside open spans {[f[0] for f in self._stack]}")
        self.stats = {}
        self.counts = {}

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, points_of):
        tracer = self
        is_jet = name in _JET_SPANS
        is_fill = name == "_kernels.traveling_jet_fill"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            points = points_of(args) if points_of is not None else 0
            if is_fill:
                for suffix, lo, hi in FILL_BUCKETS:
                    if lo <= points <= hi:
                        tracer.bump(f"{name}.{suffix}")
            if is_jet:
                if tracer._jet_depth == 0:
                    tracer.bump("solutions.jet.calls")
                    tracer.bump("solutions.jet.points", points)
                tracer._jet_depth += 1
            tracer.enter(name, points)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
                if is_jet:
                    tracer._jet_depth -= 1

        setattr(wrapper, MARK, name)
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args):
            tracer.bump(key)
            return fn(*args)

        setattr(wrapper, MARK, name)
        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper) -> None:
        for _, mod in vkwave_modules():
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                self._patch(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced name that exists; a second install is an error."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attrs, points_of in FUNCTIONS:
            for attr in attrs:
                fn = self._resolve(module, attr)
                if fn is not None:
                    self._patch_everywhere(fn, self._span_wrapper(name, fn, points_of))
        for name, module, cls_name, attr, points_of in METHODS:
            cls = self._resolve(module, cls_name)
            if cls is not None and attr in cls.__dict__:
                self._patch(cls, attr, self._span_wrapper(name, cls.__dict__[attr], points_of))
            elif cls is not None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
        for name, module, attr in COUNTED:
            fn = self._resolve(module, attr)
            if fn is not None:
                self._patch_everywhere(fn, self._count_wrapper(name, fn))

    def _resolve(self, module, attr):
        """The named module attribute, or None (noted in ``missing``) when absent.

        A layer that a later version of vkwave removes or renames then reads
        as idle instead of breaking the traced run.
        """
        try:
            return getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return None

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of benchmark wrappers still reachable from vkwave modules or classes."""
    found = []
    for mod_name, mod in vkwave_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                found += [f"{mod_name}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, MARK)]
    return found


def execution_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced execution, keyed by PER_LAYER name.

    The execution must have run inside one ROOT span, and the tracer must
    have been reset just before it.
    """
    stats, counts = tracer.stats, tracer.counts
    root_s = stats[ROOT][2]

    def st(name, field):
        return stats.get(name, (0, 0, 0.0, 0.0))[field]

    out = {}
    for metric, _unit in PER_LAYER:
        layer, qty = metric.rsplit(".", 1)
        if qty in ("calls", "count"):
            out[metric] = counts.get(metric, st(layer, 0))
        elif qty == "points":
            out[metric] = counts.get(metric, st(layer, 1))
        elif qty == "self_s":
            out[metric] = st(layer, 3)
        elif qty in ("s", "total_s") and layer != "trace":
            calls = st(layer, 0)
            out[metric] = st(layer, 2) / calls if calls else 0.0
        elif qty.startswith("batch_"):
            out[metric] = counts.get(metric, 0)
    fill_points = st("_kernels.traveling_jet_fill", 1)
    out["_kernels.traveling_jet_fill.bytes_computed"] = fill_points * FILL_BYTES_PER_POINT
    jet_calls = counts.get("solutions.jet.calls", 0)
    out["solutions.jet.points_per_call"] = (
        counts.get("solutions.jet.points", 0) / jet_calls if jet_calls else 0.0
    )
    out["trace.total_s"] = root_s
    out["trace.self_sum_ratio"] = sum(v for k, v in out.items() if k.endswith(".self_s")) / root_s
    return out

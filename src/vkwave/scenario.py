"""Declarative scenario files.

A scenario is a YAML document describing plate parameters, one solution
field (optionally glued across a front), an optional integration region,
and a list of checks to run.  This module parses and validates scenarios
into plain frozen dataclasses and builds the runtime objects from them.
Validation errors carry the dotted path of the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import yaml

from .balance import Region
from .conservation import LAWS, law
from .errors import ScenarioError, ValidationError
from .params import PlateParams, make_plate_params
from .solutions import (
    PiecewiseField,
    acceleration_wave,
    invariant_solution,
    polynomial_field,
)
from .wavefront import CircleFront, LineFront

CHECK_KINDS = (
    "pde_residual",
    "conservation",
    "dynamic_jumps",
    "balance_jump",
    "closed_form_jump",
    "wave_relations",
    "balance",
)

FAMILIES = ("invariant", "acceleration_wave", "polynomial")

_CLOSED_FORM_DEFAULT_LAWS = (
    "wave_momentum_x1",
    "wave_momentum_x2",
    "energy",
    "scaling",
    "moment_of_wave_momentum",
)

_JUMP_CHECKS = ("dynamic_jumps", "balance_jump", "closed_form_jump")

_ALL_LAWS = tuple(entry.name for entry in LAWS)

#: The laws of each law-resolved check kind that names none.
_DEFAULT_LAWS = {
    "conservation": _ALL_LAWS,
    "balance_jump": _ALL_LAWS,
    "closed_form_jump": _CLOSED_FORM_DEFAULT_LAWS,
    "balance": ("transversal_linear_momentum", "compatibility"),
}

_PLATE_KEYS = ("youngs_modulus", "poisson_ratio", "thickness", "areal_density")


@dataclass(frozen=True)
class Tolerances:
    """Default pass thresholds by check class, each overridable per check."""

    analytic: float = 1e-9
    finite_difference: float = 1e-6
    quadrature: float = 1e-5


@dataclass(frozen=True)
class FieldSpec:
    """Pure-data description of a solution field."""

    family: str
    wave_speed: float | None = None
    w_coefficients: tuple[float, float, float, float] | None = None
    phi_coefficients: tuple[float, float, float, float] | None = None
    c1: float | None = None
    c2: float | None = None
    w_terms: tuple[tuple[tuple[int, int, int], float], ...] | None = None
    phi_terms: tuple[tuple[tuple[int, int, int], float], ...] | None = None


@dataclass(frozen=True)
class FrontSpec:
    """Pure-data description of a front."""

    kind: str
    coef_x1: float | None = None
    coef_x2: float | None = None
    coef_t: float | None = None
    const: float | None = None
    center: tuple[float, float] | None = None
    radius: float | None = None
    radial_speed: float | None = None


@dataclass(frozen=True)
class CheckSpec:
    """One requested check with its inputs."""

    kind: str
    laws: tuple[str, ...] | None = None
    points: tuple[tuple[float, float, float], ...] | None = None
    times: tuple[float, ...] | None = None
    samples: int | None = None
    tolerance: float | None = None
    step: float | None = None
    dt: float | None = None
    region: Region | None = None


@dataclass(frozen=True)
class Scenario:
    """Validated scenario, ready to run."""

    plate: PlateParams
    field_spec: FieldSpec
    front_spec: FrontSpec | None
    region: Region | None
    checks: tuple[CheckSpec, ...]
    tolerances: Tolerances
    seed: int


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _need_mapping(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(data).__name__}")
    return data


def _check_keys(data: dict, allowed, path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{path}: unknown key(s) {unknown}; allowed keys are {sorted(allowed)}"
        )


def _number(data: dict, key: str, path: str, default=...):
    if key not in data:
        if default is ...:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    v = data[key]
    if not _is_number(v):
        raise ScenarioError(f"{path}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _positive_number(data: dict, key: str, path: str, default=...):
    v = _number(data, key, path, default)
    if key in data and not v > 0.0:
        raise ScenarioError(f"{path}.{key}: must be > 0, got {v}")
    return v


def _integer(data: dict, key: str, path: str, default=..., minimum=None):
    if key not in data:
        if default is ...:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    v = data[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}, got {v}")
    return v


def _number_list(data: dict, key: str, path: str, length=None, default=...):
    if key not in data:
        if default is ...:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    v = data[key]
    if not isinstance(v, (list, tuple)) or not all(_is_number(x) for x in v):
        raise ScenarioError(f"{path}.{key}: expected a list of finite numbers")
    if length is not None and len(v) != length:
        raise ScenarioError(f"{path}.{key}: expected {length} numbers, got {len(v)}")
    return tuple(float(x) for x in v)


def _parse_plate(data, path: str) -> PlateParams:
    d = _need_mapping(data, path)
    _check_keys(d, _PLATE_KEYS, path)
    kwargs = {k: _number(d, k, path) for k in _PLATE_KEYS}
    try:
        return make_plate_params(**kwargs)
    except ValidationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_terms(data: dict, key: str, path: str):
    if key not in data:
        raise ScenarioError(f"{path}.{key}: required")
    entries = data[key]
    if not isinstance(entries, list):
        raise ScenarioError(f"{path}.{key}: expected a list of terms")
    terms = []
    for i, entry in enumerate(entries):
        tpath = f"{path}.{key}[{i}]"
        d = _need_mapping(entry, tpath)
        _check_keys(d, ("exponents", "coefficient"), tpath)
        exps = d.get("exponents")
        if (
            not isinstance(exps, (list, tuple))
            or len(exps) != 3
            or not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps)
        ):
            raise ScenarioError(f"{tpath}.exponents: expected 3 nonnegative integers")
        coef = _number(d, "coefficient", tpath)
        terms.append(((int(exps[0]), int(exps[1]), int(exps[2])), coef))
    return tuple(terms)


def _parse_field(data, path: str) -> FieldSpec:
    d = _need_mapping(data, path)
    family = d.get("family")
    if family not in FAMILIES:
        raise ScenarioError(f"{path}.family: expected one of {FAMILIES}, got {family!r}")

    if family == "polynomial":
        _check_keys(d, ("family", "w_terms", "phi_terms"), path)
        return FieldSpec(
            family=family,
            w_terms=_parse_terms(d, "w_terms", path),
            phi_terms=_parse_terms(d, "phi_terms", path),
        )

    keys = ["family", "wave_speed", "w_coefficients", "phi_coefficients"]
    if family == "acceleration_wave":
        keys += ["c1", "c2"]
    _check_keys(d, keys, path)
    spec = FieldSpec(
        family=family,
        wave_speed=_number(d, "wave_speed", path),
        w_coefficients=_number_list(d, "w_coefficients", path, length=4),
        phi_coefficients=_number_list(d, "phi_coefficients", path, length=4),
        c1=_number(d, "c1", path) if family == "acceleration_wave" else None,
        c2=_number(d, "c2", path) if family == "acceleration_wave" else None,
    )
    return spec


def _parse_front(data, path: str) -> FrontSpec:
    d = _need_mapping(data, path)
    kind = d.get("kind")
    if kind == "line":
        _check_keys(d, ("kind", "coef_x1", "coef_x2", "coef_t", "const"), path)
        return FrontSpec(
            kind="line",
            coef_x1=_number(d, "coef_x1", path),
            coef_x2=_number(d, "coef_x2", path),
            coef_t=_number(d, "coef_t", path, default=0.0),
            const=_number(d, "const", path, default=0.0),
        )
    if kind == "circle":
        _check_keys(d, ("kind", "center", "radius", "radial_speed"), path)
        center = _number_list(d, "center", path, length=2)
        return FrontSpec(
            kind="circle",
            center=center,
            radius=_positive_number(d, "radius", path),
            radial_speed=_number(d, "radial_speed", path, default=0.0),
        )
    raise ScenarioError(f"{path}.kind: expected 'line' or 'circle', got {kind!r}")


def _parse_region(data, path: str) -> Region:
    d = _need_mapping(data, path)
    _check_keys(d, ("x1_min", "x1_max", "x2_min", "x2_max", "quad_order", "cells"), path)
    cells_raw = d.get("cells", [4, 4])
    if (
        not isinstance(cells_raw, (list, tuple))
        or len(cells_raw) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in cells_raw)
    ):
        raise ScenarioError(f"{path}.cells: expected a pair of integers")
    try:
        return Region(
            x1_min=_number(d, "x1_min", path),
            x1_max=_number(d, "x1_max", path),
            x2_min=_number(d, "x2_min", path),
            x2_max=_number(d, "x2_max", path),
            quad_order=_integer(d, "quad_order", path, default=8),
            cells=(int(cells_raw[0]), int(cells_raw[1])),
        )
    except ValidationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_laws(data: dict, path: str, default, closed_form_only=False):
    if "laws" not in data:
        return default
    v = data["laws"]
    if v == "all":
        return _CLOSED_FORM_DEFAULT_LAWS if closed_form_only else _ALL_LAWS
    if not isinstance(v, list) or not v:
        raise ScenarioError(f"{path}.laws: expected 'all' or a non-empty list")
    names = []
    for i, item in enumerate(v):
        try:
            entry = law(item)
        except ValidationError as exc:
            raise ScenarioError(f"{path}.laws[{i}]: {exc}") from exc
        names.append(entry.name)
    return tuple(names)


def _parse_points(data: dict, path: str):
    if "points" not in data:
        return None
    v = data["points"]
    if not isinstance(v, list) or not v:
        raise ScenarioError(f"{path}.points: expected a non-empty list of 3-vectors")
    points = []
    for i, item in enumerate(v):
        if not isinstance(item, (list, tuple)) or len(item) != 3 or not all(
            _is_number(x) for x in item
        ):
            raise ScenarioError(f"{path}.points[{i}]: expected 3 finite numbers")
        points.append((float(item[0]), float(item[1]), float(item[2])))
    return tuple(points)


def _parse_times(data: dict, path: str):
    if "times" not in data:
        return None
    v = data["times"]
    if not isinstance(v, list) or not v or not all(_is_number(x) for x in v):
        raise ScenarioError(f"{path}.times: expected a non-empty list of finite numbers")
    return tuple(float(x) for x in v)


_CHECK_KEYS = {
    "pde_residual": ("type", "points", "samples", "tolerance"),
    "conservation": ("type", "laws", "points", "samples", "step", "tolerance"),
    "dynamic_jumps": ("type", "times", "samples", "tolerance"),
    "balance_jump": ("type", "laws", "times", "samples", "tolerance"),
    "closed_form_jump": ("type", "laws", "times", "samples", "tolerance"),
    "wave_relations": ("type", "tolerance"),
    "balance": ("type", "laws", "times", "region", "dt", "tolerance"),
}


def _parse_check(data, path: str) -> CheckSpec:
    d = _need_mapping(data, path)
    kind = d.get("type")
    if kind not in CHECK_KINDS:
        raise ScenarioError(f"{path}.type: expected one of {CHECK_KINDS}, got {kind!r}")
    _check_keys(d, _CHECK_KEYS[kind], path)

    closed_form = kind == "closed_form_jump"
    laws = _parse_laws(d, path, _DEFAULT_LAWS.get(kind), closed_form_only=closed_form)
    if closed_form:
        for name in laws:
            if name not in _CLOSED_FORM_DEFAULT_LAWS:
                raise ScenarioError(
                    f"{path}.laws: law '{name}' has no closed-form jump condition; "
                    f"valid choices are {_CLOSED_FORM_DEFAULT_LAWS}"
                )

    return CheckSpec(
        kind=kind,
        laws=laws,
        points=_parse_points(d, path),
        times=_parse_times(d, path),
        samples=_integer(d, "samples", path, default=None, minimum=1),
        tolerance=_positive_number(d, "tolerance", path, default=None),
        step=_positive_number(d, "step", path, default=None),
        dt=_positive_number(d, "dt", path, default=None),
        region=_parse_region(d["region"], f"{path}.region") if "region" in d else None,
    )


def scenario_from_dict(data) -> Scenario:
    """Validate a parsed scenario mapping and freeze it into a Scenario."""
    d = _need_mapping(data, "scenario")
    _check_keys(
        d, ("plate", "field", "front", "region", "checks", "tolerances", "seed"), "scenario"
    )
    if "plate" not in d:
        raise ScenarioError("plate: required")
    if "field" not in d:
        raise ScenarioError("field: required")
    if "checks" not in d:
        raise ScenarioError("checks: required")

    plate = _parse_plate(d["plate"], "plate")
    field_spec = _parse_field(d["field"], "field")
    front_spec = _parse_front(d["front"], "front") if "front" in d else None
    region = _parse_region(d["region"], "region") if "region" in d else None

    if field_spec.family == "acceleration_wave" and front_spec is not None:
        raise ScenarioError(
            "front: an acceleration_wave field defines its own front; remove this section"
        )

    tol_data = d.get("tolerances", {})
    tol_path = "tolerances"
    _need_mapping(tol_data, tol_path)
    _check_keys(tol_data, ("analytic", "finite_difference", "quadrature"), tol_path)
    tolerances = Tolerances(
        analytic=_positive_number(tol_data, "analytic", tol_path, default=1e-9),
        finite_difference=_positive_number(tol_data, "finite_difference", tol_path, default=1e-6),
        quadrature=_positive_number(tol_data, "quadrature", tol_path, default=1e-5),
    )

    checks_raw = d["checks"]
    if not isinstance(checks_raw, list) or not checks_raw:
        raise ScenarioError("checks: expected a non-empty list")
    checks = tuple(
        _parse_check(item, f"checks[{i}]") for i, item in enumerate(checks_raw)
    )

    has_front = front_spec is not None or field_spec.family == "acceleration_wave"
    for i, check in enumerate(checks):
        if check.kind in _JUMP_CHECKS and not has_front:
            raise ScenarioError(
                f"checks[{i}]: {check.kind} requires a front (add a front section "
                "or use the acceleration_wave family)"
            )
        if check.kind == "wave_relations" and field_spec.family != "acceleration_wave":
            raise ScenarioError(
                f"checks[{i}]: wave_relations applies only to the acceleration_wave family"
            )
        if check.kind == "balance" and check.region is None and region is None:
            raise ScenarioError(
                f"checks[{i}]: balance requires a region (here or at scenario level)"
            )

    seed = _integer(d, "seed", "scenario", default=0, minimum=0)
    return Scenario(
        plate=plate,
        field_spec=field_spec,
        front_spec=front_spec,
        region=region,
        checks=checks,
        tolerances=tolerances,
        seed=seed,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario file {path} is not valid YAML: {exc}") from exc
    return scenario_from_dict(data)


def build_front(spec: FrontSpec):
    """Construct the front object a FrontSpec describes."""
    if spec.kind == "line":
        return LineFront(
            coef_x1=spec.coef_x1,
            coef_x2=spec.coef_x2,
            coef_t=spec.coef_t,
            const=spec.const,
        )
    return CircleFront(
        center_x1=spec.center[0],
        center_x2=spec.center[1],
        radius=spec.radius,
        radial_speed=spec.radial_speed,
    )


def build_field(scenario: Scenario):
    """Construct the runtime field a scenario describes.

    A smooth family plus a front section produces a piecewise field whose
    two branches are the same solution, so jump checks see zero jumps.
    """
    spec = scenario.field_spec
    try:
        if spec.family == "polynomial":
            base = polynomial_field(
                dict(spec.w_terms), dict(spec.phi_terms), scenario.plate
            )
        else:
            base = invariant_solution(
                spec.w_coefficients,
                spec.phi_coefficients,
                spec.wave_speed,
                scenario.plate,
            )
        if spec.family == "acceleration_wave":
            return acceleration_wave(base, spec.c1, spec.c2)
    except ValidationError as exc:
        raise ScenarioError(f"field: {exc}") from exc

    if scenario.front_spec is None:
        return base
    front = build_front(scenario.front_spec)
    return PiecewiseField(ahead=base, behind=base, front=front, params=scenario.plate)


#: Scenario keys that differ from their spec field's name.
_RENAMED_KEYS = {
    (Scenario, "field_spec"): "field",
    (Scenario, "front_spec"): "front",
    (CheckSpec, "kind"): "type",
}


def _plain(value):
    """The scenario-file form of a spec value: a spec dataclass becomes a
    mapping of its set fields in field order, and a tuple a list."""
    if isinstance(value, PlateParams):
        return {key: getattr(value, key) for key in _PLATE_KEYS}
    if is_dataclass(value):
        out = {}
        for f in fields(value):
            v = getattr(value, f.name)
            if v is None:
                continue
            if f.name in ("w_terms", "phi_terms"):
                out[f.name] = [{"exponents": list(e), "coefficient": c} for e, c in v]
            else:
                out[_RENAMED_KEYS.get((type(value), f.name), f.name)] = _plain(v)
        return out
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Normalized mapping form; feeding it back to scenario_from_dict
    reproduces an equal Scenario."""
    return _plain(scenario)


def sample_front_point(front, t: float, draw: float) -> np.ndarray:
    """A point exactly on the front at time t.

    draw parametrizes the position: arc-length offset for a line, angle
    fraction for a circle.
    """
    if isinstance(front, LineFront):
        a, b = front.coef_x1, front.coef_x2
        e = front.coef_t * t + front.const
        norm2 = a * a + b * b
        px, py = -e * a / norm2, -e * b / norm2
        norm = math.sqrt(norm2)
        ux, uy = -b / norm, a / norm
        return np.array([px + draw * ux, py + draw * uy, t], dtype=np.float64)
    if isinstance(front, CircleFront):
        radius = front.radius + front.radial_speed * t
        if radius <= 0.0:
            raise ValidationError(f"circular front has nonpositive radius at t={t}")
        theta = 2.0 * math.pi * draw
        return np.array(
            [
                front.center_x1 + radius * math.cos(theta),
                front.center_x2 + radius * math.sin(theta),
                t,
            ],
            dtype=np.float64,
        )
    raise ValidationError(f"cannot sample points on front type {type(front).__name__}")

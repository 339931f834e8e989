"""Declarative scenario files.

A scenario is a YAML document describing plate parameters, one solution
field (optionally glued across a front), an optional integration region,
and a list of checks to run.  This module parses and validates scenarios
into plain frozen dataclasses and builds the runtime objects from them.
Each section is read by one table of (key, reader, default) rows, so a
key's reader and default are stated once.  Validation errors carry the
dotted path of the offending key.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import yaml

from .balance import Region
from .conservation import LAWS, law
from .errors import ScenarioError, ValidationError
from .jumps import _CLOSED_FORM_LAWS
from .params import PlateParams, make_plate_params
from .solutions import (
    PiecewiseField,
    acceleration_wave,
    invariant_solution,
    polynomial_field,
)
from .wavefront import CircleFront, LineFront

_CLOSED_FORM_DEFAULT_LAWS = tuple(law(i).name for i in _CLOSED_FORM_LAWS)

_JUMP_CHECKS = ("dynamic_jumps", "balance_jump", "closed_form_jump")

_ALL_LAWS = tuple(entry.name for entry in LAWS)


@dataclass(frozen=True)
class Tolerances:
    """Default pass thresholds by check class, each overridable per check."""

    analytic: float = 1e-9
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


# Value readers: read(value, path) returns the value in its spec form or
# raises a ScenarioError that names path.


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _number(value, path: str) -> float:
    if not _is_number(value):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _positive(value, path: str) -> float:
    v = _number(value, path)
    if not v > 0.0:
        raise ScenarioError(f"{path}: must be > 0, got {v}")
    return v


def _integer(minimum=None):
    """The reader of an integer, at least minimum when one is given."""

    def read(value, path: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ScenarioError(f"{path}: expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ScenarioError(f"{path}: must be >= {minimum}, got {value}")
        return value

    return read


def _numbers(length: int):
    """The reader of a list of length finite numbers."""

    def read(value, path: str) -> tuple[float, ...]:
        if not isinstance(value, (list, tuple)) or not all(_is_number(x) for x in value):
            raise ScenarioError(f"{path}: expected a list of finite numbers")
        if len(value) != length:
            raise ScenarioError(f"{path}: expected {length} numbers, got {len(value)}")
        return tuple(float(x) for x in value)

    return read


def _exponents(value, path: str) -> tuple[int, int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 3
        or not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in value)
    ):
        raise ScenarioError(f"{path}: expected 3 nonnegative integers")
    return tuple(value)


def _terms(value, path: str):
    """Polynomial terms, each monomial at most once: build_field keeps one
    coefficient per exponent triple."""
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected a list of terms")
    terms, first = [], {}
    for i, entry in enumerate(value):
        term = _section(entry, f"{path}[{i}]", _TERM_KEYS)
        exponents = term["exponents"]
        if exponents in first:
            raise ScenarioError(
                f"{path}[{i}].exponents: repeats {path}[{first[exponents]}].exponents "
                f"{list(exponents)}"
            )
        first[exponents] = i
        terms.append((exponents, term["coefficient"]))
    return tuple(terms)


def _laws(value, path: str) -> tuple[str, ...]:
    if value == "all":
        return _ALL_LAWS
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{path}: expected 'all' or a non-empty list")
    names = []
    for i, item in enumerate(value):
        try:
            names.append(law(item).name)
        except ValidationError as exc:
            raise ScenarioError(f"{path}[{i}]: {exc}") from exc
    return tuple(names)


def _closed_form_laws(value, path: str) -> tuple[str, ...]:
    """_laws among those with a closed-form jump condition; 'all' is all of these."""
    names = _CLOSED_FORM_DEFAULT_LAWS if value == "all" else _laws(value, path)
    for name in names:
        if name not in _CLOSED_FORM_DEFAULT_LAWS:
            raise ScenarioError(
                f"{path}: law '{name}' has no closed-form jump condition; "
                f"valid choices are {_CLOSED_FORM_DEFAULT_LAWS}"
            )
    return names


def _points(value, path: str):
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{path}: expected a non-empty list of 3-vectors")
    points = []
    for i, item in enumerate(value):
        if not isinstance(item, (list, tuple)) or len(item) != 3 or not all(
            _is_number(x) for x in item
        ):
            raise ScenarioError(f"{path}[{i}]: expected 3 finite numbers")
        points.append((float(item[0]), float(item[1]), float(item[2])))
    return tuple(points)


def _times(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value or not all(_is_number(x) for x in value):
        raise ScenarioError(f"{path}: expected a non-empty list of finite numbers")
    return tuple(float(x) for x in value)


def _cells(value, path: str) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in value)
    ):
        raise ScenarioError(f"{path}: expected a pair of integers")
    return (int(value[0]), int(value[1]))


def _need_mapping(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(data).__name__}")
    return data


def _section(data, path: str, rows, known=()) -> dict:
    """The values of a mapping section read by its (key, reader, default)
    rows, in row order; a default of ... marks a required key.  Keys
    neither in a row nor known (read by the caller) are rejected."""
    _need_mapping(data, path)
    allowed = (*known, *(key for key, _, _ in rows))
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{path}: unknown key(s) {unknown}; allowed keys are {sorted(allowed)}"
        )
    values = {}
    for key, read, default in rows:
        if key in data:
            values[key] = read(data[key], f"{path}.{key}")
        elif default is ...:
            raise ScenarioError(f"{path}.{key}: required")
        else:
            values[key] = default
    return values


def _kinded(data, path: str, tag: str, tables) -> tuple[str, dict]:
    """The kind a section's tag key names, and the section read by the
    rows tables holds for that kind."""
    kinds = tuple(tables)
    kind = _need_mapping(data, path).get(tag)
    if kind not in kinds:
        expected = " or ".join(map(repr, kinds)) if len(kinds) == 2 else f"one of {kinds}"
        raise ScenarioError(f"{path}.{tag}: expected {expected}, got {kind!r}")
    return kind, _section(data, path, tables[kind], known=(tag,))


def _built(build, rows):
    """The reader of a section whose values are build's keyword arguments;
    a ValidationError from build names the section."""

    def read(value, path: str):
        values = _section(value, path, rows)
        try:
            return build(**values)
        except ValidationError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    return read


# Section tables: (key, reader, default) rows in the order a section reads
# its keys, so that of two errors the earlier row's is reported.

_PLATE_KEYS = tuple(
    (key, _number, ...) for key in ("youngs_modulus", "poisson_ratio", "thickness", "areal_density")
)

_REGION_KEYS = (
    ("cells", _cells, Region.cells),
    ("x1_min", _number, ...),
    ("x1_max", _number, ...),
    ("x2_min", _number, ...),
    ("x2_max", _number, ...),
    ("quad_order", _integer(), Region.quad_order),
)

_TOLERANCE_KEYS = (
    ("analytic", _positive, Tolerances.analytic),
    ("quadrature", _positive, Tolerances.quadrature),
)

_TERM_KEYS = (("exponents", _exponents, ...), ("coefficient", _number, ...))

_plate = _built(make_plate_params, _PLATE_KEYS)
_region = _built(Region, _REGION_KEYS)
_tolerances = _built(Tolerances, _TOLERANCE_KEYS)

_INVARIANT_KEYS = (
    ("wave_speed", _number, ...),
    ("w_coefficients", _numbers(4), ...),
    ("phi_coefficients", _numbers(4), ...),
)

_FAMILY_KEYS = {
    "invariant": _INVARIANT_KEYS,
    "acceleration_wave": _INVARIANT_KEYS + (("c1", _number, ...), ("c2", _number, ...)),
    "polynomial": (("w_terms", _terms, ...), ("phi_terms", _terms, ...)),
}

_FRONT_KEYS = {
    "line": (
        ("coef_x1", _number, ...),
        ("coef_x2", _number, ...),
        ("coef_t", _number, LineFront.coef_t),
        ("const", _number, LineFront.const),
    ),
    "circle": (
        ("center", _numbers(2), ...),
        ("radius", _positive, ...),
        ("radial_speed", _number, CircleFront.radial_speed),
    ),
}

_POINTS = ("points", _points, None)
_TIMES = ("times", _times, None)
_SAMPLES = ("samples", _integer(1), None)
_TOLERANCE = ("tolerance", _positive, None)
_EVERY_LAW = ("laws", _laws, _ALL_LAWS)

#: The rows of each check kind, in the order error messages list the
#: kinds; a law-resolved kind's laws row holds the laws it runs by default.
_CHECK_KEYS = {
    "pde_residual": (_POINTS, _SAMPLES, _TOLERANCE),
    "conservation": (_EVERY_LAW, _POINTS, _SAMPLES, _TOLERANCE),
    "dynamic_jumps": (_TIMES, _SAMPLES, _TOLERANCE),
    "balance_jump": (_EVERY_LAW, _TIMES, _SAMPLES, _TOLERANCE),
    "closed_form_jump": (
        ("laws", _closed_form_laws, _CLOSED_FORM_DEFAULT_LAWS),
        _TIMES,
        _SAMPLES,
        _TOLERANCE,
    ),
    "wave_relations": (_TOLERANCE,),
    "balance": (
        ("laws", _laws, ("transversal_linear_momentum", "compatibility")),
        _TIMES,
        _TOLERANCE,
        ("dt", _positive, None),
        ("region", _region, None),
    ),
}

CHECK_KINDS = tuple(_CHECK_KEYS)

FAMILIES = tuple(_FAMILY_KEYS)


def _field(data, path: str) -> FieldSpec:
    family, values = _kinded(data, path, "family", _FAMILY_KEYS)
    return FieldSpec(family, **values)


def _front(data, path: str) -> FrontSpec:
    kind, values = _kinded(data, path, "kind", _FRONT_KEYS)
    return FrontSpec(kind, **values)


def _check(data, path: str) -> CheckSpec:
    kind, values = _kinded(data, path, "type", _CHECK_KEYS)
    if values.get("points") is not None and values.get("samples") is not None:
        # a check with points runs on them alone
        raise ScenarioError(f"{path}: takes points or samples, not both")
    return CheckSpec(kind, **values)


def scenario_from_dict(data) -> Scenario:
    """Validate a parsed scenario mapping and freeze it into a Scenario."""
    d = data
    keys = ("plate", "field", "front", "region", "checks", "tolerances", "seed")
    _section(d, "scenario", (), known=keys)  # each key is read below
    for key in ("plate", "field", "checks"):
        if key not in d:
            raise ScenarioError(f"{key}: required")

    plate = _plate(d["plate"], "plate")
    field_spec = _field(d["field"], "field")
    front_spec = _front(d["front"], "front") if "front" in d else None
    region = _region(d["region"], "region") if "region" in d else None

    if field_spec.family == "acceleration_wave" and front_spec is not None:
        raise ScenarioError(
            "front: an acceleration_wave field defines its own front; remove this section"
        )

    tolerances = _tolerances(d.get("tolerances", {}), "tolerances")

    checks_raw = d["checks"]
    if not isinstance(checks_raw, list) or not checks_raw:
        raise ScenarioError("checks: expected a non-empty list")
    checks = tuple(_check(item, f"checks[{i}]") for i, item in enumerate(checks_raw))

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

    seed = _integer(0)(d["seed"], "scenario.seed") if "seed" in d else 0
    return Scenario(
        plate=plate,
        field_spec=field_spec,
        front_spec=front_spec,
        region=region,
        checks=checks,
        tolerances=tolerances,
        seed=seed,
    )


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as ``1e-8`` and
    ``1.0e5``, which YAML 1.1 leaves as strings.  The added pattern needs a
    dot or an exponent, so integers still load as ``int``."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|[0-9]+[eE][-+]?[0-9]+)$"),
    list("-+.0123456789"),
)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_Loader)
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
        return {key: getattr(value, key) for key, _, _ in _PLATE_KEYS}
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


def sample_front_point(front, t: float, draw) -> np.ndarray:
    """A point exactly on the front at time t (shape (3,)) for one draw, or
    one per draw (shape (n, 3)) for an array of n draws, each with the bits
    of its own one-draw point.

    A draw is the parameter of ``front.curve`` (arc length on a line), or
    its fraction of the period on a closed front (the angle over 2 pi on
    a circle).
    """
    if not hasattr(front, "curve"):
        raise ValidationError(f"cannot sample points on front type {type(front).__name__}")
    draws = np.asarray(draw, dtype=np.float64)
    s = draws.reshape(-1)
    if front.period is not None:
        s = front.period * s
    x, _ = front.curve(t, s)
    return np.column_stack((x, np.full(len(s), float(t)))).reshape(draws.shape + (3,))

import math
import re

import numpy as np
import pytest

from vkwave.errors import ScenarioError, ValidationError
from vkwave.scenario import (
    CHECK_KINDS,
    FAMILIES,
    build_field,
    build_front,
    load_scenario,
    sample_front_point,
    scenario_from_dict,
    scenario_to_dict,
)
from vkwave.solutions import AccelerationWave, InvariantSolution, PiecewiseField, PolynomialField
from vkwave.wavefront import CircleFront, LineFront


def base_scenario() -> dict:
    return {
        "plate": {
            "youngs_modulus": 2.1,
            "poisson_ratio": 0.27,
            "thickness": 0.31,
            "areal_density": 1.7,
        },
        "field": {
            "family": "invariant",
            "wave_speed": 1.0,
            "w_coefficients": [0.1, -0.2, 0.3, 0.4],
            "phi_coefficients": [0.0, 0.5, -0.6, 0.7],
        },
        "checks": [{"type": "pde_residual", "samples": 4}],
        "seed": 3,
    }


def wave_scenario() -> dict:
    data = base_scenario()
    data["field"] = {
        "family": "acceleration_wave",
        "wave_speed": 1.0,
        "w_coefficients": [0, 0, 0, 0],
        "phi_coefficients": [0, 0, 0, 0],
        "c1": 1.0,
        "c2": 0.5,
    }
    return data


def test_kind_and_family_registries():
    assert len(CHECK_KINDS) == 7
    assert FAMILIES == ("invariant", "acceleration_wave", "polynomial")


def test_round_trip_through_dict():
    data = wave_scenario()
    data["checks"] = [
        {"type": "dynamic_jumps", "times": [0.0, 0.2], "samples": 2},
        {"type": "wave_relations"},
        {"type": "balance", "laws": ["energy"], "times": [0.1],
         "region": {"x1_min": -1.0, "x1_max": 1.0, "x2_min": -1.0, "x2_max": 1.0}},
    ]
    scenario = scenario_from_dict(data)
    again = scenario_from_dict(scenario_to_dict(scenario))
    assert again == scenario


def test_missing_sections():
    for key in ("plate", "field", "checks"):
        data = base_scenario()
        del data[key]
        with pytest.raises(ScenarioError, match=f"{key}: required"):
            scenario_from_dict(data)


def test_unknown_keys_are_rejected():
    data = base_scenario()
    data["extra"] = 1
    with pytest.raises(ScenarioError, match="scenario: unknown key"):
        scenario_from_dict(data)

    data = base_scenario()
    data["plate"]["color"] = "blue"
    with pytest.raises(ScenarioError, match="plate: unknown key"):
        scenario_from_dict(data)

    data = base_scenario()
    data["checks"][0]["laws"] = ["energy"]
    with pytest.raises(ScenarioError, match=r"checks\[0\]: unknown key"):
        scenario_from_dict(data)


@pytest.mark.parametrize("where", ["scenario", "check"])
def test_region_subdivision_depth_is_an_unknown_key(where):
    # cut cells are integrated through height functions, with no depth
    region = {"x1_min": -1.0, "x1_max": 1.0, "x2_min": -1.0, "x2_max": 1.0, "subdivision_depth": 6}
    data = base_scenario()
    data["checks"] = [{"type": "balance", "laws": ["energy"], "times": [0.1]}]
    if where == "scenario":
        data["region"] = region
        path = r"^region: unknown key\(s\) \['subdivision_depth'\]"
    else:
        data["checks"][0]["region"] = region
        path = r"^checks\[0\]\.region: unknown key\(s\) \['subdivision_depth'\]"
    with pytest.raises(ScenarioError, match=path):
        scenario_from_dict(data)
    del region["subdivision_depth"]
    assert "subdivision_depth" not in str(scenario_to_dict(scenario_from_dict(data)))


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_balance_dt_must_be_positive(dt):
    # a zero step would divide by zero in the central difference
    data = base_scenario()
    data["region"] = {"x1_min": -1.0, "x1_max": 1.0, "x2_min": -1.0, "x2_max": 1.0}
    data["checks"] = [{"type": "balance", "laws": ["energy"], "times": [0.1], "dt": dt}]
    with pytest.raises(ScenarioError, match=r"^checks\[0\]\.dt: must be > 0"):
        scenario_from_dict(data)
    data["checks"][0]["dt"] = 1e-3
    assert scenario_from_dict(data).checks[0].dt == 1e-3


def test_error_paths_are_dotted():
    data = base_scenario()
    data["field"]["family"] = "plane_wave"
    with pytest.raises(ScenarioError, match="field.family"):
        scenario_from_dict(data)

    data = base_scenario()
    data["field"]["wave_speed"] = "fast"
    with pytest.raises(ScenarioError, match="field.wave_speed"):
        scenario_from_dict(data)

    data = base_scenario()
    data["checks"] = [{"type": "conservation", "laws": ["energy", "nope"]}]
    with pytest.raises(ScenarioError, match=r"checks\[0\].laws\[1\]"):
        scenario_from_dict(data)

    data = base_scenario()
    data["checks"] = [{"type": "pde_residual", "points": [[0, 0]]}]
    with pytest.raises(ScenarioError, match=r"checks\[0\].points\[0\]"):
        scenario_from_dict(data)

    data = base_scenario()
    data["plate"]["thickness"] = -1.0
    with pytest.raises(ScenarioError, match="plate"):
        scenario_from_dict(data)


def test_check_cross_requirements():
    data = base_scenario()
    data["checks"] = [{"type": "dynamic_jumps"}]
    with pytest.raises(ScenarioError, match="requires a front"):
        scenario_from_dict(data)

    data = base_scenario()
    data["checks"] = [{"type": "wave_relations"}]
    with pytest.raises(ScenarioError, match="acceleration_wave"):
        scenario_from_dict(data)

    data = wave_scenario()
    data["checks"] = [{"type": "balance"}]
    with pytest.raises(ScenarioError, match="requires a region"):
        scenario_from_dict(data)

    data = wave_scenario()
    data["front"] = {"kind": "line", "coef_x1": 1.0, "coef_x2": 0.0}
    with pytest.raises(ScenarioError, match="defines its own front"):
        scenario_from_dict(data)

    data = wave_scenario()
    data["checks"] = [{"type": "closed_form_jump", "laws": ["compatibility"]}]
    with pytest.raises(ScenarioError, match="no closed-form jump condition"):
        scenario_from_dict(data)


def test_bad_checks_container():
    data = base_scenario()
    data["checks"] = []
    with pytest.raises(ScenarioError, match="non-empty list"):
        scenario_from_dict(data)
    data["checks"] = [{"type": "unknown_check"}]
    with pytest.raises(ScenarioError, match=r"checks\[0\].type"):
        scenario_from_dict(data)


def test_tolerances_and_seed():
    data = base_scenario()
    data["tolerances"] = {"analytic": 1e-8}
    sc = scenario_from_dict(data)
    assert sc.tolerances.analytic == 1e-8
    assert sc.tolerances.quadrature == 1e-5
    assert sc.seed == 3

    data["tolerances"] = {"analytic": -1e-8}
    with pytest.raises(ScenarioError, match="tolerances.analytic"):
        scenario_from_dict(data)

    data = base_scenario()
    data["seed"] = -1
    with pytest.raises(ScenarioError, match="seed"):
        scenario_from_dict(data)


def test_build_field_types():
    sc = scenario_from_dict(base_scenario())
    assert isinstance(build_field(sc), InvariantSolution)

    sc = scenario_from_dict(wave_scenario())
    field = build_field(sc)
    assert isinstance(field, AccelerationWave)
    assert field.c2 == 0.5

    data = base_scenario()
    data["front"] = {"kind": "line", "coef_x1": 1.0, "coef_x2": 0.0, "coef_t": -1.0}
    sc = scenario_from_dict(data)
    field = build_field(sc)
    assert isinstance(field, PiecewiseField)

    data = base_scenario()
    data["field"] = {
        "family": "polynomial",
        "w_terms": [{"exponents": [2, 0, 0], "coefficient": 0.5}],
        "phi_terms": [],
    }
    sc = scenario_from_dict(data)
    field = build_field(sc)
    assert isinstance(field, PolynomialField)
    assert field.jet((1.0, 0.0, 0.0)).dw(1, 1) == pytest.approx(1.0)


def test_build_front_types():
    data = base_scenario()
    data["front"] = {"kind": "circle", "center": [0.5, -0.5], "radius": 2.0}
    sc = scenario_from_dict(data)
    front = build_front(sc.front_spec)
    assert isinstance(front, CircleFront)
    assert front.exact_arc_rate((2.5, -0.5, 0.0)) == pytest.approx(0.5)

    data["front"] = {"kind": "line", "coef_x1": 0.0, "coef_x2": 2.0, "const": 1.0}
    front = build_front(scenario_from_dict(data).front_spec)
    assert isinstance(front, LineFront)
    assert front.value((0.0, -0.5, 9.0)) == pytest.approx(0.0)


def test_load_scenario_files(tmp_path):
    good = tmp_path / "good.yaml"
    good.write_text(
        "plate:\n"
        "  youngs_modulus: 1.0\n"
        "  poisson_ratio: 0.0\n"
        "  thickness: 1.0\n"
        "  areal_density: 1.0\n"
        "field:\n"
        "  family: invariant\n"
        "  wave_speed: 1.0\n"
        "  w_coefficients: [0, 1, 0, 0]\n"
        "  phi_coefficients: [0, 0, 0, 0]\n"
        "checks:\n"
        "  - type: pde_residual\n"
    )
    sc = load_scenario(good)
    assert sc.field_spec.family == "invariant"

    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.yaml")

    bad = tmp_path / "bad.yaml"
    bad.write_text("plate: [unclosed\n")
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_scenario(bad)


_YAML_DOCUMENT = (
    "plate: {youngs_modulus: 1.0, poisson_ratio: 0.0, thickness: 1.0, areal_density: 1.0}\n"
    "field: {family: invariant, wave_speed: 1.0,"
    " w_coefficients: [0, 1, 0, 0], phi_coefficients: [0, 0, 0, 0]}\n"
    "checks: [{type: pde_residual, samples: 40}]\n"
    "seed: 12\n"
    "tolerances: {analytic: %s, quadrature: %s}\n"
)


def test_load_scenario_reads_floats_without_a_dot(tmp_path):
    # YAML 1.1 reads 1e-8 as a string; a scenario file reads it as YAML 1.2 does
    path = tmp_path / "floats.yaml"
    path.write_text(_YAML_DOCUMENT % ("1e-8", "1E5"))
    tolerances = load_scenario(path).tolerances
    assert (tolerances.analytic, tolerances.quadrature) == (1e-8, 1e5)


def test_load_scenario_keeps_integers_int(tmp_path):
    path = tmp_path / "integers.yaml"
    path.write_text(_YAML_DOCUMENT % ("1.0e-8", "2"))
    sc = load_scenario(path)
    assert type(sc.seed) is int and sc.seed == 12
    assert type(sc.checks[0].samples) is int and sc.checks[0].samples == 40
    assert sc.tolerances.quadrature == 2.0


def test_load_scenario_rejects_a_quoted_float(tmp_path):
    path = tmp_path / "quoted.yaml"
    path.write_text(_YAML_DOCUMENT % ('"1e-8"', "1e-5"))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert str(err.value) == "tolerances.analytic: expected a finite number, got '1e-8'"


def test_shipped_example_scenario_loads():
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "examples_scenarios" / "wave_check.yaml"
    sc = load_scenario(path)
    assert sc.field_spec.family == "acceleration_wave"
    assert any(check.kind == "balance" for check in sc.checks)


def test_sample_front_point():
    line = LineFront(3.0, 4.0, 2.0, 0.7)
    for draw in (-1.0, -0.3, 0.0, 0.8):
        pt = sample_front_point(line, 0.4, draw)
        assert line.value(pt) == pytest.approx(0.0, abs=1e-12)
        assert pt[2] == 0.4

    circle = CircleFront(1.0, -1.0, 0.5, radial_speed=1.0)
    pt = sample_front_point(circle, 0.2, 0.25)
    assert circle.value(pt) == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(ValidationError):
        sample_front_point(object(), 0.0, 0.0)


def _front_point_reference(front, t, draw):
    """One point per draw in scalar arithmetic, with math.cos and math.sin."""
    if isinstance(front, LineFront):
        a, b = front.coef_x1, front.coef_x2
        e = front.coef_t * t + front.const
        norm2 = a * a + b * b
        norm = math.sqrt(norm2)
        return [-e * a / norm2 + draw * (-b / norm), -e * b / norm2 + draw * (a / norm), t]
    radius = front.radius + front.radial_speed * t
    theta = 2.0 * math.pi * draw
    return [
        front.center_x1 + radius * math.cos(theta),
        front.center_x2 + radius * math.sin(theta),
        t,
    ]


@pytest.mark.parametrize(
    "front",
    [LineFront(0.3, -1.7, 0.9, 0.2), CircleFront(-0.3, 0.7, 1.3, radial_speed=-0.37)],
    ids=["line", "circle"],
)
def test_front_points_are_the_per_draw_points(front):
    # one array call per time gives every draw's point with its bits
    draws = np.random.default_rng(8).uniform(-1.0, 1.0, 2000)
    for t in (0.0, 0.3, -0.2):
        expected = np.array([_front_point_reference(front, t, float(d)) for d in draws])
        assert sample_front_point(front, t, draws).tobytes() == expected.tobytes()
        assert sample_front_point(front, t, draws[0]).tobytes() == expected[0].tobytes()
    if isinstance(front, CircleFront):
        message = "^circular front has nonpositive radius at t=4.0$"
        with pytest.raises(ValidationError, match=message):
            sample_front_point(front, 4.0, draws)


@pytest.mark.parametrize(
    "where, key, path",
    [
        ("check", "step", "checks[0].step"),
        ("check", "tolerance", "checks[0].tolerance"),
        ("front", "radius", "front.radius"),
        ("tolerances", "analytic", "tolerances.analytic"),
        ("tolerances", "finite_difference", "tolerances.finite_difference"),
        ("tolerances", "quadrature", "tolerances.quadrature"),
    ],
)
@pytest.mark.parametrize("value", [0.0, -1e-3])
def test_positive_keys_are_rejected_with_their_path(where, key, path, value):
    # radius: 0 used to raise a bare ValidationError from build_field, and
    # a scenario tolerance of 0 to fail every row, even a residual of
    # exactly 0.0.  The conservation check takes its divergence exactly,
    # so a step and the finite_difference tolerance class are gone: they
    # are unknown keys, at any value
    data = base_scenario()
    data["checks"] = [{"type": "conservation", "laws": ["energy"], "samples": 1}]
    data["front"] = {"kind": "circle", "center": [0.0, 0.0], "radius": 0.5}
    data["tolerances"] = {}
    section = data["checks"][0] if where == "check" else data[where]
    section[key] = value
    if key in ("step", "finite_difference"):
        unknown = re.escape(f"{path.rpartition('.')[0]}: unknown key(s) ['{key}']")
        for v in (value, 2e-3):
            section[key] = v
            with pytest.raises(ScenarioError, match="^" + unknown):
                scenario_from_dict(data)
        return
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: must be > 0, got {value}") + "$"):
        scenario_from_dict(data)
    section[key] = 2e-3
    assert scenario_from_dict(data)


def test_scenario_to_dict_key_order():
    # the report embeds this mapping, so its key order is part of the
    # report bytes
    data = wave_scenario()
    data["region"] = {"x1_min": -1.0, "x1_max": 1.0, "x2_min": -1.0, "x2_max": 1.0}
    data["tolerances"] = {"quadrature": 1e-4}
    data["checks"] = [
        {"type": "conservation", "laws": [1], "points": [[0.1, 0.2, 0.3]], "tolerance": 1e-5},
        {"type": "balance", "laws": [1], "times": [0.1], "dt": 1e-3,
         "region": {"x1_min": -1.0, "x1_max": 1.0, "x2_min": -1.0, "x2_max": 1.0}},
        {"type": "conservation", "laws": [1], "samples": 2, "tolerance": 1e-5},
    ]
    out = scenario_to_dict(scenario_from_dict(data))
    assert list(out) == ["plate", "field", "region", "checks", "tolerances", "seed"]
    assert list(out["plate"]) == [
        "youngs_modulus", "poisson_ratio", "thickness", "areal_density"
    ]
    assert list(out["field"]) == [
        "family", "wave_speed", "w_coefficients", "phi_coefficients", "c1", "c2"
    ]
    region_keys = ["x1_min", "x1_max", "x2_min", "x2_max", "quad_order", "cells"]
    assert list(out["region"]) == region_keys
    assert out["region"]["cells"] == [4, 4]
    assert [list(c) for c in out["checks"]] == [
        ["type", "laws", "points", "tolerance"],
        ["type", "laws", "times", "dt", "region"],
        ["type", "laws", "samples", "tolerance"],
    ]
    assert out["checks"][0]["points"] == [[0.1, 0.2, 0.3]]
    assert list(out["checks"][1]["region"]) == region_keys
    assert list(out["tolerances"]) == ["analytic", "quadrature"]

    data = base_scenario()
    data["front"] = {"kind": "line", "coef_x1": 1.0, "coef_x2": 0.5}
    out = scenario_to_dict(scenario_from_dict(data))
    assert list(out) == ["plate", "field", "front", "checks", "tolerances", "seed"]
    assert list(out["field"]) == ["family", "wave_speed", "w_coefficients", "phi_coefficients"]
    assert out["front"] == {"kind": "line", "coef_x1": 1.0, "coef_x2": 0.5, "coef_t": 0.0, "const": 0.0}

    data["field"] = {
        "family": "polynomial",
        "w_terms": [{"exponents": [2, 0, 1], "coefficient": 0.5}],
        "phi_terms": [],
    }
    data["front"] = {"kind": "circle", "center": [0.5, -0.5], "radius": 2.0}
    out = scenario_to_dict(scenario_from_dict(data))
    assert out["field"] == {
        "family": "polynomial",
        "w_terms": [{"exponents": [2, 0, 1], "coefficient": 0.5}],
        "phi_terms": [],
    }
    assert list(out["front"]) == ["kind", "center", "radius", "radial_speed"]
    assert out["front"]["center"] == [0.5, -0.5]

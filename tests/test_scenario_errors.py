"""The exact error text of malformed scenario documents.

Each case edits one valid document and names the message its first
error gives: one case per value reader and per section, and documents
with two errors, which pin the order a section reads its keys in.
"""

import copy

import pytest

from vkwave.errors import ScenarioError
from vkwave.indexing import S0
from vkwave.scenario import build_field, load_scenario, scenario_from_dict, scenario_to_dict

_BASE = {
    "plate": {"youngs_modulus": 2.1, "poisson_ratio": 0.27, "thickness": 0.31, "areal_density": 1.7},
    "field": {
        "family": "invariant",
        "wave_speed": 1.0,
        "w_coefficients": [0.1, -0.2, 0.3, 0.4],
        "phi_coefficients": [0.0, 0.5, -0.6, 0.7],
    },
    "front": {"kind": "circle", "center": [0.5, -0.5], "radius": 2.0},
    "region": {"x1_min": -1.0, "x1_max": 1.0, "x2_min": -1.0, "x2_max": 1.0},
    "tolerances": {"analytic": 1e-8},
    "checks": [{"type": "pde_residual", "samples": 4}],
    "seed": 3,
}

_POLY = {"family": "polynomial", "w_terms": [{"exponents": [1, 0, 0], "coefficient": 1.0}], "phi_terms": []}
_WAVE = {"family": "acceleration_wave", "wave_speed": 1.0, "w_coefficients": [0, 0, 0, 0],
         "phi_coefficients": [0, 0, 0, 0], "c1": 1.0, "c2": 0.5}
_DELETE = object()


def _edited(*edits) -> dict:
    """The base document with each (key path, value) edit applied; a value
    of _DELETE removes the key."""
    data = copy.deepcopy(_BASE)
    for keys, value in edits:
        *parents, last = keys
        target = data
        for k in parents:
            target = target[k]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
    return data


def _check(**keys):
    return (("checks", 0), keys)


def _terms(**keys):
    return (("field",), dict(_POLY, **keys))


_LAW_NAMES = (
    "angular_momentum_x1, angular_momentum_x2, center_of_mass, compatibility, energy, "
    "galilean_moment_x1, galilean_moment_x2, moment_of_wave_momentum, phi_linear_x1, "
    "phi_linear_x2, scaling, transversal_linear_momentum, wave_momentum_x1, wave_momentum_x2"
)
_CHECK_KINDS = (
    "('pde_residual', 'conservation', 'dynamic_jumps', 'balance_jump', "
    "'closed_form_jump', 'wave_relations', 'balance')"
)

_MALFORMED = {
    # value readers
    "number": (
        [(("field", "wave_speed"), "fast")],
        "field.wave_speed: expected a finite number, got 'fast'",
    ),
    "number_bool": (
        [(("plate", "thickness"), True)],
        "plate.thickness: expected a finite number, got True",
    ),
    "positive": ([(("front", "radius"), 0)], "front.radius: must be > 0, got 0.0"),
    "integer": ([(("seed",), 1.5)], "scenario.seed: expected an integer, got 1.5"),
    "integer_minimum": ([(("seed",), -1)], "scenario.seed: must be >= 0, got -1"),
    "integer_samples": (
        [_check(type="pde_residual", samples=0)],
        "checks[0].samples: must be >= 1, got 0",
    ),
    "integer_quad_order": (
        [(("region", "quad_order"), "8")],
        "region.quad_order: expected an integer, got '8'",
    ),
    "numbers": (
        [(("field", "w_coefficients"), "abc")],
        "field.w_coefficients: expected a list of finite numbers",
    ),
    "numbers_length": (
        [(("field", "w_coefficients"), [1, 2, 3])],
        "field.w_coefficients: expected 4 numbers, got 3",
    ),
    "terms": (
        [_terms(w_terms={"exponents": [1, 0, 0]})],
        "field.w_terms: expected a list of terms",
    ),
    "term_mapping": ([_terms(w_terms=[3])], "field.w_terms[0]: expected a mapping, got int"),
    "term_exponents": (
        [_terms(w_terms=[{"exponents": [1, 0], "coefficient": 1.0}])],
        "field.w_terms[0].exponents: expected 3 nonnegative integers",
    ),
    "term_exponents_missing": (
        [_terms(w_terms=[{"coefficient": 1.0}])],
        "field.w_terms[0].exponents: required",
    ),
    "term_coefficient_missing": (
        [_terms(w_terms=[{"exponents": [0, 0, 1]}])],
        "field.w_terms[0].coefficient: required",
    ),
    "term_unknown": (
        [_terms(w_terms=[{"exponents": [0, 0, 1], "coefficient": 1.0, "power": 2}])],
        "field.w_terms[0]: unknown key(s) ['power']; allowed keys are ['coefficient', 'exponents']",
    ),
    "laws": (
        [_check(type="conservation", laws="some")],
        "checks[0].laws: expected 'all' or a non-empty list",
    ),
    "laws_name": (
        [_check(type="conservation", laws=["energy", "nope"])],
        f"checks[0].laws[1]: unknown law name 'nope'; valid names: {_LAW_NAMES}",
    ),
    "laws_index": (
        [_check(type="balance_jump", laws=[15])],
        "checks[0].laws[0]: law index must be 1..14, got 15",
    ),
    "laws_closed_form": (
        [_check(type="closed_form_jump", laws=[4, "compatibility"])],
        "checks[0].laws: law 'compatibility' has no closed-form jump condition; valid choices "
        "are ('wave_momentum_x1', 'wave_momentum_x2', 'energy', 'scaling', 'moment_of_wave_momentum')",
    ),
    "points": (
        [_check(type="pde_residual", points=[])],
        "checks[0].points: expected a non-empty list of 3-vectors",
    ),
    "points_entry": (
        [_check(type="conservation", points=[[0, 0, 0], [0, 0]])],
        "checks[0].points[1]: expected 3 finite numbers",
    ),
    "times": (
        [_check(type="dynamic_jumps", times=[0.0, "later"])],
        "checks[0].times: expected a non-empty list of finite numbers",
    ),
    "cells": ([(("region", "cells"), [4])], "region.cells: expected a pair of integers"),
    "cells_positive": (
        [(("region", "cells"), [4, 0])],
        "region: cells must be a pair of positive integers",
    ),
    # region reads cells before its bounds
    "region_two_errors": (
        [(("region", "x1_min"), "a"), (("region", "cells"), "bad")],
        "region.cells: expected a pair of integers",
    ),
    "region_bounds": ([(("region", "x1_max"), -2.0)], "region: region requires x1_min < x1_max"),
    "region_quad_order": ([(("region", "quad_order"), 2)], "region: quad_order must be at least 4"),
    "check_region": (
        [_check(type="balance", region={"x1_max": 1.0})],
        "checks[0].region.x1_min: required",
    ),
    # sections
    "scenario_unknown": (
        [(("extra",), 1)],
        "scenario: unknown key(s) ['extra']; allowed keys are "
        "['checks', 'field', 'front', 'plate', 'region', 'seed', 'tolerances']",
    ),
    "plate_missing": ([(("plate",), _DELETE)], "plate: required"),
    "plate_mapping": ([(("plate",), [1, 2])], "plate: expected a mapping, got list"),
    "plate_key_missing": ([(("plate", "areal_density"), _DELETE)], "plate.areal_density: required"),
    "plate_unknown": (
        [(("plate", "color"), "blue")],
        "plate: unknown key(s) ['color']; allowed keys are "
        "['areal_density', 'poisson_ratio', 'thickness', 'youngs_modulus']",
    ),
    "plate_invalid": (
        [(("plate", "poisson_ratio"), 0.6)],
        "plate: poisson_ratio must lie in (-1, 0.5), got 0.6",
    ),
    "family": (
        [(("field", "family"), "plane_wave")],
        "field.family: expected one of ('invariant', 'acceleration_wave', 'polynomial'), "
        "got 'plane_wave'",
    ),
    "family_missing": (
        [(("field", "family"), _DELETE)],
        "field.family: expected one of ('invariant', 'acceleration_wave', 'polynomial'), got None",
    ),
    "field_unknown": (
        [(("field", "c1"), 1.0)],
        "field: unknown key(s) ['c1']; allowed keys are "
        "['family', 'phi_coefficients', 'w_coefficients', 'wave_speed']",
    ),
    "wave_c1_missing": (
        [(("field",), {k: v for k, v in _WAVE.items() if k != "c1"}), (("front",), _DELETE)],
        "field.c1: required",
    ),
    "polynomial_unknown": (
        [_terms(wave_speed=1.0)],
        "field: unknown key(s) ['wave_speed']; allowed keys are ['family', 'phi_terms', 'w_terms']",
    ),
    "phi_terms_missing": (
        [(("field",), {k: v for k, v in _POLY.items() if k != "phi_terms"})],
        "field.phi_terms: required",
    ),
    "front_mapping": ([(("front",), "line")], "front: expected a mapping, got str"),
    "front_kind": (
        [(("front", "kind"), "ellipse")],
        "front.kind: expected 'line' or 'circle', got 'ellipse'",
    ),
    "front_kind_list": (
        [(("front", "kind"), ["line"])],
        "front.kind: expected 'line' or 'circle', got ['line']",
    ),
    "front_line_missing": (
        [(("front",), {"kind": "line", "coef_x1": 1.0})],
        "front.coef_x2: required",
    ),
    "front_line_no_gradient": (
        [(("front",), {"kind": "line", "coef_x1": 0, "coef_x2": 0})],
        "front: line front needs a nonzero spatial gradient",
    ),
    "front_line_unknown": (
        [(("front",), {"kind": "line", "coef_x1": 1.0, "coef_x2": 0.5, "radius": 1.0})],
        "front: unknown key(s) ['radius']; allowed keys are "
        "['coef_t', 'coef_x1', 'coef_x2', 'const', 'kind']",
    ),
    # a circle reads its center before its radius
    "front_circle_two_errors": (
        [(("front",), {"kind": "circle", "center": [0.0], "radius": -1.0})],
        "front.center: expected 2 numbers, got 1",
    ),
    "wave_with_front": (
        [(("field",), _WAVE)],
        "front: an acceleration_wave field defines its own front; remove this section",
    ),
    "tolerances_mapping": ([(("tolerances",), 1e-8)], "tolerances: expected a mapping, got float"),
    "tolerances_unknown": (
        [(("tolerances", "finite_difference"), 1e-6)],
        "tolerances: unknown key(s) ['finite_difference']; allowed keys are ['analytic', 'quadrature']",
    ),
    "checks_empty": ([(("checks",), [])], "checks: expected a non-empty list"),
    "check_mapping": ([(("checks",), ["pde_residual"])], "checks[0]: expected a mapping, got str"),
    "check_type": (
        [_check(type="unknown_check")],
        f"checks[0].type: expected one of {_CHECK_KINDS}, got 'unknown_check'",
    ),
    "check_unknown": (
        [_check(type="pde_residual", laws=["energy"])],
        "checks[0]: unknown key(s) ['laws']; allowed keys are "
        "['points', 'samples', 'tolerance', 'type']",
    ),
    # a check reads laws before times and dt
    "check_three_errors": (
        [_check(type="balance", laws=[], times="now", dt=0)],
        "checks[0].laws: expected 'all' or a non-empty list",
    ),
    "check_requires_front": (
        [(("front",), _DELETE), _check(type="dynamic_jumps")],
        "checks[0]: dynamic_jumps requires a front (add a front section or use the "
        "acceleration_wave family)",
    ),
}


def test_base_document_loads():
    assert scenario_from_dict(copy.deepcopy(_BASE))


def test_a_document_that_is_no_mapping():
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict([1, 2])
    assert str(info.value) == "scenario: expected a mapping, got list"


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_documents_give_their_exact_message(case):
    edits, message = _MALFORMED[case]
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_edited(*edits))
    assert str(info.value) == message


@pytest.mark.parametrize("key", ["w_terms", "phi_terms"])
def test_a_repeated_monomial_is_rejected(key):
    # build_field keeps one coefficient per exponent triple, so a repeated
    # triple would drop every coefficient but the last one silently
    terms = [
        {"exponents": [1, 0, 0], "coefficient": 1.0},
        {"exponents": [0, 2, 0], "coefficient": 3.0},
        {"exponents": [1, 0, 0], "coefficient": 2.0},
    ]
    data = _edited(_terms(**{key: terms}))
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert str(info.value) == (
        f"field.{key}[2].exponents: repeats field.{key}[0].exponents [1, 0, 0]"
    )

    terms[2]["exponents"] = [0, 0, 1]
    jet = build_field(scenario_from_dict(data)).jet((0.5, 0.2, 0.3))
    value = (jet.w if key == "w_terms" else jet.phi)[S0]
    assert value == pytest.approx(1.0 * 0.5 + 3.0 * 0.2**2 + 2.0 * 0.3)


def test_points_and_samples_exclude_each_other():
    # a check with points runs on them, so samples next to them would do nothing
    for kind in ("pde_residual", "conservation"):
        data = _edited(_check(type=kind, points=[[0.1, 0.2, 0.3]], samples=5))
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(data)
        assert str(info.value) == "checks[0]: takes points or samples, not both"
        del data["checks"][0]["samples"]
        assert scenario_to_dict(scenario_from_dict(data))["checks"][0]["points"] == [[0.1, 0.2, 0.3]]


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("field:\n  wave_speed: 1.0\n  wave_speed: 2.0\n", "wave_speed", 3),
        ("checks: [{type: pde_residual}]\nseed: 1\nchecks: [{type: conservation}]\n", "checks", 3),
        ("plate: {thickness: 0.3, thickness: 0.4}\n", "thickness", 1),
    ],
    ids=["field_key", "top_level_key", "flow_mapping_key"],
)
def test_a_key_given_twice_fails_to_load(tmp_path, text, key, line):
    # YAML keeps a repeated key's last value, which would drop the first
    # without a word: the second wave_speed, or the first checks list
    path = tmp_path / "repeated.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    message = str(info.value)
    assert message.startswith(f"scenario file {path} is not valid YAML: while constructing a mapping")
    assert f"found duplicate key {key!r}\n  in \"{path}\", line {line}," in message

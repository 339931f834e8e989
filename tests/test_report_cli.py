import csv
import dataclasses
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from vkwave import cli, solutions
from vkwave.conservation import _DENSITY_SLOTS, _ROW_SLOTS
from vkwave.errors import ValidationError
from vkwave.indexing import JET_SIZE, S33, S1111
from vkwave.jumps import (
    balance_jump_residual,
    balance_jump_scale,
    closed_form_jump_residual,
    dynamic_jump_residuals,
    dynamic_jump_scales,
    extract_jumps,
)
from vkwave.report import _run_check, emit_report, run_scenario
from vkwave.scenario import CHECK_KINDS, build_field, sample_front_point, scenario_from_dict
from vkwave.solutions import _PDE_SLOTS, PiecewiseField, Side, pde_residual, pde_term_scales, polynomial_field
from vkwave.wavefront import CircleFront

_EXAMPLE_SCENARIO = Path(__file__).resolve().parents[1] / "examples_scenarios" / "wave_check.yaml"


def passing_scenario() -> dict:
    return {
        "plate": {
            "youngs_modulus": 0.28867513459481287,
            "poisson_ratio": 0.0,
            "thickness": 3.4641016151377544,
            "areal_density": 1.0,
        },
        "field": {
            "family": "acceleration_wave",
            "wave_speed": 1.0,
            "w_coefficients": [0, 0, 0, 0],
            "phi_coefficients": [0, 0, 0, 0],
            "c1": 1.0,
            "c2": 0.5,
        },
        "checks": [
            {"type": "pde_residual", "samples": 3},
            {"type": "dynamic_jumps", "times": [0.0], "samples": 2},
            {"type": "wave_relations"},
        ],
        "seed": 11,
    }


def failing_scenario() -> dict:
    data = passing_scenario()
    data["field"]["c2"] = 0.4
    return data


def erroring_scenario() -> dict:
    # a smooth branch pasted on both sides of a front is not an
    # acceleration wave, so the closed-form check errors out
    data = passing_scenario()
    data["field"] = {
        "family": "invariant",
        "wave_speed": 1.0,
        "w_coefficients": [0.1, 0.2, 0.3, 0.4],
        "phi_coefficients": [0, 0, 0, 0],
    }
    data["front"] = {"kind": "line", "coef_x1": 1.0, "coef_x2": 0.0, "coef_t": -1.0}
    data["checks"] = [{"type": "closed_form_jump", "laws": ["energy"], "times": [0.0]}]
    return data


def test_run_scenario_all_pass():
    report = run_scenario(scenario_from_dict(passing_scenario()))
    assert report.exit_code == 0
    assert report.failed == report.errors == 0
    assert report.passed == len(report.results) >= 3
    kinds = {r.kind for r in report.results}
    assert kinds == {"pde_residual", "dynamic_jumps", "wave_relations"}
    for r in report.results:
        assert r.status == "pass"
        assert r.residual <= r.tolerance


def test_run_scenario_detects_violation():
    report = run_scenario(scenario_from_dict(failing_scenario()))
    assert report.exit_code == 1
    by_name = {r.name: r for r in report.results}
    assert by_name["wave_relations"].status == "fail"
    # the dynamic conditions hold for every acceleration wave
    for r in report.results:
        if r.kind == "dynamic_jumps":
            assert r.status == "pass"


def test_run_scenario_reports_errors():
    report = run_scenario(scenario_from_dict(erroring_scenario()))
    assert report.exit_code == 2
    assert report.errors >= 1
    bad = [r for r in report.results if r.status == "error"]
    assert bad
    assert "acceleration wave" in bad[0].detail
    assert bad[0].residual is None


def test_pde_residual_check_is_batched(count_jet_calls, monkeypatch):
    # the batched maxima equal the maximum over one unbatched jet, computed
    # here from the same seeded draws; 256 points of full jets a batch put
    # the 5,000 points in four pde batches
    monkeypatch.setattr(solutions, "_BATCH_POINTS", 256)
    data = passing_scenario()
    n = 5000
    data["checks"] = [{"type": "pde_residual", "samples": n}]
    scenario = scenario_from_dict(data)
    field = build_field(scenario)
    pts = np.random.default_rng(scenario.seed).uniform(-1.0, 1.0, (n, 3))
    jet = field.jet(pts)
    r1, r2 = pde_residual(jet, field.params)
    s1, s2 = pde_term_scales(jet, field.params)
    expected = max(
        float(np.max(np.abs(r1) / np.maximum(1.0, s1))),
        float(np.max(np.abs(r2) / np.maximum(1.0, s2))),
    )
    assert expected > 0.0

    sizes = count_jet_calls(field)
    (result,) = run_scenario(scenario).results
    assert result.residual == expected
    assert sum(sizes) == n
    assert len(sizes) >= 3
    assert max(sizes) <= solutions._BATCH_POINTS * JET_SIZE // len(_PDE_SLOTS)


def test_pde_residual_batches_are_sized_by_jet_values(count_jet_calls):
    # a jet of the seven pde slots stores 7 of 35 values a point, so a
    # batch takes five times _BATCH_POINTS points
    data = passing_scenario()
    data["checks"] = [{"type": "pde_residual", "samples": 200_000}]
    scenario = scenario_from_dict(data)
    sizes = count_jet_calls(build_field(scenario))
    (result,) = run_scenario(scenario).results
    assert result.status == "pass"
    assert len(sizes) == 20
    assert sizes[:-1] == [5 * solutions._BATCH_POINTS] * 19
    assert sum(sizes) == 200_000


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["passing", "first_batch_raises"])
def test_pde_residual_leaves_the_generator_after_all_its_draws(case, count_jet_calls):
    # a sampled check draws its points a batch at a time, and leaves the
    # generator where one draw of all of them leaves it, also when its
    # first batch raises, so that the checks after it draw what they would
    if case == "passing":
        data, n = passing_scenario(), 25_000
    else:
        data, n = passing_scenario(), 30_000
        data["field"] = {
            "family": "polynomial",
            "w_terms": [{"exponents": [4, 0, 0], "coefficient": 1.0e307}],
            "phi_terms": [],
        }
        data["seed"] = 5
    data["checks"] = [{"type": "pde_residual", "samples": n}]
    scenario = scenario_from_dict(data)
    field = build_field(scenario)
    sizes = count_jet_calls(field)
    rng = np.random.default_rng(scenario.seed)
    (row,) = _run_check(scenario, field, scenario.checks[0], rng)
    if case == "passing":
        assert row.status == "pass"
        assert len(sizes) >= 3
    else:
        assert (row.status, row.detail) == (
            "error", "ValidationError: w contains non-finite entries",
        )
        assert len(sizes) == 1
    assert sum(sizes) <= n
    fresh = np.random.default_rng(scenario.seed)
    fresh.uniform(-1.0, 1.0, (n, 3))
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_pde_residual_memory_does_not_grow_with_samples():
    # the traced peak of one sampled check holds one batch of points and
    # jets, not one array of every point
    data = passing_scenario()

    def peak(n):
        data["checks"] = [{"type": "pde_residual", "samples": n}]
        scenario = scenario_from_dict(data)
        field = build_field(scenario)
        rng = np.random.default_rng(scenario.seed)
        tracemalloc.start()
        try:
            (row,) = _run_check(scenario, field, scenario.checks[0], rng)
            assert row.status == "pass"
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2_048)  # one-time allocations out of the way
    small, large = peak(20_480), peak(204_800)
    assert large <= 1.25 * small, (small, large)


def test_json_report_shape_and_determinism():
    scenario = scenario_from_dict(passing_scenario())
    blob_a = emit_report(run_scenario(scenario), "json")
    blob_b = emit_report(run_scenario(scenario), "json")
    assert blob_a == blob_b

    doc = json.loads(blob_a)
    assert set(doc) == {"version", "scenario", "checks", "summary"}
    assert "duration" not in json.dumps(doc)
    assert doc["summary"]["failed"] == doc["summary"]["errors"] == 0
    assert doc["summary"]["passed"] == doc["summary"]["total"] == len(doc["checks"])
    # the embedded scenario echo revalidates
    assert scenario_from_dict(doc["scenario"]) == scenario


def test_csv_report_rows():
    report = run_scenario(scenario_from_dict(passing_scenario()))
    rows = list(csv.reader(io.StringIO(emit_report(report, "csv").decode())))
    assert rows[0] == ["name", "kind", "status", "residual", "tolerance", "detail"]
    assert len(rows) == len(report.results) + 1
    assert all(row[2] == "pass" for row in rows[1:])


def test_csv_residual_cells_are_plain_numbers():
    # closed_form_jump rows used to print np.float64(...) here
    report = run_scenario(scenario_from_dict(yaml.safe_load(_EXAMPLE_SCENARIO.read_text())))
    rows = list(csv.DictReader(io.StringIO(emit_report(report, "csv").decode())))
    residuals = [float(row["residual"]) for row in rows if row["residual"]]
    assert len(residuals) == len(rows)
    assert any(
        row["kind"] == "closed_form_jump" and float(row["residual"]) > 0.0 for row in rows
    )


def test_human_report_summary_line():
    report = run_scenario(scenario_from_dict(failing_scenario()))
    text = emit_report(report, "human").decode()
    n = len(report.results)
    assert f"{n} checks: {report.passed} passed, {report.failed} failed, 0 errors" in text
    assert "  fail" in text


def test_emit_report_rejects_unknown_format():
    report = run_scenario(scenario_from_dict(passing_scenario()))
    with pytest.raises(ValidationError):
        emit_report(report, "xml")


@pytest.fixture()
def scenario_file(tmp_path):
    import yaml

    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(passing_scenario()))
    return path


def test_cli_pass_and_out_file(tmp_path, scenario_file, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        ["check", "--scenario", str(scenario_file), "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_bytes())
    assert doc["summary"]["failed"] == doc["summary"]["errors"] == 0
    # nothing on stdout when writing to a file
    assert capsys.readouterr().out == ""


def test_cli_prints_report_to_stdout(scenario_file, capsys):
    code = cli.main(["check", "--scenario", str(scenario_file)])
    assert code == 0
    captured = capsys.readouterr()
    assert "checks:" in captured.out


def test_cli_exit_one_on_failures(tmp_path, capsys):
    import yaml

    path = tmp_path / "failing.yaml"
    path.write_text(yaml.safe_dump(failing_scenario()))
    code = cli.main(["check", "--scenario", str(path), "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["failed"] >= 1


def test_cli_error_paths(tmp_path, capsys):
    code = cli.main(["check", "--scenario", str(tmp_path / "absent.yaml")])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.yaml"
    bad.write_text("field: 3\n")
    assert cli.main(["check", "--scenario", str(bad)]) == 2

    code = cli.main(["check", "--scenario", str(bad), "--seed", "-5"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_seed_override_is_applied(tmp_path, capsys):
    import yaml

    data = passing_scenario()
    data["checks"] = [{"type": "pde_residual", "samples": 2}]
    path = tmp_path / "seeded.yaml"
    path.write_text(yaml.safe_dump(data))

    cli.main(["check", "--scenario", str(path), "--format", "json", "--seed", "11"])
    same = json.loads(capsys.readouterr().out)
    cli.main(["check", "--scenario", str(path), "--format", "json"])
    default = json.loads(capsys.readouterr().out)
    assert same["scenario"]["seed"] == 11
    assert default["scenario"]["seed"] == 11
    assert same == default

    cli.main(["check", "--scenario", str(path), "--format", "json", "--seed", "12"])
    other = json.loads(capsys.readouterr().out)
    assert other["scenario"]["seed"] == 12


_GENERIC_PLATE = {
    "youngs_modulus": 2.1,
    "poisson_ratio": 0.27,
    "thickness": 0.31,
    "areal_density": 1.7,
}


def _circle_jump_field(p):
    """Polynomial branches across an expanding circle.  Inside, w carries
    an extra x3^2 x2, so the field is an acceleration wave at t = 0 only."""
    w = {(2, 0, 1): 0.3, (1, 1, 0): -0.7, (0, 3, 0): 0.2, (1, 0, 2): 0.5}
    phi = {(2, 1, 0): 0.4, (0, 2, 1): -0.3, (3, 0, 0): 0.1}
    outside = polynomial_field(w, phi, p)
    inside = polynomial_field({**w, (0, 1, 2): 1.0}, phi, p)
    return PiecewiseField(outside, inside, CircleFront(0.1, -0.2, 0.4, 0.3), p)


def _jump_scenario(front: str, monkeypatch):
    """Every jump check, on the line front of a wave on a generic plate or
    on the circle of _circle_jump_field; returns the scenario and its field."""
    checks = [
        {"type": "dynamic_jumps", "times": [0.0, 0.2], "samples": 5},
        {"type": "balance_jump", "times": [0.0, 0.2], "samples": 4},
    ]
    if front == "line":
        field = {
            "family": "acceleration_wave",
            "wave_speed": 0.9,
            "w_coefficients": [0.4, -0.2, 0.9, 0.5],
            "phi_coefficients": [0.3, 0.8, -0.6, 0.2],
            "c1": 0.7,
            "c2": -0.4,
        }
        checks.append({"type": "closed_form_jump", "times": [0.1, 0.3], "samples": 4})
        scenario = scenario_from_dict(
            {"plate": _GENERIC_PLATE, "field": field, "checks": checks, "seed": 4}
        )
        return scenario, build_field(scenario)

    checks += [
        {"type": "closed_form_jump", "times": [0.0], "samples": 4},
        {"type": "closed_form_jump", "times": [0.0, 0.5], "samples": 3},
    ]
    scenario = scenario_from_dict(
        {
            "plate": _GENERIC_PLATE,
            "field": {"family": "polynomial", "w_terms": [], "phi_terms": []},
            "front": {"kind": "circle", "center": [0.1, -0.2], "radius": 0.4},
            "checks": checks,
            "seed": 5,
        }
    )
    field = _circle_jump_field(scenario.plate)
    monkeypatch.setattr("vkwave.scenario.build_field", lambda _: field)
    return scenario, field


def _per_record_rows(scenario, field) -> list:
    """Each jump check's residual (or error detail), recomputed from the
    public per-record functions on records drawn from the same seed."""
    rng = np.random.default_rng(scenario.seed)
    p = field.params
    rows = []
    for check in scenario.checks:
        records = [
            extract_jumps(field, sample_front_point(field.front, t, float(rng.uniform(-1.0, 1.0))))
            for t in check.times
            for _ in range(check.samples)
        ]
        if check.kind == "dynamic_jumps":
            worst = 0.0
            for rec in records:
                r_w, r_phi = dynamic_jump_residuals(rec, p)
                s_w, s_phi = dynamic_jump_scales(rec, p)
                worst = max(worst, abs(r_w) / max(1.0, s_w), abs(r_phi) / max(1.0, s_phi))
            rows.append(worst)
            continue
        for name in check.laws:
            worst = 0.0
            try:
                for rec in records:
                    if check.kind == "balance_jump":
                        r = balance_jump_residual(name, rec, p)
                    else:
                        r = closed_form_jump_residual(name, rec, p)
                    worst = max(worst, abs(r) / max(1.0, balance_jump_scale(name, rec, p)))
            except Exception as exc:
                worst = f"{type(exc).__name__}: {exc}"
            rows.append(worst)
    return rows


@pytest.mark.parametrize("front", ["line", "circle"])
def test_jump_checks_equal_per_record_maxima(front, monkeypatch):
    scenario, field = _jump_scenario(front, monkeypatch)
    expected = _per_record_rows(scenario, field)
    # one point per jet batch puts a check's first failing point in a
    # later batch than its first point
    for batch_points in (solutions._BATCH_POINTS, 1):
        monkeypatch.setattr(solutions, "_BATCH_POINTS", batch_points)
        report = run_scenario(scenario)
        got = [r.detail if r.status == "error" else r.residual for r in report.results]
        assert got == expected, batch_points
        assert sum(isinstance(v, float) and v > 0.0 for v in got) >= 10
        if front == "circle":
            # the second closed-form check reaches t = 0.5, where the records
            # fail the acceleration-wave test: its rows quote the first of them
            errors = [r.detail for r in report.results if r.status == "error"]
            assert len(errors) == 5
            prefix = "NonAdmissibleRecordError: record is not an acceleration wave ([w] != 0"
            assert all(d.startswith(prefix) for d in errors)


@pytest.mark.parametrize("front", ["line", "circle"])
def test_jump_checks_make_one_jet_call_per_side(front, monkeypatch, count_jet_calls):
    scenario, field = _jump_scenario(front, monkeypatch)
    sizes = count_jet_calls(field)
    for check in scenario.checks:
        sizes.clear()
        run_scenario(dataclasses.replace(scenario, checks=(check,)))
        n = len(check.times) * check.samples
        assert sizes == [n, n], check.kind


def test_jump_check_error_takes_the_draws_up_to_the_failing_point(monkeypatch):
    # A shrinking circle has no points at t = 2, so the check errors there
    # after one draw, as if each point were drawn on its own: the check
    # after it samples what it samples after a check taking 3 + 1 draws.
    def run(first_check):
        data = {
            "plate": _GENERIC_PLATE,
            "field": {
                "family": "polynomial",
                "w_terms": [{"exponents": [3, 1, 0], "coefficient": 0.4}],
                "phi_terms": [{"exponents": [0, 2, 1], "coefficient": -0.3}],
            },
            "front": {"kind": "circle", "center": [0.0, 0.0], "radius": 0.5, "radial_speed": -0.3},
            "checks": [first_check, {"type": "conservation", "laws": [4, 5], "samples": 2}],
            "seed": 3,
        }
        return run_scenario(scenario_from_dict(data)).results

    for batch_points in (solutions._BATCH_POINTS, 1):
        monkeypatch.setattr(solutions, "_BATCH_POINTS", batch_points)
        failed = run({"type": "balance_jump", "laws": [1], "times": [0.0, 2.0], "samples": 3})
        same_draws = run({"type": "dynamic_jumps", "times": [0.0], "samples": 4})
        assert failed[0].status == "error"
        assert failed[0].detail == (
            "ValidationError: circular front has nonpositive radius at t=2.0"
        )
        assert failed[1:] == same_draws[1:]
        assert failed[1].residual > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "wave_speed, w_coefficients, detail",
    [
        (1.0, [0, 0, 0, 0], None),
        (2.0, [0, 0, 1e308, 0], "ValidationError: w contains non-finite entries"),
    ],
)
def test_conservation_error_is_the_first_failing_points(
    wave_speed, w_coefficients, detail, monkeypatch
):
    # the check's points are a clear point, then one 1e-4 from the front,
    # whose exact divergence needs no clearance: with finite jets both laws
    # pass, and when the first point's jets overflow, their error is the
    # check's error row
    data = passing_scenario()
    data["field"]["wave_speed"] = wave_speed
    data["field"]["w_coefficients"] = w_coefficients
    data["checks"] = [
        {
            "type": "conservation",
            "laws": ["energy", "scaling"],
            "points": [[0.6, -0.3, 0.2], [1e-4, 0.0, 0.0]],
        }
    ]
    for batch_points in (solutions._BATCH_POINTS, 1):
        monkeypatch.setattr(solutions, "_BATCH_POINTS", batch_points)
        rows = run_scenario(scenario_from_dict(data)).results
        if detail is None:
            assert [(r.name, r.status, r.tolerance) for r in rows] == [
                ("conservation[energy]", "pass", 1e-9),
                ("conservation[scaling]", "pass", 1e-9),
            ], batch_points
            continue
        (row,) = rows
        assert (row.name, row.status, row.tolerance, row.detail) == (
            "conservation", "error", None, detail,
        ), batch_points


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_residual_fails_instead_of_passing():
    # products of 1e160 coefficients overflow to inf - inf in the energy
    # and scaling rows; the builtin max used to drop the NaN and pass
    data = yaml.safe_load(_EXAMPLE_SCENARIO.read_text())
    data["field"]["w_coefficients"] = [0, 1e160, 0, 0]
    data["field"]["phi_coefficients"] = [0, 0, 1e160, 0]
    data["checks"] += [
        {"type": "balance_jump", "laws": ["energy", "scaling"]},
        {"type": "balance", "laws": ["energy"], "times": [0.1]},
    ]
    report = run_scenario(scenario_from_dict(data))
    rows = {r.name: r for r in report.results}
    for name in (
        "conservation[energy]",
        "closed_form_jump[energy]",
        "balance_jump[energy]",
        "balance_jump[scaling]",
        "balance[energy]",
    ):
        assert rows[name].status == "fail", name
        assert math.isnan(rows[name].residual), name
    doc = json.loads(emit_report(report, "json"))
    assert {c["name"]: c["residual"] for c in doc["checks"]}["balance_jump[energy]"] == "nan"
    # rows whose terms stay finite keep their value
    assert rows["dynamic_jumps"].residual == 0.0
    assert rows["conservation[compatibility]"].residual == 0.0



@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pde_residual_row_with_a_nan_second_equation_fails():
    # w = 1e160 (x1^2 + x2^2 + x1 x2): w11 w22 and w12^2 both overflow, so
    # the second equation is inf - inf at every point while the first is 0
    data = passing_scenario()
    data["field"] = {
        "family": "polynomial",
        "w_terms": [
            {"exponents": e, "coefficient": 1e160} for e in ([2, 0, 0], [0, 2, 0], [1, 1, 0])
        ],
        "phi_terms": [],
    }
    data["checks"] = [{"type": "pde_residual", "samples": 3}]
    (row,) = run_scenario(scenario_from_dict(data)).results
    assert row.status == "fail"
    assert math.isnan(row.residual)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pde_residual_overflow_in_a_filled_slot_is_an_error_row(monkeypatch):
    # omega = 2 makes w11 = -4e308 sin(2 xi) overflow: the check fills only
    # the slots the equations read, and an inf there still errors the row
    data = passing_scenario()
    data["field"]["wave_speed"] = 2.0
    data["field"]["w_coefficients"] = [0, 0, 1e308, 0]
    data["checks"] = [{"type": "pde_residual", "samples": 50}]
    for batch_points in (solutions._BATCH_POINTS, 1):
        monkeypatch.setattr(solutions, "_BATCH_POINTS", batch_points)
        (row,) = run_scenario(scenario_from_dict(data)).results
        assert (row.name, row.status, row.residual, row.tolerance, row.detail) == (
            "pde_residual", "error", None, None,
            "ValidationError: w contains non-finite entries",
        ), batch_points


def _every_kind_scenario() -> dict:
    """One check of every kind on the example wave, with a distinct
    scenario tolerance for each tolerance class."""
    data = yaml.safe_load(_EXAMPLE_SCENARIO.read_text())
    data["region"]["cells"] = [2, 2]
    data["tolerances"] = {"analytic": 2e-9, "quadrature": 4e-5}
    data["checks"] = [
        {"type": "pde_residual", "samples": 2},
        {"type": "conservation", "laws": [1, 4], "samples": 1},
        {"type": "dynamic_jumps", "samples": 1},
        {"type": "balance_jump", "laws": [1, 4], "samples": 1},
        {"type": "closed_form_jump", "laws": ["energy"], "samples": 1},
        {"type": "wave_relations"},
        {"type": "balance", "laws": [1], "times": [0.1]},
    ]
    return data


def test_each_row_takes_its_class_tolerance_or_its_own():
    data = _every_kind_scenario()
    classes = {"balance": 4e-5}
    report = run_scenario(scenario_from_dict(data))
    assert {r.kind for r in report.results} == set(CHECK_KINDS)
    assert report.errors == 0
    for r in report.results:
        assert r.tolerance == classes.get(r.kind, 2e-9), r.name

    own = {}
    for i, check in enumerate(data["checks"]):
        check["tolerance"] = own[check["type"]] = 1e-3 * (i + 1)
    report = run_scenario(scenario_from_dict(data))
    assert len(report.results) == 9
    for r in report.results:
        assert r.tolerance == own[r.kind], r.name


def test_error_rows_keep_their_tolerance_only_per_law():
    # a check that raises gives one row without a tolerance; a law of a
    # closed-form check that raises gives its own row with the tolerance
    data = erroring_scenario()
    data["tolerances"] = {"analytic": 2e-9}
    data["front"] = {"kind": "circle", "center": [0.0, 0.0], "radius": 0.5, "radial_speed": -0.3}
    data["checks"] = [
        {"type": "closed_form_jump", "laws": ["energy", "scaling"], "times": [0.0]},
        {"type": "closed_form_jump", "laws": ["energy"], "times": [0.0], "tolerance": 1e-7},
        {"type": "balance_jump", "laws": ["energy", "scaling"], "times": [2.0]},
    ]
    rows = run_scenario(scenario_from_dict(data)).results
    assert [(r.name, r.status, r.tolerance) for r in rows] == [
        ("closed_form_jump[energy]", "error", 2e-9),
        ("closed_form_jump[scaling]", "error", 2e-9),
        ("closed_form_jump[energy]", "error", 1e-7),
        ("balance_jump", "error", None),
    ]
    assert all(r.residual is None for r in rows)
    assert rows[0].detail.startswith("NonAdmissibleRecordError: record is not an acceleration wave")
    assert rows[3].detail == "ValidationError: circular front has nonpositive radius at t=2.0"


@pytest.mark.parametrize("batch_points", [1, 7])
def test_report_bytes_do_not_depend_on_the_batch_size(batch_points, monkeypatch):
    # nine draws per check, and two times for dynamic_jumps: every sampled
    # check has more points than a batch of full jets holds
    data = _every_kind_scenario()
    for check in data["checks"]:
        if "samples" in check:
            check["samples"] = 9
    data["checks"][2]["times"] = [0.0, 0.3]
    scenario = scenario_from_dict(data)
    expected = emit_report(run_scenario(scenario), "json")

    monkeypatch.setattr(solutions, "_BATCH_POINTS", batch_points)
    field = build_field(scenario)
    jet, calls = type(field).jet, []

    def counted(self, point, side=Side.AUTO, slots=None, **kwargs):
        calls.append((len(point), slots))
        return jet(self, point, side, slots, **kwargs)

    monkeypatch.setattr(type(field), "jet", counted)
    assert emit_report(run_scenario(scenario), "json") == expected
    # the pde check fills the slots of each field its nonzero terms read,
    # in batches sized for all seven _PDE_SLOTS of both fields; a balance
    # pass fills the same slots of both fields
    pde = solutions._pde_plan(field._zero_slots)[0]
    assert pde == ((S33, S1111), ())
    density, row = (_DENSITY_SLOTS, _DENSITY_SLOTS), (_ROW_SLOTS, _ROW_SLOTS)
    assert {slots for _, slots in calls} == {None, pde, density, row}
    for n, slots in calls:
        assert n <= solutions._batch_size((_PDE_SLOTS, _PDE_SLOTS) if slots == pde else slots)


def test_pde_points_and_samples_fill_the_same_slots_into_a_kept_block(monkeypatch):
    # both forms of the check fill the slots the wave's nonzero terms read,
    # w_33 and w_1111 and no phi slot, each batch into the one block the
    # check keeps
    data = _every_kind_scenario()
    data["checks"] = [
        {"type": "pde_residual", "samples": 30},
        {"type": "pde_residual", "points": np.random.default_rng(3).uniform(-1.0, 1.0, (30, 3)).tolist()},
    ]
    scenario = scenario_from_dict(data)
    field = build_field(scenario)
    jet, calls = type(field).jet, []

    def counted(self, point, side=Side.AUTO, slots=None, **kwargs):
        filled = jet(self, point, side, slots, **kwargs)
        calls.append((slots, kwargs["_block"], filled.w.values.shape[1:], filled.phi.values.shape[1:]))
        return filled

    monkeypatch.setattr(solutions, "_BATCH_POINTS", 2)
    monkeypatch.setattr(type(field), "jet", counted)
    assert [r.status for r in run_scenario(scenario).results] == ["pass", "pass"]
    assert len(calls) == 6
    assert {(slots, w, phi) for slots, _, w, phi in calls} == {(((S33, S1111), ()), (2,), (0,))}
    for check in (calls[:3], calls[3:]):
        assert all(block is check[0][1] for _, block, _, _ in check)


def _polynomial_pde_scenario(w_terms) -> dict:
    data = passing_scenario()
    data["field"] = {"family": "polynomial", "w_terms": w_terms, "phi_terms": []}
    data["checks"] = [{"type": "pde_residual", "points": [[0.5, 0.2, 0.3], [-0.4, 0.5, 0.0]]}]
    return data


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pde_residual_checks_the_slots_it_reads_for_finite_values():
    # w_1111 overflows: the check reads it, and gives an error row
    big = {"exponents": [4, 0, 0], "coefficient": 1e308}
    (row,) = run_scenario(scenario_from_dict(_polynomial_pde_scenario([big]))).results
    assert (row.status, row.detail) == ("error", "ValidationError: w contains non-finite entries")
    # w_11 overflows, but no term that reads it is left beside w_22 = phi_22
    # = 0, so it is not filled, and the row is the zero residual
    big = {"exponents": [2, 0, 0], "coefficient": 1e308}
    scenario = scenario_from_dict(_polynomial_pde_scenario([big]))
    assert solutions._pde_plan(build_field(scenario)._zero_slots) == (((), ()), (0, 0))
    (row,) = run_scenario(scenario).results
    assert (row.status, row.residual) == ("pass", 0.0)


def test_sampling_exhaustion_error_takes_every_candidate_draw(monkeypatch):
    # with every candidate on the front, none is clear of it: the check
    # errors after 200 n + 100 candidates of three draws each, and the
    # check after it samples what it samples after a pde_residual check of
    # as many points
    monkeypatch.setattr(
        "vkwave.report._front_distance", lambda front, points: np.zeros(len(points))
    )

    def run(first_check):
        data = yaml.safe_load(_EXAMPLE_SCENARIO.read_text())
        data["checks"] = [first_check, {"type": "pde_residual", "samples": 5}]
        return run_scenario(scenario_from_dict(data)).results

    n = 2
    for batch_points in (solutions._BATCH_POINTS, 1):
        monkeypatch.setattr(solutions, "_BATCH_POINTS", batch_points)
        failed = run({"type": "conservation", "laws": [1], "samples": n})
        same_draws = run({"type": "pde_residual", "samples": 200 * n + 100})
        assert (failed[0].name, failed[0].status, failed[0].tolerance) == (
            "conservation", "error", None,
        )
        assert failed[0].detail == (
            "ValidationError: could not sample points clear of the front; "
            "the front may nearly fill the sampling box"
        )
        assert failed[1:] == same_draws[1:]
        assert failed[1].residual > 0.0

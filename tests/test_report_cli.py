import csv
import io
import json

import numpy as np
import pytest

from vkwave import balance, cli
from vkwave.errors import ValidationError
from vkwave.report import emit_report, run_scenario
from vkwave.scenario import build_field, scenario_from_dict
from vkwave.solutions import pde_residual, pde_term_scales


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


def test_pde_residual_check_is_batched(count_jet_calls):
    # the batched maxima equal the maximum over one unbatched jet, computed
    # here from the same seeded draws
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
    assert max(sizes) <= balance._BATCH_POINTS


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

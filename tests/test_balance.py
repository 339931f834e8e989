import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from vkwave import balance
from vkwave.balance import (
    BalanceReport,
    Region,
    balance_residual,
    boundary_flux_integral,
    density_integral,
    front_segment_jump_integral,
    fundamental_balances,
)
from vkwave.conservation import LAWS, density_flux
from vkwave.errors import ValidationError
from vkwave.jumps import amplitude_relation_residuals, balance_jump_residual, extract_jumps
from vkwave.report import run_scenario
from vkwave.scenario import build_field, scenario_from_dict
from vkwave.solutions import (
    PiecewiseField,
    Side,
    acceleration_wave,
    invariant_solution,
    polynomial_field,
)
from vkwave.wavefront import CircleFront, LineFront, front_geometry

_EXAMPLE_SCENARIO = Path(__file__).resolve().parents[1] / "examples_scenarios" / "wave_check.yaml"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x1_min=1.0, x1_max=0.0, x2_min=0.0, x2_max=1.0),
        dict(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=0.0),
        dict(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, quad_order=2),
        dict(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, quad_order=8.0),
        dict(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, cells=(0, 4)),
        dict(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, subdivision_depth=-1),
        dict(x1_min=math.nan, x1_max=1.0, x2_min=0.0, x2_max=1.0),
    ],
)
def test_region_validation(kwargs):
    with pytest.raises(ValidationError):
        Region(**kwargs)


def test_density_integral_constant_density(generic_params):
    # law 1 density is rho * w_t; w = x3 makes it rho everywhere
    field = polynomial_field({(0, 0, 1): 1.0}, None, generic_params)
    region = Region(0.0, 1.0, 0.0, 1.0)
    val = density_integral(field, 1, region, 0.3)
    assert val == pytest.approx(generic_params.rho, rel=1e-13)


def test_density_integral_compatibility_row_is_zero(generic_params):
    field = polynomial_field({(2, 1, 1): 0.4}, {(1, 2, 0): -0.3}, generic_params)
    region = Region(-0.7, 0.4, 0.1, 0.9)
    assert density_integral(field, "compatibility", region, 0.2) == 0.0


def test_boundary_flux_hand_values(generic_params):
    p = generic_params
    region = Region(0.2, 1.1, -0.3, 0.4)
    area = 0.9 * 0.7

    # w = x1^4 / 24: flux P = -Q = (D x1, 0), so the net outflow is D * area
    field = polynomial_field({(4, 0, 0): 1.0 / 24.0}, None, p)
    flux = boundary_flux_integral(field, 1, region, 0.0)
    assert flux == pytest.approx(p.D * area, rel=1e-12)

    # w = x1^3 / 6 carries the constant flux (-D, 0) whose net outflow vanishes
    field = polynomial_field({(3, 0, 0): 1.0 / 6.0}, None, p)
    flux = boundary_flux_integral(field, 1, region, 0.0)
    assert flux == pytest.approx(0.0, abs=1e-13 * p.D)


def test_balance_residual_measures_source(generic_params):
    p = generic_params
    region = Region(0.2, 1.1, -0.3, 0.4)
    field = polynomial_field({(4, 0, 0): 1.0 / 24.0}, None, p)
    report = balance_residual(field, 1, region, 0.0)
    assert report.time_derivative == pytest.approx(0.0, abs=1e-12)
    assert report.residual == pytest.approx(p.D * 0.63, rel=1e-9)
    assert report.quadrature_error < 1e-10
    assert report.law.index == 1
    assert report.residual == report.time_derivative + report.flux_integral


def test_balance_residual_vanishes_on_smooth_solution(unit_params):
    sol = invariant_solution((0.2, -0.4, 0.6, 0.3), (0.1, 0.5, -0.2, 0.4), 1.0, unit_params)
    region = Region(-0.8, 0.9, -0.6, 0.7)
    for key in (1, 4, 14):
        report = balance_residual(sol, key, region, 0.25)
        scale = max(1.0, abs(report.time_derivative), abs(report.flux_integral))
        assert abs(report.residual) <= 1e-8 * scale, key


def test_region_additivity(unit_params):
    sol = invariant_solution((0.2, -0.4, 0.6, 0.3), (0.1, 0.5, -0.2, 0.4), 1.0, unit_params)
    whole = Region(0.0, 1.0, 0.0, 1.0)
    left = Region(0.0, 0.4, 0.0, 1.0)
    right = Region(0.4, 1.0, 0.0, 1.0)
    t = 0.15
    total = density_integral(sol, "energy", whole, t)
    split = density_integral(sol, "energy", left, t) + density_integral(sol, "energy", right, t)
    assert split == pytest.approx(total, rel=1e-12)


def _disc_field(p):
    front = CircleFront(0.1, -0.05, 0.35, radial_speed=0.25)
    inside = polynomial_field({(0, 0, 1): 1.0}, None, p)
    outside = polynomial_field(None, None, p)
    return PiecewiseField(outside, inside, front, p)


def _example_wave(unit_params):
    ahead = invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, unit_params)
    return acceleration_wave(ahead, c1=1.0, c2=0.5)


@pytest.mark.parametrize("case", ["straight_wave", "disc"])
def test_density_integral_is_independent_of_batching(
    case, unit_params, generic_params, count_jet_calls
):
    # the whole region evaluates every cell in shared jet batches, the
    # single-cell regions each in their own; the sums must agree exactly
    if case == "straight_wave":
        field, law_key, t = _example_wave(unit_params), "energy", 0.1
        region = Region(-0.8, 0.9, -0.6, 0.7)
    else:
        field, law_key, t = _disc_field(generic_params), 1, 0.0
        region = Region(-0.7, 0.9, -0.8, 0.7)
    x_edges = np.linspace(region.x1_min, region.x1_max, region.cells[0] + 1)
    y_edges = np.linspace(region.x2_min, region.x2_max, region.cells[1] + 1)
    sizes = count_jet_calls(field)
    whole = density_integral(field, law_key, region, t)
    if case == "disc":
        assert max(sizes) == balance._BATCH_POINTS  # a side was split at the cap
    rows = 0.0
    for i in range(region.cells[0]):
        for j in range(region.cells[1]):
            cell = Region(
                float(x_edges[i]), float(x_edges[i + 1]),
                float(y_edges[j]), float(y_edges[j + 1]),
                cells=(1, 1),
            )
            rows += density_integral(field, law_key, cell, t)
    assert whole == rows


def test_quadrature_makes_one_jet_call_per_side(unit_params, count_jet_calls):
    wave = _example_wave(unit_params)
    region = Region(-0.8, 0.9, -0.6, 0.7)
    sizes = count_jet_calls(wave)
    density_integral(wave, "energy", region, 0.1)
    assert len(sizes) <= 2
    sizes.clear()
    boundary_flux_integral(wave, "energy", region, 0.1)
    assert len(sizes) <= 2


@pytest.mark.parametrize("case", ["straight_wave", "disc"])
def test_shared_balance_equals_per_law_balance(case, unit_params, generic_params):
    # every law read off one set of plans and jets keeps the bits of its
    # own balance_residual
    if case == "straight_wave":
        field, t = _example_wave(unit_params), 0.1
        region = Region(-0.8, 0.9, -0.6, 0.7)
    else:
        # depth 2 keeps the test quick and still splits a side at the cap
        field, t = _disc_field(generic_params), 0.0
        region = Region(-0.7, 0.9, -0.8, 0.7, subdivision_depth=2)
    laws = range(1, 15)
    shared = balance._balance_reports(field, laws, region, t)
    assert len(shared) == len(laws)
    for key, report in zip(laws, shared):
        single = balance_residual(field, key, region, t)
        for f in dataclasses.fields(BalanceReport):
            assert getattr(report, f.name) == getattr(single, f.name), (key, f.name)


def test_balance_residual_calls_the_public_integrals(unit_params, monkeypatch):
    # one law's five density and two flux integrals stay visible to
    # anything that wraps the public one-law functions
    calls = []
    for name in ("density_integral", "boundary_flux_integral"):
        original = getattr(balance, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(balance, name, recorded)
    balance_residual(_example_wave(unit_params), "energy", Region(-0.8, 0.9, -0.6, 0.7), 0.1)
    assert calls.count("density_integral") == 5
    assert calls.count("boundary_flux_integral") == 2


def test_balance_check_shares_jets_across_laws(count_jet_calls):
    # seven integrals per time, one jet call per side of each: at most 14
    # calls per time for all fourteen laws, where one law alone needs 14
    data = yaml.safe_load(_EXAMPLE_SCENARIO.read_text())
    times = [0.1, 0.3]
    data["checks"] = [{"type": "balance", "laws": list(range(1, 15)), "times": times}]
    scenario = scenario_from_dict(data)
    sizes = count_jet_calls(build_field(scenario))
    report = run_scenario(scenario)
    assert len(report.results) == 14
    assert all(r.status != "error" for r in report.results)
    assert len(sizes) <= 14 * len(times)


def test_balance_across_straight_front(unit_params):
    ahead = invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, unit_params)
    wave = acceleration_wave(ahead, c1=1.0, c2=0.5)
    region = Region(-0.8, 0.9, -0.6, 0.7)
    t = 0.1
    for report in fundamental_balances(wave, region, t):
        scale = max(1.0, abs(report.time_derivative), abs(report.flux_integral))
        assert abs(report.residual) <= 1e-6 * scale, report.law.name


def test_balance_matches_front_jump_integral(unit_params):
    # on a wave violating the energy relation both sides of the transport
    # identity are nonzero and must agree
    ahead = invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, unit_params)
    wave = acceleration_wave(ahead, c1=1.0, c2=0.4)
    region = Region(-0.8, 0.9, -0.6, 0.7)
    t = 0.1

    report = balance_residual(wave, "energy", region, t)
    jump = front_segment_jump_integral(wave, "energy", region, t)
    assert abs(jump) > 1e-3
    assert report.residual == pytest.approx(jump, rel=1e-6)

    # the jump integral itself is the clipped front length times the
    # pointwise jump bracket C[Psi] - [P].n
    rec = extract_jumps(wave, (t * wave.wave_speed, 0.0, t))
    bracket = balance_jump_residual("energy", rec, unit_params)
    length = 0.7 - (-0.6)
    assert jump == pytest.approx(length * bracket, rel=1e-10)

    r1, _ = amplitude_relation_residuals(wave)
    c = wave.wave_speed
    assert jump == pytest.approx(-length * (c / (2 * unit_params.Eh)) * r1, rel=1e-10)


def test_front_segment_outside_region_is_zero(unit_params):
    ahead = invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, unit_params)
    wave = acceleration_wave(ahead, c1=1.0, c2=0.4)
    region = Region(5.0, 6.0, -1.0, 1.0)
    assert front_segment_jump_integral(wave, "energy", region, 0.0) == 0.0


def test_edge_on_front_is_rejected(generic_params):
    ahead = polynomial_field(None, None, generic_params)
    behind = polynomial_field({(0, 0, 1): 1.0}, None, generic_params)
    front = LineFront(0.0, 1.0, 0.0, -0.5)
    field = PiecewiseField(ahead, behind, front, generic_params)
    region = Region(0.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValidationError, match="shift the region boundary"):
        boundary_flux_integral(field, 1, region, 0.0)


def test_circle_front_density_and_jump(generic_params):
    p = generic_params
    radius = 0.35
    field = _disc_field(p)
    region = Region(-0.7, 0.9, -0.8, 0.7)

    # law 1 density is rho inside the disc and zero outside
    dens = density_integral(field, 1, region, 0.0)
    assert dens == pytest.approx(p.rho * math.pi * radius**2, rel=5e-3)

    # transport by the expanding circle: C [Psi] integrates to v rho 2 pi r
    jump = front_segment_jump_integral(field, 1, region, 0.0)
    assert jump == pytest.approx(0.25 * p.rho * 2 * math.pi * radius, rel=1e-9)

    # absolute variant bounds the signed one
    mag = front_segment_jump_integral(field, 1, region, 0.0, absolute=True)
    assert mag >= abs(jump)


@pytest.mark.parametrize("case", ["straight_wave", "disc"])
def test_jump_integrand_matches_per_point_geometry(case, unit_params, generic_params):
    # the batched normals and speeds give, bit for bit, the integrand that
    # front_geometry evaluated at each point gives
    if case == "straight_wave":
        field, t = _example_wave(unit_params), 0.1
        s = np.linspace(-0.6, 0.7, 9)
        pts = np.stack([np.full_like(s, t), s, np.full_like(s, t)], axis=1)
    else:
        field, t = _disc_field(generic_params), 0.0
        theta = np.linspace(0.0, 6.0, 9)
        x1, x2 = 0.1 + 0.35 * np.cos(theta), -0.05 + 0.35 * np.sin(theta)
        pts = np.stack([x1, x2, np.zeros(9)], axis=1)
    p = field.params
    for entry in LAWS:
        df_a = density_flux(entry, field.jet(pts, Side.AHEAD), p)
        df_b = density_flux(entry, field.jet(pts, Side.BEHIND), p)
        signed, absolute = [], []
        for k, pt in enumerate(pts):
            geo = front_geometry(field.front, pt)
            (n1, n2), c = geo.normal, geo.speed
            d_a, d_b = df_a.density[k], df_b.density[k]
            pn_a = df_a.flux.x1[k] * n1 + df_a.flux.x2[k] * n2
            pn_b = df_b.flux.x1[k] * n1 + df_b.flux.x2[k] * n2
            jump_1 = df_b.flux.x1[k] - df_a.flux.x1[k]
            jump_2 = df_b.flux.x2[k] - df_a.flux.x2[k]
            signed.append(c * (d_b - d_a) - (jump_1 * n1 + jump_2 * n2))
            absolute.append(abs(c) * (abs(d_b) + abs(d_a)) + abs(pn_b) + abs(pn_a))
        assert balance._jump_integrand_on_points(field, entry, pts).tolist() == signed
        assert balance._jump_integrand_on_points(field, entry, pts, True).tolist() == absolute


def test_balance_residual_rejects_bad_dt(generic_params):
    field = polynomial_field(None, None, generic_params)
    region = Region(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        balance_residual(field, 1, region, 0.0, dt=0.0)
    with pytest.raises(ValidationError):
        balance_residual(field, 1, region, 0.0, dt=math.inf)

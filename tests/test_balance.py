import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from vkwave import balance, solutions
from vkwave.balance import (
    BalanceReport,
    Region,
    balance_residual,
    boundary_flux_integral,
    density_integral,
    front_segment_jump_integral,
)
from vkwave.conservation import _DENSITY_SLOTS, _ROW_SLOTS, LAWS, density_flux
from vkwave.errors import UnfilledSlotError, ValidationError
from vkwave.indexing import MULTI_INDICES, S2, S1111
from vkwave.jumps import (
    _balance_jump_terms,
    _front_jets,
    amplitude_relation_residuals,
    balance_jump_residual,
    extract_jumps,
)
from vkwave.report import CheckResult, run_scenario
from vkwave.scenario import build_field, scenario_from_dict
from vkwave.solutions import (
    PiecewiseField,
    Side,
    acceleration_wave,
    invariant_solution,
    pde_residual,
    polynomial_field,
)
from vkwave.tensors import Vector2
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
        dict(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, cells=(4, 4, 4)),
        dict(x1_min=math.nan, x1_max=1.0, x2_min=0.0, x2_max=1.0),
        dict(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, quad_order=True),
        dict(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, cells=4),
        dict(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, cells=None),
        dict(x1_min="0", x1_max=1.0, x2_min=0.0, x2_max=1.0),
    ],
)
def test_region_validation(kwargs):
    with pytest.raises(ValidationError):
        Region(**kwargs)


def test_numpy_scalars_build_the_same_region():
    plain = Region(0, 1.0, -0.5, 0.5, quad_order=8, cells=(2, 3))
    scalars = Region(
        np.int64(0), np.float64(1.0), np.float32(-0.5), 0.5,
        quad_order=np.int64(8), cells=(np.int64(2), np.int32(3)),
    )
    assert scalars == plain
    *bounds, quad_order, cells = dataclasses.astuple(scalars)
    assert [type(v) for v in (*bounds, quad_order, *cells)] == [float] * 4 + [int] * 3


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


def _pass_cap(slots, n_laws):
    """Points per jet batch of a balance pass of n_laws laws filling
    ``slots`` of both fields: its jets (2 len(slots) values a point) and
    its rows (n_laws more) hold at most the values of one field's jets in
    a batch of _batch_size((slots, slots))."""
    return solutions._batch_size((slots, slots)) * len(slots) // (2 * len(slots) + n_laws)


def _terms(field, laws, region, times, dt=None):
    """balance._balance_terms as one list per time of one (time_derivative,
    flux_integral, residual, quadrature_error) tuple per law."""
    arrays = balance._balance_terms(field, laws, region, times, dt)
    return [list(zip(*per_time)) for per_time in zip(*(a.T.tolist() for a in arrays))]


def _report_terms(report: BalanceReport):
    """The four fields of a BalanceReport that _terms gives."""
    return (report.time_derivative, report.flux_integral, report.residual, report.quadrature_error)


def _example_wave(unit_params):
    ahead = invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, unit_params)
    return acceleration_wave(ahead, c1=1.0, c2=0.5)


@pytest.mark.parametrize("case", ["straight_wave", "disc"])
def test_density_integral_is_independent_of_batching(
    case, unit_params, generic_params, count_jet_calls, monkeypatch
):
    # the whole region evaluates every cell in shared jet batches, the
    # single-cell regions each in their own; the sums must agree exactly
    if case == "straight_wave":
        field, law_key, t = _example_wave(unit_params), "energy", 0.1
        region = Region(-0.8, 0.9, -0.6, 0.7)
    else:
        field, law_key, t = _disc_field(generic_params), 1, 0.0
        region = Region(-0.7, 0.9, -0.8, 0.7)
        # the disc's sides have 3,328 and 1,280 points; at this cap a batch
        # of one law's density-slot jets and rows holds 1,194, so the pass
        # is split into four mixed batches
        monkeypatch.setattr(solutions, "_BATCH_POINTS", 512)
    x_edges = np.linspace(region.x1_min, region.x1_max, region.cells[0] + 1)
    y_edges = np.linspace(region.x2_min, region.x2_max, region.cells[1] + 1)
    sizes = count_jet_calls(field)
    whole = density_integral(field, law_key, region, t)
    if case == "disc":
        assert max(sizes) == _pass_cap(_DENSITY_SLOTS, 1) == 1194  # split at the cap
        assert len(sizes) == math.ceil(sum(sizes) / 1194) > 1
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


def _every_monomial(rng):
    """A monomial map with every term of degree <= 4, so that every jet
    slot of the polynomial is nonzero."""
    return {
        (i, j, k): float(rng.uniform(0.5, 1.5))
        for i in range(5) for j in range(5 - i) for k in range(5 - i - j)
    }


def _row_slot_case(case, p):
    """A field, points and the sides to take its jets on."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, (40, 3))
    if case == "traveling":
        # two traveling solutions of different speeds across an oblique line:
        # each branch on its own, and each point's own branch
        a = invariant_solution((0.2, -0.3, 0.5, 0.1), (0.1, 0.3, 0.2, -0.4), 1.1, p)
        b = invariant_solution((-0.1, 0.4, 0.3, -0.6), (0.2, -0.1, 0.5, 0.3), -0.7, p)
        field = PiecewiseField(a, b, LineFront(0.6, 0.8, -0.3, 0.0), p)
        assert set(np.sign(field.front.value(pts))) == {-1.0, 1.0}
        return field, pts, (Side.AHEAD, Side.BEHIND, Side.AUTO)
    if case == "polynomial":
        field = polynomial_field(_every_monomial(rng), _every_monomial(rng), p)
        full = field.jet(pts)
        assert (full.w != 0.0).all() and (full.phi != 0.0).all()
        return field, pts, (Side.AUTO,)
    return _example_wave(p), pts, (Side.AHEAD, Side.BEHIND)


def _row_bits(df) -> np.ndarray:
    return np.stack([df.density, df.flux.x1, df.flux.x2]).view(np.uint64)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("case", ["traveling", "polynomial", "acceleration_wave"])
def test_row_slot_jets_give_the_full_jets_rows(case, generic_params):
    # a balance's flux integrals fill their jets in _ROW_SLOTS only, and its
    # density integrals in _DENSITY_SLOTS only; every law's density and
    # flux there keep the bits they have at the full jet
    field, pts, sides = _row_slot_case(case, generic_params)
    for side in sides:
        full = field.jet(pts, side)
        sub = field.jet(pts, side, (_ROW_SLOTS, _ROW_SLOTS))
        dens = field.jet(pts, side, (_DENSITY_SLOTS, _DENSITY_SLOTS))
        for entry in LAWS:
            want = density_flux(entry, full, generic_params)
            got = _row_bits(density_flux(entry, sub, generic_params))
            assert np.array_equal(got, _row_bits(want)), (side, entry.name)
            got = _bits(density_flux(entry, dens, generic_params).density)
            assert np.array_equal(got, _bits(want.density)), (side, entry.name)


def test_every_row_slot_is_read_by_some_law(generic_params):
    field, pts, _ = _row_slot_case("polynomial", generic_params)
    for q in _ROW_SLOTS:
        rest = tuple(s for s in _ROW_SLOTS if s != q)
        jet = field.jet(pts, Side.AUTO, (rest, rest))
        with pytest.raises(UnfilledSlotError, match=f"jet slot {q} "):
            for entry in LAWS:
                _row_bits(density_flux(entry, jet, generic_params))


def test_every_density_slot_is_read_by_some_laws_density(generic_params):
    field, pts, _ = _row_slot_case("polynomial", generic_params)
    for q in _DENSITY_SLOTS:
        rest = tuple(s for s in _DENSITY_SLOTS if s != q)
        jet = field.jet(pts, Side.AUTO, (rest, rest))
        with pytest.raises(UnfilledSlotError, match=f"jet slot {q} "):
            for entry in LAWS:
                density_flux(entry, jet, generic_params).density


def test_a_row_reading_a_slot_outside_the_row_slots_errors_the_balance(monkeypatch):
    # a density that reads a slot outside _DENSITY_SLOTS errors the
    # balance through its density integrals, and a flux that reads one
    # outside _ROW_SLOTS through its flux integrals
    import vkwave.conservation as conservation

    data = yaml.safe_load(_EXAMPLE_SCENARIO.read_text())
    data["checks"] = [{"type": "balance", "laws": [1], "times": [0.1]}]
    for table, half in (
        (conservation._DENSITIES, lambda jet, p: jet.w[..., S1111]),
        (conservation._FLUXES, lambda jet, p: Vector2(jet.w[..., S1111], jet.w[..., S2])),
    ):
        with monkeypatch.context() as patch:
            patch.setitem(table, 1, half)
            (row,) = run_scenario(scenario_from_dict(data)).results
        assert row.status == "error"
        assert row.detail.startswith(
            f"UnfilledSlotError: jet slot {S1111} {MULTI_INDICES[S1111]} was not filled"
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_balance_jets_are_checked_for_finite_values_in_the_row_slots_only(generic_params):
    # w = 3e307 x3^4 overflows in w_33 = 3.6e308 x3^2 and in w_333 and
    # w_3333, which no row reads, so its compatibility balance (a zero
    # density and flux) holds; an overflow in a slot the rows read, w_11 of
    # 1e308 x1^2, still raises
    region = Region(0.0, 1.0, 0.0, 1.0)
    quiet = polynomial_field({(0, 0, 4): 3e307}, None, generic_params)
    assert balance_residual(quiet, 14, region, 0.1).residual == 0.0
    loud = polynomial_field({(2, 0, 0): 1e308}, None, generic_params)
    with pytest.raises(ValidationError, match="^w contains non-finite entries$"):
        balance_residual(loud, 14, region, 0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_density_integrals_are_checked_for_finite_values_in_the_density_slots_only(
    generic_params,
):
    # w = 1e307 x1^4 overflows in w_111 = 2.4e308 x1, which only fluxes
    # read, and not in w_11 = 1.2e308 x1^2: its law-1 density integral
    # (of rho w_3 = 0) is a number, and its balance still errors through
    # the flux integrals
    region = Region(0.0, 1.0, 0.0, 1.0)
    field = polynomial_field({(4, 0, 0): 1e307}, None, generic_params)
    assert density_integral(field, 1, region, 0.1) == 0.0
    with pytest.raises(ValidationError, match="^w contains non-finite entries$"):
        boundary_flux_integral(field, 1, region, 0.1)
    with pytest.raises(ValidationError, match="^w contains non-finite entries$"):
        balance_residual(field, 1, region, 0.1)


@pytest.mark.parametrize("case", ["straight_wave", "disc"])
def test_shared_balance_equals_per_law_balance(case, unit_params, generic_params):
    # every law read off one set of plans and jets keeps the bits of its
    # own balance_residual: time derivative, flux, residual and error
    if case == "straight_wave":
        field, t = _example_wave(unit_params), 0.1
        region = Region(-0.8, 0.9, -0.6, 0.7)
    else:
        # the ahead side has more points than one jet batch holds
        field, t = _disc_field(generic_params), 0.0
        region = Region(-0.7, 0.9, -0.8, 0.7)
    laws = range(1, 15)
    (shared,) = _terms(field, laws, region, (t,))
    assert len(shared) == len(laws)
    for key, terms in zip(laws, shared):
        assert terms == _report_terms(balance_residual(field, key, region, t)), key


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


@pytest.mark.parametrize("case", ["disc", "smooth_circle", "straight_wave"])
def test_balance_check_is_planned_and_evaluated_once(
    case, unit_params, generic_params, monkeypatch
):
    # a check at two times plans its ten density slices in one level loop,
    # one value_range call per level and one height-function pass per
    # order, and fills one jet batch for both sides per _pass_cap points
    # in each of its two passes: density-slot jets for the densities, then
    # row-slot jets for the fluxes; its reports are those composed from
    # the one-slice integrals
    if case == "disc":
        field, region, times = _disc_field(generic_params), Region(-0.7, 0.9, -0.8, 0.7), (0.0, 0.1)
    elif case == "smooth_circle":
        field, region, times = _smooth_circle_field(generic_params), _SMOOTH_REGION, (0.1, 0.2)
    else:
        field, region, times = _example_wave(unit_params), Region(-0.8, 0.9, -0.6, 0.7), (0.1, 0.3)
    laws = (1, 4, 12, 14)
    composed = [
        [_report_terms(balance_residual(field, key, region, t)) for key in laws] for t in times
    ]

    levels = []
    value_range = type(field.front).value_range

    def counted_range(self, *args):
        levels.append(len(args[0]))
        return value_range(self, *args)

    def level_count(t):
        levels.clear()
        density_integral(field, 1, region, t)
        return len(levels)

    monkeypatch.setattr(type(field.front), "value_range", counted_range)
    depth = max(level_count(t) for t in times)
    if case == "disc":
        assert depth == 4
    passes = []
    integrals = balance._integrals

    def tagged(*args, **kwargs):
        passes.append([])
        return integrals(*args, **kwargs)

    jet = type(field).jet

    def counted_jet(self, point, side=Side.AUTO, slots=None):
        passes[-1].append((np.copy(side), len(point), slots))
        return jet(self, point, side, slots)

    heights = []
    plan_heights = balance._plan_heights

    def counted_heights(*args):
        heights.append(tuple(args[6]))
        return plan_heights(*args)

    monkeypatch.setattr(balance, "_integrals", tagged)
    monkeypatch.setattr(balance, "_plan_heights", counted_heights)
    monkeypatch.setattr(type(field), "jet", counted_jet)
    levels.clear()
    shared = _terms(field, laws, region, times)
    assert len(levels) == depth
    assert heights == [(region.quad_order, region.quad_order - 2)]  # once, both orders
    assert len(passes) == 2
    for calls, slots in zip(passes, (_DENSITY_SLOTS, _ROW_SLOTS)):
        assert {filled for _, _, filled in calls} == {(slots, slots)}
        # every call takes a side mask of its points; the density pieces
        # lie on both sides of the front (a disc's boundary is all ahead)
        assert all(m.dtype == bool and m.shape == (n,) for m, n, _ in calls)
        masks = np.concatenate([m for m, _, _ in calls])
        assert masks.any() and (slots is _ROW_SLOTS or not masks.all())
        sizes = [n for _, n, _ in calls]
        cap = _pass_cap(slots, len(laws))
        assert len(sizes) == math.ceil(sum(sizes) / cap)
        assert sizes[:-1] == [cap] * (len(sizes) - 1)
    assert shared == composed


def test_fourteen_law_pass_fills_one_batch_for_both_sides(unit_params, monkeypatch):
    # each pass of a 14-law check calls field.jet once per batch for both
    # sides of the front and density_flux once per law per batch, at
    # 2,560 points a density batch and 1,791 a flux batch; one law takes
    # 4,778 and 2,654
    assert [_pass_cap(_DENSITY_SLOTS, n) for n in (14, 1)] == [2560, 4778]
    assert [_pass_cap(_ROW_SLOTS, n) for n in (14, 1)] == [1791, 2654]
    field, region = _example_wave(unit_params), Region(-0.8, 0.9, -0.6, 0.7, cells=(8, 8))
    laws, times = tuple(range(1, 15)), (0.1, 0.2, 0.3, 0.4)
    expected = _terms(field, laws, region, times)
    passes = []
    integrals = balance._integrals

    def tagged(*args, **kwargs):
        passes.append([])
        return integrals(*args, **kwargs)

    jet = type(field).jet

    def counted_jet(self, point, side=Side.AUTO, slots=None):
        passes[-1].append((len(point), np.copy(side), slots, []))
        return jet(self, point, side, slots)

    def counted_density_flux(entry, jet, p):
        passes[-1][-1][3].append(len(jet.point))
        return density_flux(entry, jet, p)

    monkeypatch.setattr(balance, "_integrals", tagged)
    monkeypatch.setattr(type(field), "jet", counted_jet)
    monkeypatch.setattr(balance, "density_flux", counted_density_flux)
    assert _terms(field, laws, region, times) == expected
    assert len(passes) == 2
    for batches, slots in zip(passes, (_DENSITY_SLOTS, _ROW_SLOTS)):
        cap = _pass_cap(slots, len(laws))
        sizes = [n for n, _, _, _ in batches]
        assert len(sizes) == math.ceil(sum(sizes) / cap) > 1
        assert sizes[:-1] == [cap] * (len(sizes) - 1)
        for n, mask, filled, rows in batches:
            assert filled == (slots, slots) and mask.shape == (n,)
            assert rows == [n] * len(laws)  # every law's row once per batch
        masks = np.concatenate([mask for _, mask, _, _ in batches])
        assert masks.any() and not masks.all()


def test_long_balance_check_is_planned_a_few_times_at_a_time(unit_params, monkeypatch):
    # a check's arrays grow with its times, so they are planned in groups
    # of _TIMES_PER_PLAN, each time's densities at t +- dt at both orders
    # in one plan
    field, region = _example_wave(unit_params), Region(-0.8, 0.9, -0.6, 0.7)
    times = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3)
    one_by_one = [_terms(field, (1, 4), region, (t,))[0] for t in times]
    planned = []
    plan_cells = balance._plan_cells

    def recorded(plan, front, region, times, orders):
        planned.append((len(times), tuple(orders)))
        return plan_cells(plan, front, region, times, orders)

    monkeypatch.setattr(balance, "_plan_cells", recorded)
    assert _terms(field, (1, 4), region, times) == one_by_one
    orders = (region.quad_order, region.quad_order - 2)
    assert planned == [
        (2 * balance._TIMES_PER_PLAN, orders),
        (2 * (len(times) - balance._TIMES_PER_PLAN), orders),
    ]


def test_each_time_is_classified_once_for_both_orders(unit_params, monkeypatch):
    # the 14-law check of the wave_balance benchmark: its two times take
    # densities at four, t +- dt, each at two orders.  Level 0 classifies
    # the 16 cells of each of the four times once, and the straight front
    # cuts some cells of each into graph boxes, whose faces are crossed
    # once before one line-crossing call per order
    field, region = _example_wave(unit_params), Region(-0.8, 0.9, -0.6, 0.7)
    laws, times = tuple(range(1, 15)), (0.1, 0.3)
    expected = _terms(field, laws, region, times)
    front_type = type(field.front)
    value_range, crossings = front_type.value_range, front_type.crossings
    plan_heights = balance._plan_heights
    boxes, segments, heights = [], [], []

    def counted_range(self, lower, upper, t):
        boxes.append(len(lower))
        return value_range(self, lower, upper, t)

    def counted_crossings(self, p0, p1, t):
        segments.append(len(p0))
        return crossings(self, p0, p1, t)

    def counted_heights(plan, front, lower, *args):
        first = len(segments)
        plan_heights(plan, front, lower, *args)
        heights.append((len(lower), segments[first:]))

    monkeypatch.setattr(front_type, "value_range", counted_range)
    monkeypatch.setattr(front_type, "crossings", counted_crossings)
    monkeypatch.setattr(balance, "_plan_heights", counted_heights)
    assert _terms(field, laws, region, times) == expected
    assert region.cells == (4, 4)
    assert boxes == [2 * len(times) * 16]
    ((graph_boxes, calls),) = heights
    assert 0 < graph_boxes < boxes[0]
    faces, lines, lines_low = calls
    assert faces == 2 * graph_boxes
    assert lines // region.quad_order == lines_low // (region.quad_order - 2) > 0


def _balance_check(laws, times, region, **keys) -> dict:
    """The example scenario with one balance check of ``laws`` at ``times``
    over ``region``, and any other check keys."""
    data = yaml.safe_load(_EXAMPLE_SCENARIO.read_text())
    bounds = {k: getattr(region, k) for k in ("x1_min", "x1_max", "x2_min", "x2_max")}
    data["checks"] = [
        {"type": "balance", "laws": list(laws), "times": list(times), "region": bounds, **keys}
    ]
    return data


@pytest.mark.parametrize("case", ["straight_wave", "disc", "smooth_circle"])
def test_balance_check_rows_are_those_of_the_balance_reports(
    case, unit_params, generic_params, monkeypatch
):
    # a check's rows plan the densities at t +- dt of each time at two
    # orders; six times span two plans, and every row keeps the bits of
    # the rows composed from the reports of balance_residual
    if case == "straight_wave":
        field, region = _example_wave(unit_params), Region(-0.8, 0.9, -0.6, 0.7)
    elif case == "disc":
        field, region = _disc_field(generic_params), Region(-0.7, 0.9, -0.8, 0.7)
    else:
        field, region = _smooth_circle_field(generic_params), _SMOOTH_REGION
    laws, times, dt = (1, 4, 12, 14), (0.0, 0.05, 0.1, 0.15, 0.2, 0.3), 2e-4
    assert len(times) > balance._TIMES_PER_PLAN
    scenario = scenario_from_dict(_balance_check(laws, times, region, dt=dt))
    monkeypatch.setattr("vkwave.scenario.build_field", lambda _: field)
    planned = []
    plan_cells = balance._plan_cells

    def recorded(plan, front, region, times, orders):
        planned.append((len(times), tuple(orders)))
        return plan_cells(plan, front, region, times, orders)

    per_time = [[balance_residual(field, key, region, t, dt) for key in laws] for t in times]
    monkeypatch.setattr(balance, "_plan_cells", recorded)
    rows = run_scenario(scenario).results
    orders = (region.quad_order, region.quad_order - 2)
    assert planned == [
        (2 * balance._TIMES_PER_PLAN, orders),
        (2 * (len(times) - balance._TIMES_PER_PLAN), orders),
    ]
    expected = []
    for i in range(len(laws)):
        reps = [reports[i] for reports in per_time]
        scaled = max(
            abs(r.residual) / max(1.0, abs(r.time_derivative), abs(r.flux_integral)) for r in reps
        )
        err = max(r.quadrature_error for r in reps)
        expected.append((f"balance[{reps[0].law.name}]", scaled, f"quadrature error {err:.2e}"))
    assert [(r.name, r.residual, r.detail) for r in rows] == expected
    assert all(type(r.residual) is float for r in rows)


def test_a_nan_integral_fails_its_own_balance_row_only(monkeypatch):
    # a NaN density gives a NaN residual, which fails its row; the other
    # laws' rows do not move
    import vkwave.conservation as conservation

    region = Region(-0.8, 0.9, -0.6, 0.7)
    scenario = scenario_from_dict(_balance_check((1, 4, 14), (0.1, 0.3), region))
    before = run_scenario(scenario).results
    energy = conservation._DENSITIES[4]
    monkeypatch.setitem(conservation._DENSITIES, 4, lambda jet, p: energy(jet, p) * math.nan)
    after = run_scenario(scenario).results
    assert after[1].status == "fail" and math.isnan(after[1].residual)
    assert after[1].detail == "quadrature error nan"
    assert before[1].status == "pass"
    assert [after[0], after[2]] == [before[0], before[2]]


def test_a_balance_check_whose_integral_raises_gives_one_error_row():
    # the example wave's front is x1 = t: at t = 0.1 it runs along the
    # region's left edge
    region = Region(0.1, 0.9, -0.6, 0.7)
    scenario = scenario_from_dict(_balance_check((1, 4), (0.3, 0.1), region))
    (row,) = run_scenario(scenario).results
    assert row == CheckResult(
        name="balance",
        kind="balance",
        status="error",
        residual=None,
        tolerance=None,
        detail="ValidationError: a region edge lies on the front; shift the region boundary",
    )


def test_numpy_scalar_steps_give_the_reports_of_their_floats(generic_params):
    # a numpy step is taken as its float, so a float32 step does not turn
    # the slice times t +- dt into float32
    field = _disc_field(generic_params)
    region = Region(-0.7, 0.9, -0.8, 0.7)
    for scalar in (np.float64(1e-4), np.float32(1e-3), np.int64(1)):
        want = balance_residual(field, 1, region, 0.1, dt=float(scalar))
        assert balance_residual(field, 1, region, 0.1, dt=scalar) == want
        assert _terms(field, (1,), region, (0.1,), dt=scalar) == [[_report_terms(want)]]


def test_balance_check_raises_what_the_first_failing_integral_raises(generic_params):
    # at t = 1000 the jets overflow; at t = 0 the circle, of radius 1e-14,
    # is not resolved.  Planned together, t = 0 fails first; taken one at
    # a time, as a balance takes its integrals, t = 1000 does
    field = PiecewiseField(
        polynomial_field(None, None, generic_params),
        polynomial_field({(0, 0, 3): 1e300}, None, generic_params),
        CircleFront(0.1, -0.05, 1e-14, radial_speed=1e-3),
        generic_params,
    )
    region = Region(-0.7, 0.9, -0.8, 0.7)
    with np.errstate(over="ignore"):
        with pytest.raises(ValidationError, match="non-finite"):
            balance_residual(field, 1, region, 1000.0)
        with pytest.raises(ValidationError, match="non-finite"):
            balance._balance_terms(field, (1, 2), region, (1000.0, 0.0), None)
        with pytest.raises(ValidationError, match="not resolved .* at t = 0.0$"):
            balance._balance_terms(field, (1, 2), region, (0.0, 1000.0), None)


def test_balance_across_straight_front(unit_params):
    ahead = invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, unit_params)
    wave = acceleration_wave(ahead, c1=1.0, c2=0.5)
    region = Region(-0.8, 0.9, -0.6, 0.7)
    t = 0.1
    for key in (1, 14):
        report = balance_residual(wave, key, region, t)
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
    with pytest.raises(ValidationError, match="shift the region boundary"):
        front_segment_jump_integral(field, 1, region, 0.0)


def test_edge_crossing_on_a_scan_point_is_kept():
    # the circle is centred on the start of the top edge, which runs from
    # (0.9, 0.7) to (-0.7, 0.7), and crosses it at s = 0.425, where the
    # old 64-interval scan had a point with gamma exactly 0
    front = CircleFront(0.9, 0.7, 0.4, radial_speed=0.25)
    p0, p1, t, length = (0.9, 0.7), (-0.7, 0.7), 0.1, 1.6
    (s,) = front.crossings(np.array([p0]), np.array([p1]), t)
    assert s[0] * length == pytest.approx(0.425, abs=1e-15)
    assert np.isnan(s[1])


def test_tangent_edge_adds_no_break(generic_params):
    # the circle touches the bottom edge at (0.25, -0.75) from inside: a
    # double root, where gamma does not change sign (every number here is
    # exact in binary, so the discriminant is exactly 0)
    front = CircleFront(0.25, -0.5, 0.25)
    region = Region(-0.75, 1.0, -0.75, 0.75)
    starts, ends, _ = balance._region_edges(region)
    assert front.value((0.25, -0.75, 0.0)) == 0.0
    assert np.isnan(front.crossings(starts, ends, 0.0)).all()
    field = PiecewiseField(
        polynomial_field({(4, 0, 0): 1.0}, None, generic_params),
        polynomial_field({(2, 0, 1): 1.0}, None, generic_params),
        front,
        generic_params,
    )
    # the whole boundary lies ahead, so the flux is the ahead field's alone
    flux = boundary_flux_integral(field, 1, region, 0.0)
    assert flux == boundary_flux_integral(field.ahead, 1, region, 0.0)


def test_circle_front_density_and_jump(generic_params):
    p = generic_params
    radius = 0.35
    field = _disc_field(p)
    region = Region(-0.7, 0.9, -0.8, 0.7)

    # law 1 density is rho inside the disc and zero outside
    dens = density_integral(field, 1, region, 0.0)
    assert dens == pytest.approx(p.rho * math.pi * radius**2, rel=1e-10)

    # transport by the expanding circle: C [Psi] integrates to v rho 2 pi r
    jump = front_segment_jump_integral(field, 1, region, 0.0)
    assert jump == pytest.approx(0.25 * p.rho * 2 * math.pi * radius, rel=1e-9)

    # absolute variant bounds the signed one
    mag = front_segment_jump_integral(field, 1, region, 0.0, absolute=True)
    assert mag >= abs(jump)

    # at t = -2 the radius 0.35 + 0.25 t is negative: there is no front
    assert front_segment_jump_integral(field, 1, region, -2.0) == 0.0


@pytest.mark.parametrize("t", [-0.2, 0.0, 0.1, 0.3])
def test_disc_area_is_exact_as_the_circle_grows(t, generic_params):
    # at t = -0.2 the circle's leftmost point lies on a cell boundary, so
    # height lines there start on the front and must take their side
    # from their middle
    radius = 0.35 + 0.25 * t
    dens = density_integral(_disc_field(generic_params), 1, Region(-0.7, 0.9, -0.8, 0.7), t)
    assert dens == pytest.approx(generic_params.rho * math.pi * radius**2, rel=1e-12)


@pytest.mark.parametrize("case", ["straight_wave", "disc"])
def test_jump_integrand_matches_per_point_geometry(case, unit_params, generic_params):
    # the jump terms front_segment_jump_integral integrates, from the
    # batched normals and speeds, are bit for bit the integrand that
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
    (fj,) = _front_jets(field, pts)
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
        shared_signed, shared_absolute = _balance_jump_terms(entry, fj, p)
        assert shared_signed.tolist() == signed
        assert shared_absolute.tolist() == absolute


def test_balance_residual_rejects_bad_dt(generic_params):
    field = polynomial_field(None, None, generic_params)
    region = Region(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        balance_residual(field, 1, region, 0.0, dt=0.0)
    with pytest.raises(ValidationError):
        balance_residual(field, 1, region, 0.0, dt=math.inf)
    # a bool is not a step, as it is not a Region bound either
    with pytest.raises(ValidationError, match="got True"):
        balance_residual(field, 1, region, 0.0, dt=True)
    with pytest.raises(ValidationError, match="got True"):
        balance._balance_terms(field, (1,), region, (0.0,), dt=True)
    with pytest.raises(ValidationError, match=r"^dt must be a positive finite number, got np.True_$"):
        balance_residual(field, 1, region, 0.0, dt=np.True_)


@pytest.mark.parametrize(
    "quad_order", [2.5, 8.0, True, np.True_, 0, -1, "8"], ids=lambda v: repr(v)
)
def test_one_slice_integrals_reject_a_quad_order_that_is_not_a_positive_integer(
    quad_order, generic_params
):
    # 2.5 and True used to raise a numpy TypeError, 0 and -1 a numpy
    # ValueError
    field = polynomial_field({(2, 1, 0): 0.3}, None, generic_params)
    region = Region(0.0, 1.0, 0.0, 1.0)
    message = f"^quad_order must be an integer of at least 1, got {re.escape(repr(quad_order))}$"
    for integral in (density_integral, boundary_flux_integral):
        with pytest.raises(ValidationError, match=message):
            integral(field, 1, region, 0.1, quad_order)


def test_one_slice_integrals_take_a_numpy_integer_quad_order_as_its_int(generic_params):
    field = polynomial_field({(2, 1, 0): 0.3, (0, 3, 1): -0.2}, None, generic_params)
    region = Region(0.0, 1.0, 0.0, 1.0)
    for integral in (density_integral, boundary_flux_integral):
        for order in (1, 5):
            want = integral(field, 1, region, 0.1, order)
            assert integral(field, 1, region, 0.1, np.int64(order)) == want
            assert integral(field, 1, region, 0.1, np.uint8(order)) == want


def _time_functions(field, region):
    """The balance functions of a time t, each as a call of t alone."""
    return [
        lambda t: density_integral(field, 1, region, t),
        lambda t: boundary_flux_integral(field, 1, region, t),
        lambda t: balance_residual(field, 1, region, t),
        lambda t: front_segment_jump_integral(field, 1, region, t),
    ]


@pytest.mark.parametrize(
    "t, message",
    [
        (math.nan, "finite, got nan"),
        (-math.inf, "finite, got -inf"),
        ("0.1", "a real number, got '0.1'"),
        (True, "a real number, got True"),
        (np.True_, "a real number, got np.True_"),
    ],
    ids=["nan", "-inf", "str", "True", "np.True_"],
)
def test_balance_functions_reject_a_time_that_is_not_a_finite_real(t, message, unit_params, generic_params):
    # nan and inf used to give a jump integral of 0.0, a str a density
    # integral but a numpy type error from the flux, and nan a complaint
    # about dt from balance_residual
    cases = [
        (_example_wave(unit_params), Region(-0.8, 0.9, -0.6, 0.7)),
        (_disc_field(generic_params), Region(-0.7, 0.9, -0.8, 0.7)),
    ]
    for field, region in cases:
        for call in _time_functions(field, region):
            with pytest.raises(ValidationError, match=f"^t must be {re.escape(message)}$"):
                call(t)


def test_a_numpy_scalar_time_gives_the_results_of_its_float(unit_params, generic_params):
    # a float32 time used to put the front's curve in float32, off the
    # front by more than extract_jumps allows
    ahead = invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, unit_params)
    cases = [
        (acceleration_wave(ahead, c1=1.0, c2=0.4), Region(-0.8, 0.9, -0.6, 0.7)),
        (_disc_field(generic_params), Region(-0.7, 0.9, -0.8, 0.7)),
    ]
    for field, region in cases:
        for call in _time_functions(field, region):
            for t in (np.float32(0.1), np.int64(0)):
                assert call(t) == call(float(t))




@pytest.mark.parametrize("levels", range(7))
def test_curved_density_integral_front_calls_per_level(levels, generic_params, monkeypatch):
    # a circle centred on the only cell's centre is split once more for
    # each halving of its radius; every level takes one range and one
    # normal-bound call for all its boxes, and the height functions of all
    # levels two crossings calls (faces, then height lines) and at most
    # one value call (lines that miss)
    calls = {}
    for name in ("value", "crossings", "value_range", "normal_range"):
        method = getattr(CircleFront, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] = calls.get(_name, 0) + 1
            return _method(self, *args)

        monkeypatch.setattr(CircleFront, name, counted)
    front = CircleFront(0.0, 0.0, 0.9 / 2**levels)
    field = PiecewiseField(
        polynomial_field(None, None, generic_params),
        polynomial_field({(0, 0, 1): 1.0}, None, generic_params),
        front,
        generic_params,
    )
    region = Region(-1.0, 1.0, -1.0, 1.0, cells=(1, 1))
    dens = density_integral(field, 1, region, 0.0)
    assert dens == pytest.approx(generic_params.rho * math.pi * front.radius**2, rel=1e-10)
    depth = calls["value_range"]
    assert depth == levels + 5
    assert calls["normal_range"] == depth
    assert calls["crossings"] == 2
    assert calls.get("value", 0) <= 1


def test_disc_plan_choices_hold_across_the_time_step(generic_params, monkeypatch):
    # the balance differentiates the density integral by a central
    # difference in t: a different set of boxes, height axes or pieces at
    # t - dt, t and t + dt would put a step of order E/dt into it
    field = _disc_field(generic_params)
    region = Region(-0.7, 0.9, -0.8, 0.7)
    graphs = []
    plan_heights = balance._plan_heights

    def recorded(plan, front, lower, upper, axis, rising, orders, times, owners, ranks):
        graphs.append(
            (lower.tolist(), upper.tolist(), axis.tolist(), rising.tolist(), ranks.tolist())
        )
        plan_heights(plan, front, lower, upper, axis, rising, orders, times, owners, ranks)

    monkeypatch.setattr(balance, "_plan_heights", recorded)
    dt = 1e-4
    choices = []
    for t in (-dt, 0.0, dt):
        graphs.clear()
        plan = balance._Plan()
        balance._plan_cells(plan, field.front, region, (t,), (region.quad_order,))
        sides = np.concatenate(plan.sides)
        owners = np.concatenate(plan.owners)
        choices.append((
            list(graphs),
            [w.shape for w in plan.weights],
            int(np.sum(sides == balance._AHEAD)),
            int(np.sum(sides == balance._BEHIND)),
            owners.tolist(),
        ))
    assert choices[0] == choices[1] == choices[2]
    axes = [a for _, _, box_axes, _, _ in choices[1][0] for a in box_axes]
    assert set(axes) == {0, 1}  # both height axes occur


# The smooth curved-front oracle: on each side of a moving circle w is
# affine and phi a biharmonic polynomial, so both sides solve the field
# equations exactly, while every law's density and flux jump across the
# circle.  A balance across it must then equal the front line integral J.
_INSIDE_W = {(0, 0, 0): 0.3, (1, 0, 0): 0.2, (0, 1, 0): -0.1, (0, 0, 1): 0.4}
_INSIDE_PHI = {(3, 0, 0): 0.5, (2, 1, 0): -0.2, (4, 0, 0): 0.3, (2, 2, 0): -0.9, (0, 3, 1): 0.1}
_OUTSIDE_W = {(0, 0, 0): -0.1, (1, 0, 0): 0.5, (0, 1, 0): 0.3, (0, 0, 1): -0.2}
_OUTSIDE_PHI = {(1, 2, 0): 1.0, (2, 1, 0): 0.4, (0, 3, 0): 0.4, (4, 0, 2): 0.2, (0, 4, 2): -0.2}
_SMOOTH_REGION = Region(-0.7, 0.9, -0.8, 0.7)


def _smooth_circle_field(p, center=(0.1, -0.05)):
    front = CircleFront(center[0], center[1], 0.35, radial_speed=0.25)
    outside = polynomial_field(_OUTSIDE_W, _OUTSIDE_PHI, p)
    inside = polynomial_field(_INSIDE_W, _INSIDE_PHI, p)
    return PiecewiseField(outside, inside, front, p)


def test_smooth_circle_field_solves_the_equations(generic_params):
    field = _smooth_circle_field(generic_params)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (200, 3))
    for branch in (field.ahead, field.behind):
        r1, r2 = pde_residual(branch.jet(pts), generic_params)
        assert np.abs(r1).max() <= 1e-14
        assert np.abs(r2).max() <= 1e-14


def _polar_density_reference(field, entry, region, t, n=24, n_theta=64):
    """The ahead density over the rectangle plus the jump of the density
    over the disc, which lies inside it, in polar coordinates about the
    centre: both integrands are polynomials, so Gauss-Legendre in x1, x2
    and r and the trapezoid rule in the angle are exact."""
    p = field.params
    g, w = np.polynomial.legendre.leggauss(n)
    xs = region.x1_min + 0.5 * (region.x1_max - region.x1_min) * (g + 1.0)
    ys = region.x2_min + 0.5 * (region.x2_max - region.x2_min) * (g + 1.0)
    area = (region.x1_max - region.x1_min) * (region.x2_max - region.x2_min)
    x_grid, y_grid = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([x_grid.ravel(), y_grid.ravel(), np.full(x_grid.size, t)])
    whole = np.dot(0.25 * area * np.outer(w, w).ravel(), density_flux(entry, field.ahead.jet(pts), p).density)

    front = field.front
    radius = front.radius + front.radial_speed * t
    r, wr = 0.5 * radius * (g + 1.0), 0.5 * radius * w
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    r_grid, t_grid = np.meshgrid(r, theta, indexing="ij")
    pts = np.column_stack([
        front.center_x1 + (r_grid * np.cos(t_grid)).ravel(),
        front.center_x2 + (r_grid * np.sin(t_grid)).ravel(),
        np.full(r_grid.size, t),
    ])
    jump = (
        density_flux(entry, field.behind.jet(pts), p).density
        - density_flux(entry, field.ahead.jet(pts), p).density
    )
    weights = np.outer(wr * r, np.full(n_theta, 2.0 * math.pi / n_theta)).ravel()
    return whole + np.dot(weights, jump)


def test_smooth_circle_density_integrals_match_polar_reference(generic_params):
    field = _smooth_circle_field(generic_params)
    t = 0.1
    got = balance._density_integrals(
        field, LAWS, _SMOOTH_REGION, (t,), (_SMOOTH_REGION.quad_order,)
    )[:, 0, 0]
    for entry, value in zip(LAWS, got):
        want = _polar_density_reference(field, entry, _SMOOTH_REGION, t)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-15), entry.name


@pytest.mark.parametrize(
    "center, edges_crossed",
    [
        ((0.1, -0.05), [False, False, False, False]),
        ((0.1, 0.5), [False, False, True, False]),
        ((0.75, 0.55), [False, True, True, False]),
    ],
    ids=["inside", "one_edge", "one_corner"],
)
def test_smooth_circle_balances_equal_front_integral(center, edges_crossed, generic_params):
    # edges bottom, right, top, left: the circle lies inside the region,
    # crosses the top edge only, or cuts off the top-right corner
    field = _smooth_circle_field(generic_params, center)
    region, t = _SMOOTH_REGION, 0.1
    crossed = np.isfinite(field.front.crossings(*balance._region_edges(region)[:2], t))
    assert crossed.any(axis=1).tolist() == edges_crossed
    (terms,) = _terms(field, range(1, 15), region, (t,))
    for key, (deriv, flux, residual, _) in zip(range(1, 15), terms):
        jump = front_segment_jump_integral(field, key, region, t)
        scale = max(1.0, abs(deriv), abs(flux))
        assert abs(residual - jump) <= 1e-6 * scale, key


@pytest.mark.parametrize(
    "case, want",
    [
        ("disc", ("0x0.0p+0", "0x1.de87033a2d6a0p-1", "0x1.de87033a2d6a0p-1", "0x1.1085a00000000p-30")),
        (
            "inside",
            (
                "0x1.ad5742da76400p-12", "0x1.f2fe694d08ba2p-6",
                "0x1.f9b3c65872932p-6", "0x1.e72be8da00000p-27",
            ),
        ),
        (
            "one_edge",
            (
                "0x1.af3e190749cb1p-3", "0x1.3dec6d14f6b8bp-2",
                "0x1.0ac5bccc4dcf2p-1", "0x1.b303ac0000000p-33",
            ),
        ),
        (
            "one_corner",
            (
                "-0x1.b2d0084afc4dcp-4", "-0x1.60de4c20d2ab9p-1",
                "-0x1.97384d2a32354p-1", "0x1.440a8c0000000p-31",
            ),
        ),
    ],
)
def test_curved_front_balance_bits_are_pinned(case, want, generic_params):
    # every golden report balances across a straight line, where the
    # order in which a cell adds its pieces hardly moves the sums; these
    # balances across circles pin flux_integral, time_derivative, residual
    # and quadrature_error bit for bit: the benchmark's disc (law 1 at
    # t = 0) and the smooth circle pair (energy at t = 0.1)
    if case == "disc":
        field, key, region, t = _disc_field(generic_params), 1, Region(-0.7, 0.9, -0.8, 0.7), 0.0
    else:
        center = {"inside": (0.1, -0.05), "one_edge": (0.1, 0.5), "one_corner": (0.75, 0.55)}
        field, key = _smooth_circle_field(generic_params, center[case]), "energy"
        region, t = _SMOOTH_REGION, 0.1
    report = balance_residual(field, key, region, t)
    got = (report.flux_integral, report.time_derivative, report.residual, report.quadrature_error)
    assert tuple(v.hex() for v in got) == want


def _scanned_circle_arcs(region, front, t, n_scan=512):
    """The angle intervals of the circle inside the rectangle, found by a
    512-point scan and a 60-step bisection of each inside/outside change."""
    radius = front.radius + front.radial_speed * t
    cx, cy = front.center_x1, front.center_x2

    def inside(theta):
        x = cx + radius * math.cos(theta)
        y = cy + radius * math.sin(theta)
        return region.x1_min <= x <= region.x1_max and region.x2_min <= y <= region.x2_max

    thetas = np.linspace(0.0, 2.0 * math.pi, n_scan, endpoint=False)
    flags = [inside(th) for th in thetas]
    if all(flags):
        return [(0.0, 2.0 * math.pi)]

    def refine(th_out, th_in):
        for _ in range(60):
            mid = 0.5 * (th_out + th_in)
            if inside(mid):
                th_in = mid
            else:
                th_out = mid
        return 0.5 * (th_out + th_in)

    step = 2.0 * math.pi / n_scan
    arcs, entry_angle = [], None
    k = next(k for k in range(n_scan) if not flags[k])
    for _ in range(n_scan):
        k_next = (k + 1) % n_scan
        if not flags[k] and flags[k_next]:
            entry_angle = refine(thetas[k], thetas[k] + step)
        if flags[k] and not flags[k_next] and entry_angle is not None:
            exit_angle = refine(thetas[k] + step, thetas[k])
            if exit_angle < entry_angle:
                exit_angle += 2.0 * math.pi
            arcs.append((entry_angle, exit_angle))
            entry_angle = None
        k = k_next
    return arcs


@pytest.mark.parametrize(
    "center", [(0.1, -0.05), (0.1, 0.5), (0.75, 0.55), (-0.5, 0.0)],
    ids=["inside", "one_edge", "one_corner", "one_edge_across_angle_zero"],
)
def test_circle_arcs_match_the_scan(center):
    front = CircleFront(center[0], center[1], 0.35, radial_speed=0.25)
    region, t = _SMOOTH_REGION, 0.1
    got = balance._front_arcs(region, front, t)
    want = _scanned_circle_arcs(region, front, t)
    assert front.curve(t, [0.0])[1] == 0.35 + 0.25 * t
    assert len(got) == len(want) == 1
    for (a, b), (c, d) in zip(sorted(got), sorted(want)):
        shift = 2.0 * math.pi * round((c - a) / (2.0 * math.pi))
        assert a + shift == pytest.approx(c, abs=1e-12)
        assert b + shift == pytest.approx(d, abs=1e-12)


def _clipped_line(region, front, t):
    """Liang-Barsky clip of the line's curve parameter (arc length from the
    foot of the normal through the origin) to the rectangle; None when
    the line misses it."""
    a, b, c0 = front.spatial_line(t)
    norm = math.hypot(a, b)
    px, py = -c0 * a / norm**2, -c0 * b / norm**2
    ux, uy = -b / norm, a / norm
    s_lo, s_hi = -math.inf, math.inf
    for coord, u, lo, hi in (
        (px, ux, region.x1_min, region.x1_max),
        (py, uy, region.x2_min, region.x2_max),
    ):
        if abs(u) < 1e-15:
            if not lo <= coord <= hi:
                return None
            continue
        s1, s2 = (lo - coord) / u, (hi - coord) / u
        s_lo = max(s_lo, min(s1, s2))
        s_hi = min(s_hi, max(s1, s2))
    return (s_lo, s_hi) if s_lo < s_hi else None


@pytest.mark.parametrize(
    "front",
    [
        LineFront(1.0, -2.0, 0.5, 0.3),
        # through the corner (-0.7, -0.8), and across the top edge at x1 = 0.2
        LineFront(1.5, -0.9, 0.0, 0.33),
        LineFront(1.0, 1.0, 0.0, 3.0),
    ],
    ids=["oblique", "through_a_corner", "outside"],
)
def test_line_arcs_match_the_clip(front):
    # the intervals inside the region join up into the clipped segment
    region, t = _SMOOTH_REGION, 0.1
    got = balance._front_arcs(region, front, t)
    want = _clipped_line(region, front, t)
    if want is None:
        assert got == []
        return
    assert got and all(b == c for (_, b), (c, _) in zip(got[:-1], got[1:]))
    assert (got[0][0], got[-1][1]) == pytest.approx(want, abs=1e-12)


def test_unresolved_front_is_an_error(generic_params):
    # a circle far smaller than a box after the last level of splitting
    field = _disc_field(generic_params)
    tiny = dataclasses.replace(field, front=CircleFront(0.1, -0.05, 1e-14))
    with pytest.raises(ValidationError, match="not resolved by 40 levels"):
        density_integral(tiny, 1, Region(-0.7, 0.9, -0.8, 0.7), 0.0)


def test_unresolved_slice_names_its_time(generic_params):
    # the circle shrinks to a radius of 1e-14 at t = 0.5; planned
    # together with times where it is large or gone, the one time it is
    # not resolved at is named
    field = dataclasses.replace(
        _disc_field(generic_params), front=CircleFront(0.1, -0.05, 0.25 + 1e-14, radial_speed=-0.5)
    )
    region = Region(-0.7, 0.9, -0.8, 0.7)
    times, orders = (0.0, 0.2, 0.5, 0.7), (8, 6)
    with pytest.raises(ValidationError, match=r"not resolved by 40 levels .* at t = 0\.5$"):
        balance._density_integrals(field, LAWS[:1], region, times, orders)
    # each of the others is resolved alone; at t = 0.7 the radius is < 0
    for t in (0.0, 0.2, 0.7):
        for order in orders:
            density_integral(field, 1, region, t, order)

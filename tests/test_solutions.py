import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkwave import report, solutions
from vkwave.errors import SideRequiredError, UnfilledSlotError, ValidationError
from vkwave.indexing import EXPONENTS, JET_SIZE, S11, S12, S22, S33, S1111, S1122, S2222, idx
from vkwave.jets import FieldJet, _SlotRows
from vkwave.scenario import build_field, load_scenario
from vkwave.solutions import (
    AccelerationWave,
    InvariantSolution,
    PiecewiseField,
    Side,
    acceleration_wave,
    invariant_solution,
    pde_residual,
    pde_term_scales,
    polynomial_field,
)
from vkwave.conservation import _DENSITY_SLOTS, _ROW_SLOTS
from vkwave.wavefront import CircleFront, LineFront


def test_invariant_profile_hand_values(unit_params):
    sol = invariant_solution((0.3, -1.0, 0.7, 0.4), (0.1, 0.2, -0.5, 0.9), 1.0, unit_params)
    assert sol.omega == pytest.approx(1.0, rel=1e-12)
    jet = sol.jet((1.5, 2.0, 0.5))
    xi = 1.0
    assert jet.w[..., idx()] == pytest.approx(0.3 - 1.0 + 0.7 * math.sin(1) + 0.4 * math.cos(1), rel=1e-14)
    assert jet.w[..., idx(3)] == pytest.approx(-(-1.0 + 0.7 * math.cos(1) - 0.4 * math.sin(1)), rel=1e-14)
    assert jet.phi[..., idx(1, 1)] == pytest.approx(2 * (-0.5) + 6 * 0.9 * xi, rel=1e-14)
    assert jet.phi[..., idx(2)] == 0.0


coef = st.floats(-2.0, 2.0)
coef4 = st.tuples(coef, coef, coef, coef)


@settings(max_examples=25, deadline=None)
@given(u=coef4, phi=coef4, c=st.floats(0.3, 3.0), x=st.floats(-1.5, 1.5), t=st.floats(-1.0, 1.0))
def test_invariant_solutions_solve_the_field_equations(u, phi, c, x, t, generic_params):
    sol = invariant_solution(u, phi, c, generic_params)
    jet = sol.jet((x, 0.8, t))
    r1, r2 = pde_residual(jet, generic_params)
    s1, s2 = pde_term_scales(jet, generic_params)
    assert abs(r1) <= 1e-9 * max(1.0, s1)
    assert abs(r2) <= 1e-9 * max(1.0, s2)


def test_invariant_solution_validation(generic_params):
    with pytest.raises(ValidationError):
        invariant_solution((1, 2, 3), (0, 0, 0, 0), 1.0, generic_params)
    with pytest.raises(ValidationError):
        invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 0.0, generic_params)
    with pytest.raises(ValidationError):
        invariant_solution((0, 0, 0, 0), (0, 0, math.nan, 0), 1.0, generic_params)


def test_polynomial_field_hand_derivatives(generic_params):
    field = polynomial_field({(2, 1, 1): 0.7}, {(0, 5, 0): 1.0}, generic_params)
    jet = field.jet((0.4, -0.3, 0.2))
    assert jet.w[..., idx()] == pytest.approx(0.7 * 0.16 * (-0.3) * 0.2, rel=1e-14)
    assert jet.w[..., idx(1, 2)] == pytest.approx(1.4 * 0.4 * 0.2, rel=1e-14)
    assert jet.w[..., idx(1, 1, 2, 3)] == pytest.approx(1.4, rel=1e-14)
    assert jet.w[..., idx(2, 2)] == 0.0
    # x2^5 keeps a linear fourth derivative
    assert jet.phi[..., idx(2, 2, 2, 2)] == pytest.approx(120 * (-0.3), rel=1e-14)
    assert jet.phi[..., idx(2, 2, 2)] == pytest.approx(60 * 0.09, rel=1e-14)


@pytest.mark.parametrize("n", [2, 40, 1000])
def test_polynomial_jets_do_not_depend_on_the_batch(n, generic_params):
    # several monomials feed each slot; every point of a batch gets the
    # jet it gets alone
    field = polynomial_field(
        {(2, 0, 1): 0.3, (1, 1, 0): -0.7, (0, 3, 0): 0.2, (1, 0, 2): 0.5, (4, 0, 0): 0.1},
        {(2, 1, 0): 0.4, (0, 2, 1): -0.3, (3, 0, 0): 0.1, (1, 2, 1): 0.6},
        generic_params,
    )
    pts = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3))
    batch = field.jet(pts)
    for k in range(n):
        single = field.jet(pts[k])
        assert single.w.tobytes() == batch.w[k].tobytes()
        assert single.phi.tobytes() == batch.phi[k].tobytes()


def _reference_polynomial_slots(exps, coefs, flat):
    """The per-call jet evaluation that the cached slot terms replaced."""
    out = np.zeros((flat.shape[0], JET_SIZE))
    if coefs.size == 0:
        return out
    for q in range(JET_SIZE):
        slot = EXPONENTS[q]
        sel = np.all(exps >= slot, axis=1)
        if not sel.any():
            continue
        e = exps[sel]
        factors = coefs[sel].astype(np.float64).copy()
        vals = np.ones((flat.shape[0], e.shape[0]))
        for ax in range(3):
            s = int(slot[ax])
            for col, n in enumerate(e[:, ax]):
                n = int(n)
                factors[col] *= math.perm(n, s)
                if n - s > 0:
                    vals[:, col] *= flat[:, ax] ** (n - s)
        acc = vals[:, 0] * factors[0]
        for col in range(1, factors.size):
            acc = acc + vals[:, col] * factors[col]
        out[:, q] = acc
    return out


@pytest.mark.parametrize("seed", range(4))
def test_polynomial_jets_match_per_call_reference(seed, generic_params):
    rng = np.random.default_rng(seed)

    def terms(k):
        return {tuple(int(e) for e in rng.integers(0, 6, 3)): float(rng.normal()) for _ in range(k)}

    w, phi = terms(int(rng.integers(1, 9))), terms(int(rng.integers(0, 9)))
    field = polynomial_field(w, phi, generic_params)
    pts = rng.uniform(-2.0, 2.0, (300, 3))
    for _ in range(2):  # the second jet reuses the cached slot terms
        jet = field.jet(pts)
        want_w = _reference_polynomial_slots(field.w_exponents, field.w_coefficients, pts)
        want_phi = _reference_polynomial_slots(field.phi_exponents, field.phi_coefficients, pts)
        assert jet.w.tobytes() == want_w.tobytes()
        assert jet.phi.tobytes() == want_phi.tobytes()


def test_invariant_solution_requires_plate_params():
    with pytest.raises(ValidationError, match="params must be a PlateParams, got NoneType"):
        InvariantSolution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, None)


def test_polynomial_field_requires_plate_params():
    with pytest.raises(ValidationError, match="params must be a PlateParams, got NoneType"):
        polynomial_field({(2, 0, 0): 1.0}, None, None)


def test_piecewise_field_requires_plate_params(generic_params):
    branch = polynomial_field(None, None, generic_params)
    with pytest.raises(ValidationError, match="params must be a PlateParams, got NoneType"):
        PiecewiseField(branch, branch, LineFront(1.0, 0.0, -1.0, 0.0), None)


def test_polynomial_field_batch_and_validation(generic_params):
    field = polynomial_field({(1, 0, 0): 2.0}, None, generic_params)
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    jet = field.jet(pts)
    assert jet.w[..., idx()].shape == (2,)
    np.testing.assert_allclose(jet.w[..., idx(1)], [2.0, 2.0])
    with pytest.raises(ValidationError):
        polynomial_field({(1, 0): 2.0}, None, generic_params)
    with pytest.raises(ValidationError):
        polynomial_field({(-1, 0, 0): 2.0}, None, generic_params)


def test_piecewise_field_side_resolution(generic_params):
    ahead = polynomial_field(None, None, generic_params)
    behind = polynomial_field({(0, 0, 1): 1.0}, None, generic_params)
    front = LineFront(1.0, 0.0, -2.0, 0.0)
    field = PiecewiseField(ahead, behind, front, generic_params)

    assert field.jet((0.5, 0.0, 0.0)).w[..., idx(3)] == 0.0
    assert field.jet((-0.5, 0.0, 0.0)).w[..., idx(3)] == 1.0
    assert field.jet((0.5, 0.0, 0.0), Side.BEHIND).w[..., idx(3)] == 1.0
    with pytest.raises(SideRequiredError):
        field.jet((0.0, 0.0, 0.0))
    assert field.jet((0.0, 0.0, 0.0), Side.AHEAD).w[..., idx(3)] == 0.0

    pts = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    np.testing.assert_allclose(field.jet(pts).w[..., idx(3)], [0.0, 1.0])


def test_piecewise_field_param_mismatch(unit_params, generic_params):
    ahead = polynomial_field(None, None, generic_params)
    behind = polynomial_field(None, None, unit_params)
    with pytest.raises(ValidationError):
        PiecewiseField(ahead, behind, LineFront(1.0, 0.0, -1.0, 0.0), generic_params)


def test_acceleration_wave_jump_structure(generic_params):
    c = 1.3
    ahead = invariant_solution((0.4, -0.2, 0.9, 0.5), (0.3, 0.8, -0.6, 0.2), c, generic_params)
    wave = acceleration_wave(ahead, c1=0.7, c2=-0.4)
    assert isinstance(wave, AccelerationWave)
    assert wave.wave_speed == pytest.approx(c)
    omega = wave.omega

    point = (c * 0.6, 1.2, 0.6)
    ja = wave.jet(point, Side.AHEAD)
    jb = wave.jet(point, Side.BEHIND)
    # continuous through first order, jumps confined to second order
    assert jb.w[..., idx()] == pytest.approx(ja.w[..., idx()], rel=1e-12)
    assert jb.w[..., idx(1)] == pytest.approx(ja.w[..., idx(1)], rel=1e-12)
    assert jb.w[..., idx(3)] == pytest.approx(ja.w[..., idx(3)], rel=1e-12)
    assert jb.phi[..., idx(1)] == pytest.approx(ja.phi[..., idx(1)], rel=1e-12)
    assert jb.w[..., idx(3, 3)] - ja.w[..., idx(3, 3)] == pytest.approx(0.7 * omega**2 * c**2, rel=1e-10)
    assert jb.phi[..., idx(1, 1)] - ja.phi[..., idx(1, 1)] == pytest.approx(2 * (-0.4), rel=1e-10)
    assert wave.lambda_amplitude == pytest.approx(0.7 * omega**2, rel=1e-14)
    assert wave.mu_amplitude == pytest.approx(-0.8, rel=1e-14)

    # both branches solve the field equations
    for side in (Side.AHEAD, Side.BEHIND):
        r1, r2 = pde_residual(wave.jet(point, side), generic_params)
        s1, s2 = pde_term_scales(wave.jet(point, side), generic_params)
        assert abs(r1) <= 1e-9 * max(1.0, s1)
        assert abs(r2) <= 1e-9 * max(1.0, s2)


def test_acceleration_wave_validation(generic_params):
    ahead = invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, generic_params)
    with pytest.raises(ValidationError):
        acceleration_wave(ahead, c1=0.0, c2=0.5)
    poly = polynomial_field(None, None, generic_params)
    with pytest.raises(ValidationError):
        acceleration_wave(poly, c1=1.0, c2=0.5)


def test_pde_residual_hand_values(generic_params):
    p = generic_params
    jet = polynomial_field({(4, 0, 0): 1.0}, None, p).jet((0.3, 0.1, 0.0))
    r1, r2 = pde_residual(jet, p)
    assert r1 == pytest.approx(24.0 * p.D, rel=1e-13)
    assert r2 == pytest.approx(0.0, abs=1e-15)

    jet = polynomial_field({(2, 0, 0): 1.0}, {(0, 2, 0): 1.0}, p).jet((0.0, 0.0, 0.0))
    r1, _ = pde_residual(jet, p)
    assert r1 == pytest.approx(-4.0, rel=1e-14)

    jet = polynomial_field({(1, 1, 0): 1.0}, None, p).jet((0.2, 0.5, 0.1))
    _, r2 = pde_residual(jet, p)
    assert r2 == pytest.approx(-1.0, rel=1e-14)

    jet = polynomial_field(None, {(4, 0, 0): 1.0}, p).jet((0.3, 0.1, 0.0))
    _, r2 = pde_residual(jet, p)
    assert r2 == pytest.approx(24.0 / p.Eh, rel=1e-13)


def test_polynomial_field_jet_time_slots(generic_params):
    field = polynomial_field({(0, 0, 2): 0.5}, None, generic_params)
    jet = field.jet((0.0, 0.0, 3.0))
    assert jet.w[..., idx(3)] == pytest.approx(3.0, rel=1e-14)
    assert jet.w[..., idx(3, 3)] == pytest.approx(1.0, rel=1e-14)


def _values(rows):
    """The value array of a jet field, full or filled in some slots only."""
    return getattr(rows, "values", rows)


def _bits(values):
    """The bit patterns of float64 values, which tell 0.0 from -0.0."""
    return np.asarray(values).view(np.uint64)


def _per_branch(field, pts, slots=None):
    """Each point's jet from its own branch, filled branch by branch."""
    g = field.front.value(pts)
    out_w = np.full((len(pts), JET_SIZE if slots is None else len(slots)), np.nan)
    out_phi = np.full_like(out_w, np.nan)
    for branch, mask in ((field.ahead, g > 0), (field.behind, g < 0)):
        if mask.any():
            j = branch.jet(pts[mask], slots=slots)
            out_w[mask], out_phi[mask] = _values(j.w), _values(j.phi)
    return out_w, out_phi


@pytest.fixture()
def count_fills(monkeypatch):
    """Record the point count of every traveling jet fill."""
    import vkwave.solutions as solutions

    sizes = []
    fill = solutions.traveling_jet_fill

    def counted(u, phi, omega, c, pts, out_w, out_phi, slots=None):
        sizes.append(len(pts))
        return fill(u, phi, omega, c, pts, out_w, out_phi, slots)

    monkeypatch.setattr(solutions, "traveling_jet_fill", counted)
    return sizes


def _wave(params):
    ahead = invariant_solution((0.4, -0.2, 0.9, 0.5), (0.3, 0.8, -0.6, 0.2), 1.3, params)
    return acceleration_wave(ahead, c1=0.7, c2=-0.4)


def _same_solution_across_circle():
    from vkwave.scenario import build_field, scenario_from_dict

    return build_field(
        scenario_from_dict(
            {
                "plate": {"youngs_modulus": 2.1, "poisson_ratio": 0.27,
                          "thickness": 0.31, "areal_density": 1.7},
                "field": {"family": "invariant", "wave_speed": 0.8,
                          "w_coefficients": [0.1, -0.2, 0.3, 0.4],
                          "phi_coefficients": [0.0, 0.5, -0.6, 0.7]},
                "front": {"kind": "circle", "center": [0.1, -0.2], "radius": 0.6,
                          "radial_speed": 0.3},
                "checks": [{"type": "pde_residual"}],
            }
        )
    )


def _same_speed_pair(case, params):
    """Two traveling profiles with one speed and omega across an oblique
    front, whose coefficients differ only by the sign of zero (zero
    profiles of second order and up, so that the pde slots hold signed
    zeros), or differ all eight."""
    if case == "signed_zeros":
        u_a, phi_a = (0.0, -0.2, 0.0, -0.0), (0.3, 0.0, -0.0, 0.0)
        u_b, phi_b = (-0.0, -0.2, -0.0, 0.0), (0.3, -0.0, 0.0, -0.0)
    else:
        u_a, phi_a = (0.4, -0.2, 0.9, 0.5), (0.3, 0.8, -0.6, 0.2)
        u_b, phi_b = (0.1, 0.2, -0.3, -0.5), (0.0, 0.1, 0.6, -0.2)
    ahead = invariant_solution(u_a, phi_a, 1.3, params)
    behind = InvariantSolution(u_b, phi_b, ahead.wave_speed, params)
    return PiecewiseField(ahead, behind, LineFront(1.0, 0.5, -1.0, 0.1), params)


def _one_fill_case(case, params):
    """A piecewise field whose AUTO batches take one fill."""
    if case == "acceleration_wave":
        return _wave(params)
    if case == "same_branch_object":
        return _same_solution_across_circle()
    return _same_speed_pair(case, params)


_ONE_FILL_CASES = ["acceleration_wave", "same_branch_object", "signed_zeros", "all_eight_differ"]


@pytest.mark.parametrize("case", _ONE_FILL_CASES)
def test_auto_batch_takes_one_fill_equal_to_per_branch_jets(case, generic_params, count_fills):
    field = _one_fill_case(case, generic_params)
    if case == "same_branch_object":
        assert field.ahead is field.behind
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (500, 3))
    g = field.front.value(pts)
    assert (g > 0).any() and (g < 0).any()
    for slots in (None, solutions._PDE_SLOTS):
        want_w, want_phi = _per_branch(field, pts, slots)
        if case == "signed_zeros":
            # the branches' jets are equal in value but not in bits
            a, b = (branch.jet(pts, slots=slots) for branch in (field.ahead, field.behind))
            assert np.array_equal(_values(a.phi), _values(b.phi))
            assert not np.array_equal(_bits(_values(a.phi)), _bits(_values(b.phi)))
        count_fills.clear()
        jet = field.jet(pts, Side.AUTO, slots)
        assert count_fills == [500]
        assert np.array_equal(_bits(_values(jet.w)), _bits(want_w)), slots
        assert np.array_equal(_bits(_values(jet.phi)), _bits(want_phi)), slots
        # a batch shaped (..., 3) keeps its shape
        grid = field.jet(pts.reshape(20, 25, 3), Side.AUTO, slots)
        assert np.array_equal(_bits(_values(grid.w)).reshape(want_w.shape), _bits(want_w))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_auto_batch_on_one_side_equals_that_branch(sign, generic_params, count_fills):
    wave = _wave(generic_params)
    pts = np.random.default_rng(4).uniform(0.1, 1.0, (64, 3))
    pts[:, 0] *= sign
    pts[:, 2] = 0.0  # the front is x1 = 0 at t = 0
    branch = wave.ahead if sign > 0 else wave.behind
    want = branch.jet(pts)
    count_fills.clear()
    jet = wave.jet(pts)
    assert count_fills == [64]
    assert np.array_equal(jet.w, want.w)
    assert np.array_equal(jet.phi, want.phi)


def test_auto_single_point_takes_its_branch(generic_params):
    wave = _wave(generic_params)
    for point, branch in (((0.5, 0.2, 0.1), wave.ahead), ((-0.5, 0.2, 0.1), wave.behind)):
        jet = wave.jet(point)
        assert jet.w.shape == (JET_SIZE,)
        assert np.array_equal(jet.w, branch.jet(point).w)
        assert np.array_equal(jet.phi, branch.jet(point).phi)


@pytest.mark.parametrize("case", ["polynomial", "unequal_speeds"])
def test_other_branches_fill_each_side_separately(case, generic_params, count_fills):
    front = LineFront(1.0, 0.5, -1.0, 0.1)
    if case == "polynomial":
        ahead = polynomial_field({(2, 1, 0): 0.4, (0, 0, 3): -0.2}, {(1, 2, 1): 0.3}, generic_params)
        behind = polynomial_field({(1, 0, 2): 0.7}, {(3, 0, 0): -0.1}, generic_params)
    else:
        ahead = invariant_solution((0.4, -0.2, 0.9, 0.5), (0.3, 0.8, -0.6, 0.2), 1.3, generic_params)
        behind = invariant_solution((0.1, 0.2, -0.3, 0.5), (0.0, 0.1, 0.6, -0.2), 0.9, generic_params)
    field = PiecewiseField(ahead, behind, front, generic_params)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (300, 3))
    n_ahead = int((front.value(pts) > 0).sum())
    want_w, want_phi = _per_branch(field, pts)
    count_fills.clear()
    jet = field.jet(pts)
    assert count_fills == ([] if case == "polynomial" else [n_ahead, 300 - n_ahead])
    assert np.array_equal(jet.w, want_w)
    assert np.array_equal(jet.phi, want_phi)


@pytest.mark.parametrize("case", ["acceleration_wave", "polynomial"])
def test_auto_needs_a_side_on_the_front(case, generic_params):
    if case == "acceleration_wave":
        field = _wave(generic_params)
    else:
        poly = polynomial_field({(1, 0, 0): 1.0}, None, generic_params)
        field = PiecewiseField(poly, poly, LineFront(1.0, 0.0, -1.3, 0.0), generic_params)
    pts = np.array([[0.5, 0.0, 0.0], [1.3 * 0.2, 0.4, 0.2], [-0.5, 0.0, 0.0]])
    assert field.front.value(pts)[1] == 0.0
    with pytest.raises(SideRequiredError):
        field.jet(pts)
    with pytest.raises(SideRequiredError):
        field.jet(pts[1])
    # a mask gives a point on the front the side it names
    jet = field.jet(pts, np.array([True, True, False]))
    assert np.array_equal(jet.w[1], field.ahead.jet(pts[1]).w)


@pytest.mark.parametrize("case", ["invariant", "polynomial"])
def test_nan_front_value_is_an_error_not_a_side(case, generic_params):
    # gamma = 2 x1 + 2 x2 overflows to inf - inf at finite points
    front = LineFront(2.0, 2.0)
    if case == "invariant":
        sol = invariant_solution((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), 1.0, generic_params)
    else:
        sol = polynomial_field(None, None, generic_params)
    field = PiecewiseField(sol, sol, front, generic_params)
    bad = (1.7e308, -1.7e308, 0.0)
    pts = np.array([[0.5, 0.0, 0.0], bad, [-0.5, 0.0, 0.0], [-1.7e308, 1.7e308, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(front.value(pts)).tolist() == [False, True, False, True]
        with pytest.raises(ValidationError, match=r"NaN at \(1\.7e\+308, -1\.7e\+308, 0\.0\)"):
            field.jet(pts)
        with pytest.raises(ValidationError, match="NaN"):
            field.jet(bad)


def _mixed_side_case(case, params):
    """A piecewise field of each kind a balance pass fills mixed batches of."""
    if case == "disc":
        # the disc balance's pair: the ahead branch has no terms at all
        inside = polynomial_field({(0, 0, 1): 1.0}, None, params)
        outside = polynomial_field(None, None, params)
        front = CircleFront(0.1, -0.05, 0.35, radial_speed=0.25)
        return PiecewiseField(outside, inside, front, params)
    return _subset_case(case, params)


@pytest.mark.parametrize(
    "case", ["acceleration_wave", "unequal_speeds", "disc", "polynomial_branches"]
)
@pytest.mark.parametrize(
    "slots", [None, _DENSITY_SLOTS, _ROW_SLOTS], ids=["full", "density", "row"]
)
def test_masked_jet_equals_the_per_side_jets_bit_for_bit(case, slots, generic_params):
    field = _mixed_side_case(case, generic_params)
    if case == "polynomial_branches":
        # the branches fill different slots
        assert set(field.ahead._w_terms) != set(field.behind._w_terms)
    pts = np.random.default_rng(21).uniform(-1.0, 1.0, (300, 3))
    ahead = np.random.default_rng(22).uniform(size=300) < 0.4
    a = field.jet(pts, Side.AHEAD, slots)
    b = field.jet(pts, Side.BEHIND, slots)
    for point, mask in ((pts, ahead), (pts.reshape(15, 20, 3), ahead.reshape(15, 20))):
        jet = field.jet(point, mask, slots)
        for got, want_a, want_b in ((jet.w, a.w, b.w), (jet.phi, a.phi, b.phi)):
            got = _bits(_values(got)).reshape(300, -1)
            assert np.array_equal(got[ahead], _bits(_values(want_a))[ahead])
            assert np.array_equal(got[~ahead], _bits(_values(want_b))[~ahead])
    # AUTO is the mask of the sign of gamma; a single point takes a 0-d mask
    g = field.front.value(pts) > 0
    for got, want in zip(
        (field.jet(pts, Side.AUTO, slots), field.jet(pts[7], np.bool_(g[7]), slots)),
        (field.jet(pts, g, slots), field.jet(pts[7], Side.AHEAD if g[7] else Side.BEHIND, slots)),
    ):
        assert np.array_equal(_bits(_values(got.w)), _bits(_values(want.w)))
        assert np.array_equal(_bits(_values(got.phi)), _bits(_values(want.phi)))


@pytest.mark.parametrize(
    "mask",
    [
        np.ones(39, dtype=bool),
        np.ones((40, 1), dtype=bool),
        np.ones(40, dtype=np.int64),
        np.ones(40),
        "ahead",
    ],
    ids=["short", "column", "int", "float", "string"],
)
@pytest.mark.parametrize("case", ["acceleration_wave", "disc"])
def test_side_mask_of_wrong_shape_or_dtype_is_an_error(case, mask, generic_params):
    field = _mixed_side_case(case, generic_params)
    pts = np.random.default_rng(23).uniform(-1.0, 1.0, (40, 3))
    with pytest.raises(ValidationError, match="boolean array of the batch shape"):
        field.jet(pts, mask)


def _subset_case(case, params):
    """A field of each kind the subset jet path reaches."""
    front = LineFront(1.0, 0.5, -1.0, 0.1)
    ahead = invariant_solution((0.4, -0.2, 0.9, 0.5), (0.3, 0.8, -0.6, 0.2), 1.3, params)
    if case == "invariant":
        return ahead
    if case == "acceleration_wave":
        return _wave(params)
    if case in ("same_branch_object", "signed_zeros", "all_eight_differ"):
        return _one_fill_case(case, params)
    if case == "unequal_speeds":
        behind = invariant_solution((0.1, 0.2, -0.3, 0.5), (0.0, 0.1, 0.6, -0.2), 0.9, params)
        return PiecewiseField(ahead, behind, front, params)
    poly = polynomial_field(
        {(2, 1, 0): 0.4, (0, 0, 3): -0.2, (2, 2, 0): 0.3, (4, 0, 1): 0.1},
        {(1, 2, 1): 0.3, (0, 4, 0): -0.5, (1, 1, 0): 0.2},
        params,
    )
    if case == "polynomial":
        return poly
    other = polynomial_field({(1, 0, 2): 0.7, (3, 1, 0): 0.2}, {(3, 0, 0): -0.1, (2, 2, 0): 0.4}, params)
    return PiecewiseField(poly, other, front, params)


def _assert_holds_slots(sub, full, slots):
    """``sub`` holds ``full``'s bits in ``slots``, ``len(slots)`` values per
    point per field, and reading any other slot raises."""
    for got, want in ((sub.w, full.w), (sub.phi, full.phi)):
        assert got.values.shape == want.shape[:-1] + (len(slots),)
        for q in range(JET_SIZE):
            if q in slots:
                assert np.array_equal(_bits(got[..., q]), _bits(want[..., q]))
            else:
                with pytest.raises(UnfilledSlotError, match=f"^jet slot {q} "):
                    got[..., q]


@pytest.mark.parametrize(
    "case",
    [
        "invariant", "acceleration_wave", "same_branch_object", "signed_zeros",
        "all_eight_differ", "unequal_speeds", "polynomial",
        "polynomial_branches",
    ],
)
@pytest.mark.parametrize("slots", [solutions._PDE_SLOTS, (0, 3, 5, 9, 13, 19, 33, 34)])
def test_subset_jet_equals_full_jet_in_its_slots(case, slots, generic_params, count_fills):
    field = _subset_case(case, generic_params)
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, (400, 3))
    sides = [Side.AUTO] + ([Side.AHEAD, Side.BEHIND] if field.front is not None else [])
    for side in sides:
        full = field.jet(pts, side)
        count_fills.clear()
        sub = field.jet(pts, side, slots)
        if case in _ONE_FILL_CASES and side is Side.AUTO:
            assert count_fills == [400]  # still one fill
        _assert_holds_slots(sub, full, slots)
    # a single point and a batch shaped (..., 3) take the same path
    for point in (pts[0], pts.reshape(20, 20, 3)):
        _assert_holds_slots(field.jet(point, Side.AUTO, slots), field.jet(point), slots)
    # _jet_batches forwards the subset
    for rows, jet in solutions._jet_batches(field, pts, Side.AUTO, slots):
        _assert_holds_slots(jet, field.jet(pts[rows]), slots)


@pytest.mark.parametrize(
    "case", ["invariant", "polynomial", "acceleration_wave", "unequal_speeds", "polynomial_branches"]
)
def test_every_fill_is_one_slot_major_block(case, generic_params):
    # w and phi of every jet a field fills, full or in some slots, are views
    # of one (2, k, n) block, slot by slot, so that each slot of a flat
    # batch is one contiguous run
    field = _subset_case(case, generic_params)
    pts = np.random.default_rng(12).uniform(-1.0, 1.0, (400, 3))
    sides = [Side.AUTO] + ([Side.AHEAD, Side.BEHIND] if field.front is not None else [])
    for slots in (None, solutions._PDE_SLOTS):
        k = JET_SIZE if slots is None else len(slots)
        for side in sides:
            for point, n in ((pts[0], 1), (pts, 400), (pts.reshape(20, 20, 3), 400)):
                jet = field.jet(point, side, slots)
                w, phi = (jet.w, jet.phi) if slots is None else (jet.w.values, jet.phi.values)
                assert isinstance(w.base, np.ndarray) and w.base is phi.base
                assert w.base.shape == (2, k, n)
                if point.ndim == 2:
                    for i in range(k):
                        assert w[:, i].flags.c_contiguous and phi[:, i].flags.c_contiguous


def test_pde_terms_read_only_the_pde_slots(generic_params):
    # a jet that is NaN outside _PDE_SLOTS gives the full jet's residuals
    # and scales: a term that read another slot would give NaN here
    rng = np.random.default_rng(9)
    w, phi = rng.uniform(-2.0, 2.0, (2, 50, JET_SIZE))
    pts = rng.uniform(-1.0, 1.0, (50, 3))
    unfilled = np.setdiff1d(np.arange(JET_SIZE), solutions._PDE_SLOTS)
    w_sub, phi_sub = w.copy(), phi.copy()
    w_sub[:, unfilled] = np.nan
    phi_sub[:, unfilled] = np.nan
    full = solutions._pde_terms(FieldJet(pts, w, phi), generic_params)
    sub = solutions._pde_terms(FieldJet._unchecked(pts, w_sub, phi_sub), generic_params)
    for got, want in zip(sub, full):
        assert np.isfinite(got).all()
        assert np.array_equal(got, want)


def _expression_pde_terms(jet, p):
    """_pde_terms as plain expressions, each operation making a new array:
    the reference its in-place form must match bit for bit."""
    w11, w12, w22 = jet.w[..., S11], jet.w[..., S12], jet.w[..., S22]
    p11, p12, p22 = jet.phi[..., S11], jet.phi[..., S12], jet.phi[..., S22]
    bilap_w = jet.w[..., S1111] + 2.0 * jet.w[..., S1122] + jet.w[..., S2222]
    bilap_phi = jet.phi[..., S1111] + 2.0 * jet.phi[..., S1122] + jet.phi[..., S2222]

    bending = p.D * bilap_w
    w11_p22, w22_p11 = w11 * p22, w22 * p11
    inertia = p.rho * jet.w[..., S33]
    membrane = bilap_phi / p.Eh
    w11_w22, w12_w12 = w11 * w22, w12 * w12

    coupling = w11_p22 + w22_p11 - 2.0 * w12 * p12
    r1 = bending - coupling + inertia
    r2 = membrane + (w11_w22 - w12_w12)
    s1 = (
        np.abs(bending)
        + np.abs(w11_p22) + np.abs(w22_p11) + 2.0 * np.abs(w12 * p12)
        + np.abs(inertia)
    )
    s2 = np.abs(membrane) + np.abs(w11_w22) + np.abs(w12_w12)
    return r1, r2, s1, s2


def _pde_cases(p):
    """(field, points) pairs: the example acceleration wave on both sides of
    its front, and a polynomial field whose w and phi vary with x2."""
    wave_check = Path(__file__).resolve().parents[1] / "examples_scenarios" / "wave_check.yaml"
    wave = build_field(load_scenario(wave_check))
    poly = polynomial_field(
        {(2, 1, 1): 0.3, (0, 3, 1): -0.2, (2, 2, 2): 0.7, (4, 1, 0): 0.1, (0, 4, 2): -0.4},
        {(1, 1, 0): -0.2, (0, 4, 1): 0.3, (2, 2, 1): 0.5, (3, 2, 1): -0.6},
        p,
    )
    rng = np.random.default_rng(24)
    return [(wave, rng.uniform(-1.0, 1.0, (3000, 3))), (poly, rng.uniform(-2.0, 2.0, (500, 3)))]


def _jet_values(jet):
    """Copies of the arrays a full or subset jet holds."""
    return [getattr(f, "values", f).copy() for f in (jet.w, jet.phi)]


@pytest.mark.parametrize("case", [0, 1], ids=["acceleration_wave", "x2_polynomial"])
@pytest.mark.parametrize("slots", [None, solutions._PDE_SLOTS], ids=["full", "pde_slots"])
def test_pde_terms_in_place_match_the_expressions_bit_for_bit(case, slots, generic_params):
    field, pts = _pde_cases(generic_params)[case]
    p = field.params
    jets = [field.jet(pts, Side.AUTO, slots)] + [field.jet(pt, Side.AUTO, slots) for pt in pts[:20]]
    if case == 1:
        for q in (S12, S22, S1122, S2222):
            assert np.all(jets[0].w[..., q] != 0.0) and np.all(jets[0].phi[..., q] != 0.0)
    for jet in jets:
        before = _jet_values(jet)
        got, want = solutions._pde_terms(jet, p), _expression_pde_terms(jet, p)
        for name, g, w in zip(("r1", "r2", "s1", "s2"), got, want):
            assert type(g) is type(w) and np.shape(g) == np.shape(w), name
            assert g.tobytes() == w.tobytes(), name
        assert np.shape(got[0]) == () or np.ptp(got[2]) > 0.0  # a batch holds distinct terms
        for a, b in zip(_jet_values(jet), before):
            assert a.tobytes() == b.tobytes()
        # the public pair functions return the same values
        for g, w in zip(pde_residual(jet, p) + pde_term_scales(jet, p), want):
            assert type(g) is type(w) and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("case", [0, 1], ids=["acceleration_wave", "x2_polynomial"])
def test_pde_scaled_in_place_matches_the_expressions_bit_for_bit(case, generic_params):
    field, pts = _pde_cases(generic_params)[case]
    jet = field.jet(pts, Side.AUTO, solutions._PDE_SLOTS)
    before = _jet_values(jet)
    r1, r2, s1, s2 = _expression_pde_terms(jet, field.params)
    want = np.maximum(report._scaled(r1, s1), report._scaled(r2, s2))
    got = report._pde_scaled(None, (slice(0, len(pts)), jet), field.params, solutions._NO_ZERO_SLOTS)
    assert got.tobytes() == want.tobytes()
    for a, b in zip(_jet_values(jet), before):
        assert a.tobytes() == b.tobytes()


def _random_branch(rng, p, family):
    """A random InvariantSolution or PolynomialField on plate p; some of
    its coefficients are zero."""
    if family == "invariant":
        u, phi = rng.uniform(-2.0, 2.0, (2, 4)) * (rng.random((2, 4)) < 0.7)
        speed = rng.uniform(0.3, 3.0) * rng.choice((-1.0, 1.0))
        return InvariantSolution(tuple(u), tuple(phi), speed, p)
    terms = [
        {tuple(rng.integers(0, 6, 3).tolist()): float(rng.uniform(-1.0, 1.0) * (rng.random() < 0.9))
         for _ in range(rng.integers(0, 6))}
        for _ in range(2)
    ]
    return polynomial_field(*terms, p)


_FAMILIES = ("invariant", "acceleration_wave", "polynomial", "piecewise")


def _random_field(rng, p, family):
    """A random field of one family: an acceleration wave has a random
    ahead solution, and a piecewise field two random branches, invariant
    or polynomial (at times the same speed, for the shared fill) across a
    random line or circle."""
    if family in ("invariant", "polynomial"):
        return _random_branch(rng, p, family)
    if family == "acceleration_wave":
        return AccelerationWave(_random_branch(rng, p, "invariant"), rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
    ahead, behind = (_random_branch(rng, p, rng.choice(("invariant", "polynomial"))) for _ in range(2))
    if isinstance(ahead, InvariantSolution) and isinstance(behind, InvariantSolution) and rng.random() < 0.5:
        behind = InvariantSolution(behind.u, behind.phi, ahead.wave_speed, p)
    if rng.random() < 0.5:
        front = LineFront(*rng.uniform(-1.0, 1.0, 2), rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
    else:
        front = CircleFront(*rng.uniform(-0.3, 0.3, 2), rng.uniform(0.4, 0.8), radial_speed=rng.uniform(-0.2, 0.2))
    return PiecewiseField(ahead, behind, front, p)


def _no_zero_slots(field):
    return getattr(field, "_zero_slots", solutions._NO_ZERO_SLOTS)


@pytest.mark.parametrize("family", _FAMILIES)
def test_declared_zero_slots_are_zero_in_a_full_fill(family, generic_params):
    # every slot a field declares identically zero holds exactly 0 in its
    # full jets, in a batch and at one point, on both sides of a front
    rng = np.random.default_rng(["invariant", "acceleration_wave", "polynomial", "piecewise"].index(family))
    for _ in range(40):
        field = _random_field(rng, generic_params, family)
        zw, zp = field._zero_slots
        assert isinstance(zw, frozenset) and isinstance(zp, frozenset)
        pts = rng.uniform(-1.0, 1.0, (300, 3))
        if field.front is not None:
            gamma = field.front.value(pts)
            pts = pts[gamma != 0.0]
            assert (gamma > 0).any() and (gamma < 0).any()
        for jet in [field.jet(pts)] + [field.jet(pt) for pt in pts[:3]] + [field.jet(pts[3:4])]:
            assert not jet.w[..., sorted(zw)].any() and not jet.phi[..., sorted(zp)].any()
        if isinstance(field, PiecewiseField):
            ahead, behind = _no_zero_slots(field.ahead), _no_zero_slots(field.behind)
            assert field._zero_slots == (ahead[0] & behind[0], ahead[1] & behind[1])


def test_zero_slots_of_each_family(generic_params):
    p = generic_params
    x2 = frozenset(q for q in range(JET_SIZE) if EXPONENTS[q][1] > 0)
    order4 = frozenset(q for q in range(JET_SIZE) if EXPONENTS[q].sum() == 4)
    sol = InvariantSolution((0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8), 1.3, p)
    assert sol._zero_slots == (x2, x2 | order4)
    # a polynomial is zero in the slots no term reaches: every slot above
    # x1^2 x3 for w, and all of them for a phi with no terms
    poly = polynomial_field({(2, 0, 1): 1.0}, None, p)
    reached = {idx(), idx(1), idx(3), idx(1, 1), idx(1, 3), idx(1, 1, 3)}
    assert poly._zero_slots == (frozenset(range(JET_SIZE)) - reached, frozenset(range(JET_SIZE)))
    # a branch that declares nothing leaves its piecewise field nothing
    class Bare:
        params = p

        def jet(self, point, side=Side.AUTO, slots=None):
            return sol.jet(point, slots=slots)

    glued = PiecewiseField(poly, Bare(), LineFront(1.0, 0.0, 0.0, 0.0), p)
    assert glued._zero_slots == (frozenset(), frozenset())
    assert PiecewiseField(poly, sol, LineFront(1.0, 0.0, 0.0, 0.0), p)._zero_slots == (
        poly._zero_slots[0] & x2, x2 | order4
    )


def _zero_slot_cases(p):
    """(field, jets) for 240 random fields, 60 of each family: a 500-point
    batch of pde-slot jets, as a check fills them, and the full jets of a
    (3,) point and a (1, 3) batch."""
    rng = np.random.default_rng(33)
    for i in range(240):
        field = _random_field(rng, p, _FAMILIES[i % 4])
        pts = rng.uniform(-1.0, 1.0, (500, 3))
        yield field, (field.jet(pts, Side.AUTO, solutions._PDE_SLOTS), field.jet(pts[0]), field.jet(pts[:1]))


def test_pde_terms_without_the_zero_slots_equal_the_full_terms(generic_params):
    # leaving out the terms of the declared zero slots gives the same scaled
    # residuals to the bit, and residuals and scales equal as values (an
    # exact zero may differ in sign)
    skipped = 0
    for field, jets in _zero_slot_cases(generic_params):
        zero = field._zero_slots
        for jet in jets:
            batch = (slice(None), jet)
            sparse = report._pde_scaled(None, batch, field.params, zero)
            full = report._pde_scaled(None, batch, field.params, solutions._NO_ZERO_SLOTS)
            assert sparse.tobytes() == full.tobytes()
            got = solutions._pde_rows(jet, field.params, zero)
            want = solutions._pde_rows(jet, field.params)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w) and np.array_equal(g, w)
        skipped += bool(set(solutions._PDE_SLOTS) & (zero[0] | zero[1]))
    assert skipped > 200  # most fields leave some term out


def test_pde_terms_never_read_the_zero_slots(generic_params):
    # a jet whose declared zero slots hold NaN gives the scaled residuals of
    # the clean jet: a term that read one would give NaN.  Both a full jet
    # and a jet of the pde slots only, as the check fills, are poisoned.
    rng = np.random.default_rng(34)
    p = generic_params
    for i in range(40):
        field = _random_field(rng, p, _FAMILIES[i % 4])
        zw, zp = field._zero_slots
        pts = rng.uniform(-1.0, 1.0, (200, 3))
        for slots in (None, solutions._PDE_SLOTS):
            jet = field.jet(pts, Side.AUTO, slots)
            columns = range(JET_SIZE) if slots is None else slots
            w, phi = _jet_values(jet)
            w[:, [c for c, q in enumerate(columns) if q in zw]] = np.nan
            phi[:, [c for c, q in enumerate(columns) if q in zp]] = np.nan
            if slots is not None:
                w, phi = _SlotRows(w, slots), _SlotRows(phi, slots)
            poisoned = FieldJet._unchecked(jet.point, w, phi)
            got = report._pde_scaled(None, (slice(None), poisoned), p, field._zero_slots)
            want = report._pde_scaled(None, (slice(None), jet), p, solutions._NO_ZERO_SLOTS)
            assert np.isfinite(got).all()
            assert got.tobytes() == want.tobytes()


def test_subset_jet_is_checked_in_its_filled_slots(generic_params):
    pts = np.zeros((2, 3))
    w = np.ones((2, 2))
    phi = w.copy()
    jet = FieldJet._filled(pts, w, phi, (1, 4))
    assert jet.w.values is w and jet.phi.values is phi
    assert jet.w[..., idx(1, 1)][0] == 1.0
    phi[1, 1] = np.inf
    with pytest.raises(ValidationError, match="^phi contains non-finite entries$"):
        FieldJet._filled(pts, w, phi, (1, 4))
    w[0, 0] = np.nan
    with pytest.raises(ValidationError, match="^w contains non-finite entries$"):
        FieldJet._filled(pts, w, phi, (1, 4))
    with pytest.raises(ValidationError, match="^point contains non-finite entries$"):
        FieldJet._filled(np.array([[0.0, np.nan, 0.0]] * 2), w[:, 1:], w[:, 1:], (4,))


@pytest.mark.parametrize("case", ["acceleration_wave", "polynomial_branches"])
def test_subset_batches_hold_only_their_slots(case, generic_params):
    # a batch of n points holds len(slots) values per point per field, and
    # the two fields of a traveling fill share one block of that size
    field = _subset_case(case, generic_params)
    slots = solutions._PDE_SLOTS
    pts = np.random.default_rng(10).uniform(-1.0, 1.0, (25_000, 3))
    sizes = []
    for rows, jet in solutions._jet_batches(field, pts, Side.AUTO, slots):
        n = len(pts[rows])
        sizes.append(n)
        for values in (jet.w.values, jet.phi.values):
            assert values.nbytes == 8 * len(slots) * n
        if case == "acceleration_wave":
            assert jet.w.values.base is jet.phi.values.base
            assert jet.w.values.base.nbytes == 2 * 8 * len(slots) * n
    assert sizes == [10_240, 10_240, 4_520]


def test_subset_jet_methods_read_filled_slots_or_raise(generic_params):
    field = _subset_case("acceleration_wave", generic_params)
    pts = np.random.default_rng(11).uniform(-1.0, 1.0, (30, 3))
    full, sub = field.jet(pts), field.jet(pts, Side.AUTO, solutions._PDE_SLOTS)
    assert sub.point.shape == (30, 3)
    assert field.jet(pts[0], Side.AUTO, solutions._PDE_SLOTS).point.shape == (3,)
    assert np.array_equal(sub.w[..., idx(2, 1, 1, 2)], full.w[..., idx(1, 1, 2, 2)])
    assert np.array_equal(sub.phi[..., idx(3, 3)], full.phi[..., idx(3, 3)])
    with pytest.raises(UnfilledSlotError, match=r"^jet slot 1 \(1,\) was not filled; the jet holds slots \(4, "):
        sub.w[..., idx(1)]
    with pytest.raises(UnfilledSlotError, match="^jet slot 0 "):
        sub.phi[..., idx()]
    for key in ((slice(None), 4), 4, (Ellipsis, [4, 5])):
        with pytest.raises(TypeError, match="one slot at a time"):
            sub.w[key]
    with pytest.raises(TypeError, match="read one as"):
        np.asarray(sub.w)
    for a, b in ((sub, sub), (sub, full), (full, sub)):
        with pytest.raises(ValidationError, match="^jets filled in some slots only cannot be subtracted$"):
            a - b


def test_pde_fill_holds_the_slots_its_terms_read(generic_params):
    # the example wave leaves r1 = D w_1111 + rho w_33, and the x2
    # polynomial declares none of the pde slots zero
    (wave, _), (poly, _) = _pde_cases(generic_params)
    assert solutions._pde_reads(wave._zero_slots) == (frozenset({S33, S1111}), frozenset())
    assert solutions._pde_slots(wave._zero_slots) == (S33, S1111)
    assert solutions._pde_slots(poly._zero_slots) == solutions._PDE_SLOTS
    full = set(solutions._PDE_SLOTS)
    assert solutions._pde_reads(solutions._NO_ZERO_SLOTS) == (frozenset(full), frozenset(full - {S33}))
    # w11 is read only with p22 or w22 beside it
    zero = frozenset(full - {S11, S1111})
    assert solutions._pde_slots((zero, frozenset(full))) == (S1111,)
    assert solutions._pde_slots((zero - {S22}, frozenset(full))) == (S11, S22, S1111)
    assert solutions._pde_slots((zero, frozenset(full - {S22}))) == (S11, S22, S1111)
    assert solutions._pde_reads((zero, frozenset(full - {S22}))) == (
        frozenset({S11, S1111}), frozenset({S22})
    )


def test_pde_terms_of_the_derived_fill_equal_the_full_fill(generic_params):
    # the scaled residuals of jets filled in the derived slots only, with
    # the field's zero slots, are those of the full 7-slot fill with every
    # term, to the bit
    rng = np.random.default_rng(35)
    smaller = 0
    for i in range(240):
        field = _random_field(rng, generic_params, _FAMILIES[i % 4])
        zero, p = field._zero_slots, field.params
        slots = solutions._pde_slots(zero)
        pts = rng.uniform(-1.0, 1.0, (500, 3))
        sub = field.jet(pts, Side.AUTO, slots)
        full = field.jet(pts, Side.AUTO, solutions._PDE_SLOTS)
        got = report._pde_scaled(None, (slice(None), sub), p, zero)
        want = report._pde_scaled(None, (slice(None), full), p, solutions._NO_ZERO_SLOTS)
        assert got.tobytes() == want.tobytes()
        smaller += len(slots) < len(solutions._PDE_SLOTS)
    assert smaller > 150  # most fields fill fewer slots


@pytest.mark.parametrize("case", [0, 1], ids=["acceleration_wave", "x2_polynomial"])
def test_pde_batches_fill_one_kept_block(case, generic_params, monkeypatch):
    # batch after batch is filled into one block, in the derived slots,
    # and each batch's scaled residuals equal those of one full fill
    monkeypatch.setattr(solutions, "_BATCH_POINTS", 8)
    field, pts = _pde_cases(generic_params)[case]
    zero, p = field._zero_slots, field.params
    slots = solutions._pde_slots(zero)
    want = report._pde_scaled(
        None, (slice(None), field.jet(pts, Side.AUTO, solutions._PDE_SLOTS)), p, solutions._NO_ZERO_SLOTS
    )
    got, blocks, size = [], [], solutions._batch_size(solutions._PDE_SLOTS)
    for rows, jet in report._pde_batches(field, len(pts), lambda a, b: pts[a:b], zero):
        assert len(pts[rows]) == min(size, len(pts) - rows.start)
        assert jet.w.values.shape == (len(pts[rows]), len(slots))
        blocks.append(jet.w.values.base)
        got.append(report._pde_scaled(None, (rows, jet), p, zero).copy())
        del jet
    assert len(got) > 5 and all(block is blocks[0] for block in blocks)
    assert np.concatenate(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["polynomial", "piecewise"])
def test_a_zeroed_fill_into_the_kept_block_clears_it(family, generic_params):
    # a fill that leaves the slots without terms at zero does so in a block
    # that held another batch's values
    poly = polynomial_field({(2, 0, 0): 0.5}, {(0, 2, 0): 0.25, (4, 0, 0): 1.0}, generic_params)
    field = poly
    if family == "piecewise":
        other = polynomial_field({(0, 0, 2): 1.5}, None, generic_params)
        field = PiecewiseField(poly, other, LineFront(1.0, 0.0, 0.0, 0.0), generic_params)
    pts = np.random.default_rng(36).uniform(-1.0, 1.0, (50, 3))
    slots = solutions._PDE_SLOTS
    block = np.full(2 * len(slots) * len(pts), np.nan)
    got = field.jet(pts, Side.AUTO, slots, _block=block)
    want = field.jet(pts, Side.AUTO, slots)
    assert np.shares_memory(got.w.values, block)
    for a, b in zip(_jet_values(got), _jet_values(want)):
        assert a.tobytes() == b.tobytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkwave import solutions
from vkwave.errors import SideRequiredError, UnfilledSlotError, ValidationError
from vkwave.indexing import EXPONENTS, JET_SIZE
from vkwave.jets import FieldJet
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
from vkwave.wavefront import LineFront


def test_invariant_profile_hand_values(unit_params):
    sol = invariant_solution((0.3, -1.0, 0.7, 0.4), (0.1, 0.2, -0.5, 0.9), 1.0, unit_params)
    assert sol.omega == pytest.approx(1.0, rel=1e-12)
    jet = sol.jet((1.5, 2.0, 0.5))
    xi = 1.0
    assert jet.dw() == pytest.approx(0.3 - 1.0 + 0.7 * math.sin(1) + 0.4 * math.cos(1), rel=1e-14)
    assert jet.dw(3) == pytest.approx(-(-1.0 + 0.7 * math.cos(1) - 0.4 * math.sin(1)), rel=1e-14)
    assert jet.dphi(1, 1) == pytest.approx(2 * (-0.5) + 6 * 0.9 * xi, rel=1e-14)
    assert jet.dphi(2) == 0.0


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
    assert jet.dw() == pytest.approx(0.7 * 0.16 * (-0.3) * 0.2, rel=1e-14)
    assert jet.dw(1, 2) == pytest.approx(1.4 * 0.4 * 0.2, rel=1e-14)
    assert jet.dw(1, 1, 2, 3) == pytest.approx(1.4, rel=1e-14)
    assert jet.dw(2, 2) == 0.0
    # x2^5 keeps a linear fourth derivative
    assert jet.dphi(2, 2, 2, 2) == pytest.approx(120 * (-0.3), rel=1e-14)
    assert jet.dphi(2, 2, 2) == pytest.approx(60 * 0.09, rel=1e-14)


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
    assert jet.dw().shape == (2,)
    np.testing.assert_allclose(jet.dw(1), [2.0, 2.0])
    with pytest.raises(ValidationError):
        polynomial_field({(1, 0): 2.0}, None, generic_params)
    with pytest.raises(ValidationError):
        polynomial_field({(-1, 0, 0): 2.0}, None, generic_params)


def test_piecewise_field_side_resolution(generic_params):
    ahead = polynomial_field(None, None, generic_params)
    behind = polynomial_field({(0, 0, 1): 1.0}, None, generic_params)
    front = LineFront(1.0, 0.0, -2.0, 0.0)
    field = PiecewiseField(ahead, behind, front, generic_params)

    assert field.jet((0.5, 0.0, 0.0)).dw(3) == 0.0
    assert field.jet((-0.5, 0.0, 0.0)).dw(3) == 1.0
    assert field.jet((0.5, 0.0, 0.0), Side.BEHIND).dw(3) == 1.0
    with pytest.raises(SideRequiredError):
        field.jet((0.0, 0.0, 0.0))
    assert field.jet((0.0, 0.0, 0.0), Side.AHEAD).dw(3) == 0.0

    pts = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    np.testing.assert_allclose(field.jet(pts).dw(3), [0.0, 1.0])


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
    assert jb.dw() == pytest.approx(ja.dw(), rel=1e-12)
    assert jb.dw(1) == pytest.approx(ja.dw(1), rel=1e-12)
    assert jb.dw(3) == pytest.approx(ja.dw(3), rel=1e-12)
    assert jb.dphi(1) == pytest.approx(ja.dphi(1), rel=1e-12)
    assert jb.dw(3, 3) - ja.dw(3, 3) == pytest.approx(0.7 * omega**2 * c**2, rel=1e-10)
    assert jb.dphi(1, 1) - ja.dphi(1, 1) == pytest.approx(2 * (-0.4), rel=1e-10)
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
    assert jet.dw(3) == pytest.approx(3.0, rel=1e-14)
    assert jet.dw(3, 3) == pytest.approx(1.0, rel=1e-14)


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


def test_subset_jet_is_checked_in_its_filled_slots(generic_params):
    pts = np.zeros((2, 3))
    w = np.ones((2, 2))
    phi = w.copy()
    jet = FieldJet._filled(pts, w, phi, (1, 4))
    assert jet.w.values is w and jet.phi.values is phi
    assert jet.dw(1, 1)[0] == 1.0
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
    assert sub.is_batch and not field.jet(pts[0], Side.AUTO, solutions._PDE_SLOTS).is_batch
    assert np.array_equal(sub.dw(2, 1, 1, 2), full.dw(1, 1, 2, 2))
    assert np.array_equal(sub.dphi(3, 3), full.dphi(3, 3))
    with pytest.raises(UnfilledSlotError, match=r"^jet slot 1 \(1,\) was not filled; the jet holds slots \(4, "):
        sub.dw(1)
    with pytest.raises(UnfilledSlotError, match="^jet slot 0 "):
        sub.dphi()
    for key in ((slice(None), 4), 4, (Ellipsis, [4, 5])):
        with pytest.raises(TypeError, match="one slot at a time"):
            sub.w[key]
    with pytest.raises(TypeError, match="read one as"):
        np.asarray(sub.w)
    for a, b in ((sub, sub), (sub, full), (full, sub)):
        with pytest.raises(ValidationError, match="^jets filled in some slots only cannot be subtracted$"):
            a - b

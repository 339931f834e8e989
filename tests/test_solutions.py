import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkwave.errors import SideRequiredError, ValidationError
from vkwave.solutions import (
    AccelerationWave,
    InvariantSolution,
    PiecewiseField,
    Side,
    acceleration_wave,
    eval_jet,
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


def test_eval_jet_passthrough(generic_params):
    field = polynomial_field({(0, 0, 2): 0.5}, None, generic_params)
    jet = eval_jet(field, (0.0, 0.0, 3.0))
    assert jet.dw(3) == pytest.approx(3.0, rel=1e-14)
    assert jet.dw(3, 3) == pytest.approx(1.0, rel=1e-14)

import numpy as np
import pytest

from vkwave.errors import ValidationError
from vkwave.fdtools import (
    ORDER_STEP_SCALE,
    STENCILS,
    central_difference,
    fd_jet_oracle,
    field_value_fn,
    richardson,
)
from vkwave.solutions import Side, acceleration_wave, invariant_solution, polynomial_field


def test_stencil_weights_annihilate_constants():
    for order, (offsets, weights) in STENCILS.items():
        total = sum(weights)
        if order == 0:
            assert total == 1.0
        else:
            assert total == pytest.approx(0.0, abs=1e-12)
        assert len(offsets) == len(weights)


def test_central_difference_polynomial_exactness():
    def f(pts):
        return pts[:, 0] ** 2 * pts[:, 1]

    d = central_difference(f, (1.5, -2.0, 0.0), (1, 0, 0), (1e-3, 1.0, 1.0))
    assert d == pytest.approx(2 * 1.5 * (-2.0), rel=1e-10)
    d = central_difference(f, (1.5, -2.0, 0.0), (2, 1, 0), (1e-2, 1e-2, 1.0))
    assert d == pytest.approx(2.0, rel=1e-8)

    def g(pts):
        return pts[:, 2] ** 4

    d = central_difference(g, (0.0, 0.0, 0.7), (0, 0, 4), (1.0, 1.0, 1e-2))
    assert d == pytest.approx(24.0, rel=1e-6)


def test_central_difference_columnwise():
    def f(pts):
        return np.stack([pts[:, 0], pts[:, 0] ** 2], axis=-1)

    d = central_difference(f, (2.0, 0.0, 0.0), (1, 0, 0), (1e-3, 1.0, 1.0))
    assert d == pytest.approx([1.0, 4.0], rel=1e-9)


def test_central_difference_rejects_order_five():
    with pytest.raises(ValidationError):
        central_difference(lambda p: p[:, 0], (0, 0, 0), (5, 0, 0), (1e-3, 1, 1))


def test_richardson_removes_h_squared_error():
    exact = 3.7
    coarse = exact + 0.4
    fine = exact + 0.1
    assert richardson(coarse, fine) == pytest.approx(exact, rel=1e-14)
    np.testing.assert_allclose(
        richardson(np.array([1.4, 2.4]), np.array([1.1, 2.1])), [1.0, 2.0]
    )


def test_order_step_scale_widens_high_orders():
    assert ORDER_STEP_SCALE[0] == ORDER_STEP_SCALE[1] == ORDER_STEP_SCALE[2] == 1.0
    assert ORDER_STEP_SCALE[3] < ORDER_STEP_SCALE[4]


def test_fd_jet_oracle_on_polynomial(generic_params):
    field = polynomial_field(
        {(3, 0, 0): 1.0, (1, 1, 1): -2.0}, {(0, 2, 0): 0.5}, generic_params
    )
    point = (0.4, -0.2, 0.3)
    oracle = fd_jet_oracle(field_value_fn(field), point, h=1e-2)
    exact = field.jet(point)
    np.testing.assert_allclose(oracle.w, exact.w, rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(oracle.phi, exact.phi, rtol=1e-7, atol=1e-7)


def test_fd_jet_oracle_on_wave_branch():
    from vkwave.params import make_plate_params

    p = make_plate_params(1.0, 0.3, 1.0, 1.0)
    ahead = invariant_solution((0.2, 0.1, 0.4, -0.3), (0.0, 0.5, 0.3, 0.1), 0.8, p)
    wave = acceleration_wave(ahead, c1=0.6, c2=0.2)
    point = (0.8 * 0.5, 0.0, 0.5)

    # one-sided wrappers keep the stencil off the front
    oracle = fd_jet_oracle(field_value_fn(wave, side=Side.BEHIND), point, h=1e-3)
    exact = wave.jet(point, Side.BEHIND)
    scale = np.maximum(1.0, np.abs(exact.w))
    assert np.max(np.abs(oracle.w - exact.w) / scale) < 1e-5
    scale = np.maximum(1.0, np.abs(exact.phi))
    assert np.max(np.abs(oracle.phi - exact.phi) / scale) < 1e-5


def test_fd_jet_oracle_validation(generic_params):
    field = polynomial_field(None, None, generic_params)
    with pytest.raises(ValidationError):
        fd_jet_oracle(field_value_fn(field), (0, 0, 0), h=0.0)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), True])
def test_fd_jet_oracle_rejects_a_step_that_is_not_a_positive_number(h, generic_params):
    # nan used to fail later, on a non-finite jet; True ran with h = 1
    field = polynomial_field(None, None, generic_params)
    with pytest.raises(ValidationError, match="^step h must be a positive finite number"):
        fd_jet_oracle(field_value_fn(field), (0, 0, 0), h=h)

"""Hand-computed tensor components at a fixed second/third order jet."""

import numpy as np
import pytest

from vkwave.indexing import JET_SIZE, idx
from vkwave.jets import FieldJet
from vkwave.tensors import (
    bending_tensor,
    f_vector,
    g_tensor,
    kinetic_energy_density,
    lagrangian_density,
    membrane_strain,
    membrane_stress,
    moment_tensor,
    shear_force,
    strain_energy_density,
)

POINT = (0.25, -0.5, 1.0)


@pytest.fixture()
def jet():
    w = {
        (1,): 0.5,
        (2,): -0.2,
        (3,): 1.1,
        (1, 1): 0.4,
        (1, 2): -0.3,
        (2, 2): 0.8,
        (1, 1, 1): 0.9,
        (1, 2, 2): -0.7,
        (1, 1, 2): 0.2,
        (2, 2, 2): 0.1,
    }
    phi = {
        (1, 1): 2.0,
        (1, 2): 0.6,
        (2, 2): -1.0,
        (1, 1, 1): 1.2,
        (1, 2, 2): 0.3,
        (1, 1, 2): -0.4,
        (2, 2, 2): 0.5,
    }
    arrays = np.zeros((2, JET_SIZE))
    for row, partials in zip(arrays, (w, phi)):
        for subscripts, value in partials.items():
            row[idx(*subscripts)] = value
    return FieldJet(POINT, *arrays)


def test_membrane_stress(jet):
    n = membrane_stress(jet)
    assert n.c11 == pytest.approx(-1.0)
    assert n.c12 == pytest.approx(-0.6)
    assert n.c22 == pytest.approx(2.0)


def test_moment_tensor(jet, generic_params):
    d = generic_params.D
    m = moment_tensor(jet, generic_params)
    assert m.c11 == pytest.approx(-d * (0.4 + 0.27 * 0.8), rel=1e-14)
    assert m.c12 == pytest.approx(-d * (1 - 0.27) * (-0.3), rel=1e-14)
    assert m.c22 == pytest.approx(-d * (0.8 + 0.27 * 0.4), rel=1e-14)


def test_bending_and_strain(jet, generic_params):
    k = bending_tensor(jet)
    assert (k.c11, k.c12, k.c22) == (0.4, -0.3, 0.8)

    eh = generic_params.Eh
    e = membrane_strain(jet, generic_params)
    assert e.c11 == pytest.approx((-1.0 - 0.27 * 2.0) / eh, rel=1e-14)
    assert e.c12 == pytest.approx(-(1 + 0.27) * 0.6 / eh, rel=1e-14)
    assert e.c22 == pytest.approx((2.0 + 0.27) / eh, rel=1e-14)


def test_shear_force(jet, generic_params):
    d = generic_params.D
    q = shear_force(jet, generic_params)
    # grad(laplace w) = (0.2, 0.3) plus membrane transport N.grad(w)
    assert q.x1 == pytest.approx(-d * 0.2 - 0.38, rel=1e-14)
    assert q.x2 == pytest.approx(-d * 0.3 - 0.7, rel=1e-14)


def test_g_tensor(jet, generic_params):
    eh = generic_params.Eh
    g = g_tensor(jet, generic_params)
    assert g.c11 == pytest.approx((2.0 + 0.27) / eh - 0.02, rel=1e-14)
    assert g.c12 == pytest.approx(1.27 * 0.6 / eh - 0.05, rel=1e-14)
    assert g.c22 == pytest.approx((-1.0 - 0.54) / eh - 0.125, rel=1e-14)


def test_f_vector(jet, generic_params):
    eh = generic_params.Eh
    f = f_vector(jet, generic_params)
    assert f.x1 == pytest.approx(1.5 / eh + 0.17, rel=1e-14)
    assert f.x2 == pytest.approx(0.1 / eh + 0.035, rel=1e-14)


def test_energy_densities(jet, generic_params):
    p = generic_params
    t = kinetic_energy_density(jet, p)
    assert t == pytest.approx(0.5 * p.rho * 1.1**2, rel=1e-14)

    pi = strain_energy_density(jet, p)
    bending = 1.2**2 - (1 - 0.27) * 2 * (0.4 * 0.8 - 0.3**2)
    membrane = 1.0**2 - (1 + 0.27) * 2 * (2.0 * (-1.0) - 0.6**2)
    coupling = 2.0 * 0.04 + (-1.0) * 0.25 - 2 * 0.6 * 0.5 * (-0.2)
    expected = 0.5 * p.D * bending - membrane / (2 * p.Eh) + 0.5 * coupling
    assert pi == pytest.approx(expected, rel=1e-13)

    assert lagrangian_density(jet, p) == pytest.approx(t - pi, rel=1e-13)


def test_unit_fixture_collapses_coefficients(jet, unit_params):
    # D = Eh = 1 and nu = 0 make the component formulas bare derivatives
    m = moment_tensor(jet, unit_params)
    assert m.c11 == pytest.approx(-0.4, rel=1e-14)
    assert m.c12 == pytest.approx(0.3, rel=1e-14)
    e = membrane_strain(jet, unit_params)
    assert e.c11 == pytest.approx(-1.0, rel=1e-14)
    assert e.c22 == pytest.approx(2.0, rel=1e-14)

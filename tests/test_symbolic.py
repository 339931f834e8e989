"""Exact proofs of the law rows and the Lagrangian through the unchanged
formula code, and exact references for the jet fills (tests/symbolic.py)."""

import numpy as np
import pytest
import sympy as sp

from vkwave.conservation import LAWS, _exact_divergence, density_flux
from vkwave.errors import ValidationError
from vkwave.indexing import EXPONENTS, S3
from vkwave.jets import FieldJet
from vkwave.params import make_plate_params
from vkwave.solutions import (
    Side,
    _pde_terms,
    acceleration_wave,
    invariant_solution,
    polynomial_field,
)
from vkwave.tensors import lagrangian_density

from symbolic import (
    PHI,
    PLATE,
    R1,
    R2,
    W,
    X,
    ExactJets,
    closed_form,
    euler_operator,
    expr,
    symbol_jet,
    total_derivative,
    ulps_from_exact,
    wave_branches,
)
from test_conservation import _characteristics, _x2_dependent_polynomials


@pytest.fixture(scope="module")
def divergence_terms():
    """(D3 Psi, D1 P1, D2 P2) of every law at the symbol jet, by index."""
    jet = symbol_jet()
    terms = {}
    for entry in LAWS:
        df = density_flux(entry, jet, PLATE)
        terms[entry.index] = (
            total_derivative(expr(df.density), 3),
            total_derivative(expr(df.flux.x1), 1),
            total_derivative(expr(df.flux.x2), 2),
        )
    return terms


@pytest.fixture(scope="module")
def numeric_divergence_terms(divergence_terms):
    """divergence_terms as one numpy function of (point, w, phi, D, Eh,
    rho, nu) arrays, giving each law's three terms in LAWS order."""
    return sp.lambdify(
        (X, W, PHI, PLATE.D, PLATE.Eh, PLATE.rho, PLATE.nu),
        [divergence_terms[entry.index] for entry in LAWS],
        docstring_limit=0,
    )


@pytest.mark.parametrize("entry", LAWS, ids=lambda entry: entry.name)
def test_each_law_is_its_characteristic_form_exactly(entry, divergence_terms):
    # div(Psi_k, P_k) = Q_k1 r1 + Q_k2 r2 as polynomials in the jet
    # coordinates, Q the table that the float test checks at samples
    q1, q2 = (expr(q) for q in _characteristics(symbol_jet())[entry.index])
    assert sp.expand(sum(divergence_terms[entry.index]) - q1 * R1 - q2 * R2) == 0


def test_no_row_reads_an_order_four_slot():
    # the complex-step divergence needs a derivative of every slot a row
    # reads, and a 4-jet holds none of an order-4 slot
    order_four = {s for q in range(len(W)) if EXPONENTS[q].sum() == 4 for s in (W[q], PHI[q])}
    jet = symbol_jet()
    for entry in LAWS:
        df = density_flux(entry, jet, PLATE)
        read = set().union(*(expr(v).free_symbols for v in (df.density, df.flux.x1, df.flux.x2)))
        assert not read & order_four, entry.name


def test_the_lagrangian_gives_the_field_equations():
    # E_w(L) = -r1 and E_phi(L) = r2: the field equations, the Lagrangian
    # and the fourteen rows are one Noether table
    lagrangian = expr(lagrangian_density(symbol_jet(), PLATE))
    assert sp.expand(euler_operator(lagrangian, W) + R1) == 0
    assert sp.expand(euler_operator(lagrangian, PHI) - R2) == 0


def test_the_symbolic_field_equations_are_the_package_residuals(generic_params):
    p = generic_params
    rng = np.random.default_rng(13)
    jet = FieldJet(rng.uniform(-1.0, 1.0, (50, 3)), rng.uniform(-1.0, 1.0, (50, 35)),
                   rng.uniform(-1.0, 1.0, (50, 35)))
    residuals = sp.lambdify((W, PHI, PLATE.D, PLATE.Eh, PLATE.rho), (R1, R2))
    r1, r2, s1, s2 = _pde_terms(jet, p)
    for got, want, scale in zip((r1, r2), residuals(jet.w.T, jet.phi.T, p.D, p.Eh, p.rho), (s1, s2)):
        assert np.max(np.abs(got - want) / np.maximum(1.0, scale)) <= 1e-15


@pytest.mark.parametrize("jets", ["random", "polynomial"])
def test_exact_divergence_is_the_symbolic_total_derivative(jets, generic_params, numeric_divergence_terms):
    # the sample points of test_exact_divergence_is_the_characteristic_form
    p = generic_params
    rng = np.random.default_rng(11)
    points = rng.uniform(-1.0, 1.0, (50, 3))
    if jets == "random":
        jet = FieldJet(points, rng.uniform(-1.0, 1.0, (50, 35)), rng.uniform(-1.0, 1.0, (50, 35)))
    else:
        jet = _x2_dependent_polynomials(p)[0].jet(points)
    symbolic = numeric_divergence_terms(jet.point.T, jet.w.T, jet.phi.T, p.D, p.Eh, p.rho, p.nu)
    for entry, want in zip(LAWS, symbolic):
        est = _exact_divergence(entry, jet, p)
        got = (est.d_density_dt, est.d_flux1_dx1, est.d_flux2_dx2)
        scale = np.maximum(1.0, est.scale)
        worst = max(float(np.max(np.abs(g - w) / scale)) for g, w in zip(got, want))
        assert worst <= 1e-13, (entry.name, worst)


def test_polynomial_fill_is_the_exact_jet(generic_params):
    field = polynomial_field(
        {(3, 0, 0): 1.0, (1, 1, 1): -2.0}, {(0, 2, 0): 0.5}, generic_params
    )
    point = (0.4, -0.2, 0.3)
    assert ulps_from_exact(field.jet(point), ExactJets(*closed_form(field))(point)) <= 32.0


def test_wave_branch_fill_is_the_exact_jet():
    p = make_plate_params(1.0, 0.3, 1.0, 1.0)
    ahead = invariant_solution((0.2, 0.1, 0.4, -0.3), (0.0, 0.5, 0.3, 0.1), 0.8, p)
    wave = acceleration_wave(ahead, c1=0.6, c2=0.2)
    point = (0.8 * 0.5, 0.0, 0.5)
    # the behind branch as the profile plus the wave's perturbation
    exact_jets = ExactJets(*wave_branches(wave)[Side.BEHIND])
    assert ulps_from_exact(wave.jet(point, Side.BEHIND), exact_jets(point)) <= 32.0


def test_an_overflowing_coefficient_leaves_a_finite_slot_finite(generic_params):
    # 1e308 times the falling factorial 2 overflows, but w_3 = 2e307 here
    field = polynomial_field({(0, 0, 2): 1e308}, None, generic_params)
    point = (0.1, 0.2, 0.1)
    w3 = ExactJets(*closed_form(field))(point)[0][S3]
    assert abs(field.jet(point, slots=((S3,), ())).w[..., S3] - w3) <= 2.0 * np.spacing(w3)
    # w_33 = 2e308 is not finite: the full jet is refused
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="w contains non-finite"):
        field.jet(point)

import dataclasses
import re
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from vkwave.conservation import (
    _DENSITY_SLOTS,
    LAWS,
    _exact_divergence,
    conservation_divergence,
    conservation_residual,
    density_flux,
    law,
)
from vkwave.errors import FrontProximityError, UnfilledSlotError, ValidationError
from vkwave.indexing import MULTI_INDICES, S1, S2, S3, S111, S1111
from vkwave.jets import FieldJet
from vkwave.report import run_scenario
from vkwave.scenario import build_field, load_scenario
from vkwave.solutions import (
    PiecewiseField,
    _pde_terms,
    acceleration_wave,
    invariant_solution,
    polynomial_field,
)
from vkwave.tensors import (
    Vector2,
    f_vector,
    g_tensor,
    kinetic_energy_density,
    moment_tensor,
    shear_force,
    strain_energy_density,
)
from vkwave.wavefront import LineFront, _front_distance


def test_registry_shape():
    assert len(LAWS) == 14
    assert [entry.index for entry in LAWS] == list(range(1, 15))
    assert len({entry.name for entry in LAWS}) == 14
    assert LAWS[3].name == "energy"
    assert LAWS[13].name == "compatibility"


def test_law_resolution():
    assert law(3) is law("wave_momentum_x2") is law(LAWS[2])
    with pytest.raises(ValidationError, match="1..14"):
        law(0)
    with pytest.raises(ValidationError, match="1..14"):
        law(15)
    with pytest.raises(ValidationError, match="valid names"):
        law("momentum")
    with pytest.raises(ValidationError):
        law(2.0)
    with pytest.raises(ValidationError):
        law(True)


@pytest.fixture()
def dense_jet():
    rng = np.random.default_rng(314)
    point = np.array([0.7, -0.4, 0.9])
    return FieldJet(point, rng.uniform(-1, 1, 35), rng.uniform(-1, 1, 35))


def test_structural_identities(dense_jet, generic_params):
    jet, p = dense_jet, generic_params
    x1, x2, x3 = jet.point
    rows = {entry.index: density_flux(entry.index, jet, p) for entry in LAWS}

    q = shear_force(jet, p)
    assert rows[1].density == pytest.approx(p.rho * jet.dw(3), rel=1e-14)
    assert rows[1].flux[1] == pytest.approx(-q[1], rel=1e-14)
    assert rows[1].flux[2] == pytest.approx(-q[2], rel=1e-14)

    t = kinetic_energy_density(jet, p)
    pi = strain_energy_density(jet, p)
    assert rows[4].density == pytest.approx(t + pi, rel=1e-13)

    # scaling row reassembles the translation rows plus tensor transport
    m = moment_tensor(jet, p)
    g = g_tensor(jet, p)
    w1, w2 = jet.dw(1), jet.dw(2)
    f1, f2 = jet.dphi(1), jet.dphi(2)
    assert rows[5].density == pytest.approx(
        x1 * rows[2].density + x2 * rows[3].density - 2 * x3 * rows[4].density, rel=1e-12
    )
    for alpha in (1, 2):
        carried = (
            w1 * m.component(alpha, 1)
            + w2 * m.component(alpha, 2)
            + f1 * g.component(alpha, 1)
            + f2 * g.component(alpha, 2)
        )
        assert rows[5].flux[alpha] == pytest.approx(
            x1 * rows[2].flux[alpha]
            + x2 * rows[3].flux[alpha]
            - 2 * x3 * rows[4].flux[alpha]
            - carried,
            rel=1e-12,
        )

    # rotation row: moment of the translation rows plus intrinsic spin
    assert rows[6].density == pytest.approx(
        x2 * rows[2].density - x1 * rows[3].density, rel=1e-12
    )
    for alpha in (1, 2):
        spin = (
            w2 * m.component(alpha, 1)
            - w1 * m.component(alpha, 2)
            + f2 * g.component(alpha, 1)
            - f1 * g.component(alpha, 2)
        )
        assert rows[6].flux[alpha] == pytest.approx(
            x2 * rows[2].flux[alpha] - x1 * rows[3].flux[alpha] + spin, rel=1e-12
        )

    # center of mass and the Galilean moments
    assert rows[9].density == pytest.approx(p.rho * (x3 * jet.dw(3) - jet.dw()), rel=1e-13)
    for alpha in (1, 2):
        assert rows[9].flux[alpha] == pytest.approx(-x3 * q[alpha], rel=1e-13)
        assert rows[10].flux[alpha] == pytest.approx(x3 * rows[7].flux[alpha], rel=1e-13)
        assert rows[11].flux[alpha] == pytest.approx(x3 * rows[8].flux[alpha], rel=1e-13)
    assert rows[10].density == pytest.approx(x1 * rows[9].density, rel=1e-13)
    assert rows[11].density == pytest.approx(x2 * rows[9].density, rel=1e-13)

    fv = f_vector(jet, p)
    assert rows[14].density == 0.0
    assert rows[14].flux[1] == pytest.approx(fv[1], rel=1e-14)
    assert rows[14].flux[2] == pytest.approx(fv[2], rel=1e-14)


def test_density_flux_batch(generic_params):
    field = polynomial_field({(2, 1, 1): 0.3}, {(1, 1, 0): -0.2}, generic_params)
    pts = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6], [0.0, 0.0, 0.0]])
    batch = density_flux("energy", field.jet(pts), generic_params)
    assert np.shape(batch.density) == (3,)
    for i, point in enumerate(pts):
        single = density_flux("energy", field.jet(point), generic_params)
        assert batch.density[i] == pytest.approx(single.density, rel=1e-14)
        assert batch.flux[1][i] == pytest.approx(single.flux[1], rel=1e-14)


def test_all_laws_conserved_on_smooth_solution(generic_params):
    sol = invariant_solution((0.3, -0.5, 0.6, 0.2), (0.1, -0.4, 0.3, 0.5), 1.1, generic_params)
    point = (0.37, -0.21, 0.13)
    for entry in LAWS:
        est = conservation_divergence(sol, entry.index, point)
        assert abs(est.residual) <= 1e-6 * max(1.0, est.scale), entry.name


def test_divergence_recovers_field_equations(generic_params):
    p = generic_params
    # laws 1 and 14 measure the transverse and compatibility residuals
    field = polynomial_field({(4, 0, 0): 1.0 / 24.0}, None, p)
    res = conservation_residual(field, 1, (0.3, 0.2, 0.0))
    assert res == pytest.approx(p.D, rel=1e-7)

    field = polynomial_field(None, {(4, 0, 0): 1.0}, p)
    res = conservation_residual(field, "compatibility", (0.5, -0.3, 0.2))
    assert res == pytest.approx(24.0 / p.Eh, rel=1e-7)


def test_front_proximity_guard(generic_params):
    ahead = invariant_solution((0.2, 0.0, 0.5, 0.1), (0, 0.3, 0.2, 0), 1.0, generic_params)
    wave = acceleration_wave(ahead, c1=0.5, c2=0.2)
    with pytest.raises(FrontProximityError):
        conservation_divergence(wave, "energy", (1e-4, 0.0, 0.0), h=1e-3)
    # far away the estimate goes through
    est = conservation_divergence(wave, "energy", (2.0, 0.0, 0.0), h=1e-3)
    assert abs(est.residual) <= 1e-6 * max(1.0, est.scale)


def test_front_proximity_error_prints_plain_numbers(generic_params):
    # the message reaches report error rows, which used to quote
    # (np.float64(0.0001), np.float64(0.0), np.float64(0.0))
    ahead = invariant_solution((0.2, 0.0, 0.5, 0.1), (0, 0.3, 0.2, 0), 1.0, generic_params)
    wave = acceleration_wave(ahead, c1=0.5, c2=0.2)
    with pytest.raises(FrontProximityError) as info:
        conservation_divergence(wave, "energy", (1e-4, 0.0, 0.0), h=1e-3)
    message = str(info.value)
    assert "np.float64" not in message
    assert message.startswith("point (0.0001, 0.0, 0.0) is ")


def _acceleration_wave(params):
    ahead = invariant_solution((0.2, 0.0, 0.5, 0.1), (0, 0.3, 0.2, 0), 1.0, params)
    return acceleration_wave(ahead, c1=0.5, c2=0.2)


def _bits_per_point(field, laws, points, use_richardson) -> bytes:
    """conservation_divergence of each law at each point, one at a time,
    as the bytes of a (law, point, component) array."""
    def one(key, point):
        return astuple(conservation_divergence(field, key, point, 1e-3, use_richardson))

    return np.array([[one(key, point) for point in points] for key in laws]).tobytes()


def _reference_bits(field, laws, points, use_richardson) -> bytes:
    """The divergence one stencil at a time, central differences and the
    Richardson step in scalar arithmetic, as _bits_per_point's bytes."""
    h = 1e-3
    steps = (h, h / 2.0) if use_richardson else (h,)
    out = []
    for key in laws:
        for point in points:
            per_step = []
            for step in steps:
                est = []
                for ax, name in enumerate(("x1", "x2", "density")):
                    minus, plus = np.array(point), np.array(point)
                    minus[ax] -= step
                    plus[ax] += step
                    df = [density_flux(key, field.jet(x), field.params) for x in (minus, plus)]
                    f = [d.density if name == "density" else getattr(d.flux, name) for d in df]
                    est.append((f[1] - f[0]) / (2.0 * step))
                per_step.append(est)
            d1, d2, d3 = (
                [(4.0 * f - c) / 3.0 for c, f in zip(*per_step)] if use_richardson else per_step[0]
            )
            out.append((d3, d1, d2))
    return np.array(out).tobytes()


@pytest.mark.parametrize("use_richardson", [True, False])
def test_shared_stencils_match_per_law_divergence(use_richardson, generic_params, count_jet_calls):
    wave = _acceleration_wave(generic_params)
    laws = [entry.index for entry in LAWS]
    points = np.array([(0.6, -0.3, 0.2), (-0.5, 0.4, 0.1)])
    sizes = count_jet_calls(wave)
    single = _bits_per_point(wave, laws, points, use_richardson)
    # one jet call holds the stencils of every step of one law at one point
    assert sizes == [12 if use_richardson else 6] * (len(laws) * len(points))
    assert single == _reference_bits(wave, laws, points, use_richardson)


def test_step_validation(generic_params):
    sol = polynomial_field(None, None, generic_params)
    with pytest.raises(ValidationError):
        conservation_divergence(sol, 1, (0, 0, 0), h=-1.0)
    with pytest.raises(ValidationError):
        conservation_divergence(sol, 1, (0, 0), h=1e-3)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), True])
def test_step_must_be_a_positive_finite_number(h, generic_params):
    # nan used to fail on a non-finite jet, inf as a point "inf from the
    # front" of a field without one, and True ran with h = 1
    sol = polynomial_field(None, None, generic_params)
    with pytest.raises(ValidationError, match="^step h must be a positive finite number"):
        conservation_divergence(sol, 1, (0.3, 0.2, 0.1), h=h)


def _characteristics(jet) -> dict:
    """(Q1, Q2) of every law at a jet batch: div(Psi_k, P_k) = Q_k1 r1 +
    Q_k2 r2 on any jet, r1 and r2 the residuals of the two governing
    equations (conservation laws in characteristic form: P. J. Olver,
    Applications of Lie Groups to Differential Equations, 1986, chapters 4
    and 5)."""
    x1, x2, x3 = (jet.point[:, i] for i in range(3))
    w1, w2, w3 = (jet.w[:, s] for s in (S1, S2, S3))
    f1, f2, f3 = (jet.phi[:, s] for s in (S1, S2, S3))
    one, zero = np.ones_like(x1), np.zeros_like(x1)
    return {
        1: (one, zero),
        2: (-w1, f1),
        3: (-w2, f2),
        4: (w3, -f3),
        5: (-(x1 * w1 + x2 * w2 + 2.0 * x3 * w3), x1 * f1 + x2 * f2 + 2.0 * x3 * f3),
        6: (x1 * w2 - x2 * w1, x2 * f1 - x1 * f2),
        7: (x1, zero),
        8: (x2, zero),
        9: (x3, zero),
        10: (x1 * x3, zero),
        11: (x2 * x3, zero),
        12: (zero, x1),
        13: (zero, x2),
        14: (zero, one),
    }


def _x2_dependent_polynomials(p):
    """Two polynomial fields of x1, x2 and x3, neither a solution."""
    first = polynomial_field(
        {(2, 1, 1): 0.3, (0, 3, 1): -0.2, (1, 2, 2): 0.7, (4, 1, 0): 0.1, (1, 1, 3): -0.4},
        {(1, 1, 0): -0.2, (0, 4, 1): 0.3, (2, 2, 1): 0.5, (3, 1, 1): -0.6},
        p,
    )
    second = polynomial_field(
        {(3, 2, 0): -0.5, (1, 1, 2): 0.4, (0, 2, 3): 0.2, (2, 0, 1): 0.9},
        {(2, 3, 0): 0.3, (1, 0, 4): -0.1, (4, 0, 1): 0.25},
        p,
    )
    return first, second


@pytest.mark.parametrize("jets", ["random", "polynomial"])
def test_exact_divergence_is_the_characteristic_form(jets, generic_params):
    # a row that stops being complex-analytic (an abs, a maximum or a
    # comparison inside it) breaks this identity
    p = generic_params
    rng = np.random.default_rng(11)
    points = rng.uniform(-1.0, 1.0, (50, 3))
    if jets == "random":
        jet = FieldJet(points, rng.uniform(-1.0, 1.0, (50, 35)), rng.uniform(-1.0, 1.0, (50, 35)))
    else:
        jet = _x2_dependent_polynomials(p)[0].jet(points)
    r1, r2, _, _ = _pde_terms(jet, p)
    characteristics = _characteristics(jet)
    for entry in LAWS:
        est = _exact_divergence(entry, jet, p)
        q1, q2 = characteristics[entry.index]
        scale = np.maximum(1.0, est.scale + np.abs(q1 * r1) + np.abs(q2 * r2))
        worst = np.max(np.abs(est.residual - (q1 * r1 + q2 * r2)) / scale)
        assert worst <= 1e-13, (entry.name, worst)


def test_exact_divergence_matches_finite_differences(generic_params):
    # two x2-dependent polynomial branches across a moving oblique line,
    # at points off the front on both sides
    first, second = _x2_dependent_polynomials(generic_params)
    field = PiecewiseField(first, second, LineFront(1.0, 0.6, -0.4, 0.1), generic_params)
    points = np.random.default_rng(12).uniform(-1.0, 1.0, (200, 3))
    points = points[_front_distance(field.front, points) > 0.05][:40]
    assert len(points) == 40
    assert 0 < np.count_nonzero(field.front.value(points) > 0.0) < 40
    jet = field.jet(points)
    for entry in LAWS:
        exact = _exact_divergence(entry, jet, generic_params)
        for k, point in enumerate(points):
            fd = conservation_divergence(field, entry, point, h=1e-3)
            for term in ("d_density_dt", "d_flux1_dx1", "d_flux2_dx2"):
                error = abs(getattr(exact, term)[k] - getattr(fd, term))
                assert error <= 1e-8 * max(1.0, fd.scale), (entry.name, term, k)


def test_a_row_reading_an_order_four_slot_fails(generic_params, monkeypatch):
    # a 4-jet has no derivative of an order-4 slot: a density or a flux
    # that read one would give a NaN divergence, which fails its check,
    # not a wrong pass
    import vkwave.conservation as conservation

    sol = invariant_solution((0.2, -0.3, 0.5, 0.1), (0.1, 0.3, 0.2, -0.4), 1.1, generic_params)
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, (4, 3))
    for table, half in (
        (conservation._DENSITIES, lambda jet, p: jet.w[..., S1111]),
        (conservation._FLUXES, lambda jet, p: Vector2(jet.w[..., S1111], jet.w[..., S2])),
    ):
        with monkeypatch.context() as patch:
            patch.setitem(table, 14, half)
            # a fresh jet, as a jet keeps the halves built from it
            residual = _exact_divergence(14, sol.jet(pts), generic_params).residual
        assert np.all(np.isnan(residual)), table is conservation._FLUXES


def test_conservation_check_fills_one_jet_per_point(count_jet_calls):
    # the pointwise benchmark's conservation check: 20 points, 14 laws
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "pointwise.yaml"
    scenario = load_scenario(path)
    scenario = dataclasses.replace(
        scenario, checks=tuple(c for c in scenario.checks if c.kind == "conservation")
    )
    sizes = count_jet_calls(build_field(scenario))
    rows = run_scenario(scenario).results
    assert sizes == [20]
    assert len(rows) == 14
    for row in rows:
        assert (row.status, row.tolerance) == ("pass", 1e-9), row.name
        assert row.residual <= 1e-15, row.name


def _bits(df) -> bytes:
    return b"".join(
        np.asarray(v, dtype=np.float64).tobytes() for v in (df.density, df.flux.x1, df.flux.x2)
    )


@pytest.mark.parametrize("order", ["forward", "composites_first"])
def test_rows_built_once_per_jet_equal_fresh_jets(order, generic_params):
    ahead = invariant_solution((0.2, -0.3, 0.5, 0.1), (0.1, 0.3, 0.2, -0.4), 1.1, generic_params)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 3))
    keys = [entry.index for entry in LAWS]
    if order == "composites_first":
        keys = [5, 6, 10, 11] + [k for k in keys if k not in (5, 6, 10, 11)]
    shared = ahead.jet(pts)
    for key in keys:
        fresh = density_flux(key, ahead.jet(pts), generic_params)
        assert _bits(density_flux(key, shared, generic_params)) == _bits(fresh), key


_TENSOR_NAMES = (
    "shear_force", "moment_tensor", "f_vector", "g_tensor",
    "lagrangian_density", "kinetic_energy_density", "strain_energy_density",
)


def _counted_tensors(monkeypatch) -> list:
    """Record the name of each tensor the laws build; returns the list."""
    import vkwave.conservation as conservation

    calls = []
    for name in _TENSOR_NAMES:
        original = getattr(conservation, name)

        def counted(jet, p, _original=original):
            calls.append(_original.__name__)
            return _original(jet, p)

        counted.__name__ = name
        monkeypatch.setattr(conservation, name, counted)
    return calls


def test_fourteen_laws_build_each_tensor_once(generic_params, monkeypatch):
    calls = _counted_tensors(monkeypatch)
    sol = invariant_solution((0.2, -0.3, 0.5, 0.1), (0.1, 0.3, 0.2, -0.4), 1.1, generic_params)
    jet = sol.jet(np.random.default_rng(4).uniform(-1.0, 1.0, (5, 3)))
    for entry in LAWS:
        df = density_flux(entry, jet, generic_params)
        df.density, df.flux
    assert sorted(calls) == sorted(_TENSOR_NAMES)


def test_fourteen_densities_build_no_flux_tensor(generic_params, monkeypatch):
    # a balance's density pass reads only densities: they share the two
    # energies and build none of the tensors that only fluxes read
    calls = _counted_tensors(monkeypatch)
    sol = invariant_solution((0.2, -0.3, 0.5, 0.1), (0.1, 0.3, 0.2, -0.4), 1.1, generic_params)
    jet = sol.jet(np.random.default_rng(4).uniform(-1.0, 1.0, (5, 3)))
    for entry in LAWS:
        density_flux(entry, jet, generic_params).density
    assert sorted(calls) == ["kinetic_energy_density", "strain_energy_density"]


def test_density_flux_checks_its_law_at_the_call_and_its_slots_when_read(generic_params):
    # the law is resolved at the call; a half that reads a slot the jet
    # does not hold raises when it is read, naming the slot
    sol = invariant_solution((0.2, -0.3, 0.5, 0.1), (0.1, 0.3, 0.2, -0.4), 1.1, generic_params)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (5, 3))
    jet = sol.jet(pts, slots=_DENSITY_SLOTS)
    for key in (0, 15, "momentum"):
        with pytest.raises(ValidationError):
            density_flux(key, jet, generic_params)
    df = density_flux(1, jet, generic_params)
    assert np.array_equal(df.density, density_flux(1, sol.jet(pts), generic_params).density)
    with pytest.raises(UnfilledSlotError, match=re.escape(f"jet slot {S111} {MULTI_INDICES[S111]} was not filled")):
        df.flux
    df = density_flux(1, sol.jet(pts, slots=tuple(q for q in _DENSITY_SLOTS if q != S3)), generic_params)
    with pytest.raises(UnfilledSlotError, match=re.escape(f"jet slot {S3} {MULTI_INDICES[S3]} was not filled")):
        df.density


def test_jet_is_not_served_tensors_of_other_constants(unit_params, generic_params):
    sol = invariant_solution((0.2, -0.3, 0.5, 0.1), (0.1, 0.3, 0.2, -0.4), 1.1, generic_params)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (4, 3))
    jet = sol.jet(pts)
    for key in (1, 4, 5, 11):
        unit = density_flux(key, jet, unit_params)
        generic = density_flux(key, jet, generic_params)
        assert _bits(unit) == _bits(density_flux(key, sol.jet(pts), unit_params))
        assert _bits(generic) == _bits(density_flux(key, sol.jet(pts), generic_params))
        assert _bits(unit) != _bits(generic)

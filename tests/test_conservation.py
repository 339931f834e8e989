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
    density_flux,
    law,
)
from vkwave.errors import SideRequiredError, UnfilledSlotError, ValidationError
from vkwave.indexing import MULTI_INDICES, S1, S2, S3, S111, S1111, idx
from vkwave.jets import FieldJet
from vkwave.report import run_scenario
from vkwave.scenario import build_field, load_scenario
from vkwave.solutions import (
    PiecewiseField,
    acceleration_wave,
    invariant_solution,
    pde_residual,
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

from finite_differences import fd_divergence


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
    # each row's flux as (P^1, P^2)
    flux = {k: (df.flux.x1, df.flux.x2) for k, df in rows.items()}

    q = shear_force(jet, p)
    assert rows[1].density == pytest.approx(p.rho * jet.w[..., idx(3)], rel=1e-14)
    assert flux[1][0] == pytest.approx(-q.x1, rel=1e-14)
    assert flux[1][1] == pytest.approx(-q.x2, rel=1e-14)

    t = kinetic_energy_density(jet, p)
    pi = strain_energy_density(jet, p)
    assert rows[4].density == pytest.approx(t + pi, rel=1e-13)

    # scaling row reassembles the translation rows plus tensor transport;
    # m[a] and g[a] are the rows (T^{a1}, T^{a2}) of the symmetric tensors
    mt, gt = moment_tensor(jet, p), g_tensor(jet, p)
    m = ((mt.c11, mt.c12), (mt.c12, mt.c22))
    g = ((gt.c11, gt.c12), (gt.c12, gt.c22))
    w1, w2 = jet.w[..., idx(1)], jet.w[..., idx(2)]
    f1, f2 = jet.phi[..., idx(1)], jet.phi[..., idx(2)]
    assert rows[5].density == pytest.approx(
        x1 * rows[2].density + x2 * rows[3].density - 2 * x3 * rows[4].density, rel=1e-12
    )
    for a in (0, 1):
        carried = w1 * m[a][0] + w2 * m[a][1] + f1 * g[a][0] + f2 * g[a][1]
        assert flux[5][a] == pytest.approx(
            x1 * flux[2][a] + x2 * flux[3][a] - 2 * x3 * flux[4][a] - carried,
            rel=1e-12,
        )

    # rotation row: moment of the translation rows plus intrinsic spin
    assert rows[6].density == pytest.approx(
        x2 * rows[2].density - x1 * rows[3].density, rel=1e-12
    )
    for a in (0, 1):
        spin = w2 * m[a][0] - w1 * m[a][1] + f2 * g[a][0] - f1 * g[a][1]
        assert flux[6][a] == pytest.approx(
            x2 * flux[2][a] - x1 * flux[3][a] + spin, rel=1e-12
        )

    # center of mass and the Galilean moments
    assert rows[9].density == pytest.approx(
        p.rho * (x3 * jet.w[..., idx(3)] - jet.w[..., idx()]), rel=1e-13
    )
    for a, q_a in enumerate((q.x1, q.x2)):
        assert flux[9][a] == pytest.approx(-x3 * q_a, rel=1e-13)
        assert flux[10][a] == pytest.approx(x3 * flux[7][a], rel=1e-13)
        assert flux[11][a] == pytest.approx(x3 * flux[8][a], rel=1e-13)
    assert rows[10].density == pytest.approx(x1 * rows[9].density, rel=1e-13)
    assert rows[11].density == pytest.approx(x2 * rows[9].density, rel=1e-13)

    fv = f_vector(jet, p)
    assert rows[14].density == 0.0
    assert flux[14][0] == pytest.approx(fv.x1, rel=1e-14)
    assert flux[14][1] == pytest.approx(fv.x2, rel=1e-14)


def test_density_flux_batch(generic_params):
    field = polynomial_field({(2, 1, 1): 0.3}, {(1, 1, 0): -0.2}, generic_params)
    pts = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6], [0.0, 0.0, 0.0]])
    batch = density_flux("energy", field.jet(pts), generic_params)
    assert np.shape(batch.density) == (3,)
    for i, point in enumerate(pts):
        single = density_flux("energy", field.jet(point), generic_params)
        assert batch.density[i] == pytest.approx(single.density, rel=1e-14)
        assert batch.flux.x1[i] == pytest.approx(single.flux.x1, rel=1e-14)


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
    res = conservation_divergence(field, 1, (0.3, 0.2, 0.0)).residual
    assert res == pytest.approx(p.D, rel=1e-7)

    field = polynomial_field(None, {(4, 0, 0): 1.0}, p)
    res = conservation_divergence(field, "compatibility", (0.5, -0.3, 0.2)).residual
    assert res == pytest.approx(24.0 / p.Eh, rel=1e-7)


def _acceleration_wave(params):
    ahead = invariant_solution((0.2, 0.0, 0.5, 0.1), (0, 0.3, 0.2, 0), 1.0, params)
    return acceleration_wave(ahead, c1=0.5, c2=0.2)


def test_divergence_is_the_exact_divergence_of_a_one_point_batch(generic_params):
    wave = _acceleration_wave(generic_params)
    for point in ((0.6, -0.3, 0.2), (-0.5, 0.4, 0.1)):
        jet = wave.jet(np.array([point]))
        for entry in LAWS:
            want = tuple(term[0] for term in astuple(_exact_divergence(entry, jet, generic_params)))
            got = astuple(conservation_divergence(wave, entry, point))
            assert all(type(term) is float for term in got)
            assert np.array(got).tobytes() == np.array(want).tobytes(), entry.name


@pytest.mark.parametrize("offset", [1e-4, -1e-4, 0.3, -0.3])
def test_divergence_is_taken_on_either_side_up_to_the_front(offset, generic_params):
    # the front of the wave is x1 = t: 1e-4 from it, where a finite
    # difference stencil would straddle it, each side is its own branch
    wave = _acceleration_wave(generic_params)
    point = (0.2 + offset, -0.3, 0.2)
    branch = wave.ahead if offset > 0 else wave.behind
    for entry in LAWS:
        est = conservation_divergence(wave, entry, point)
        assert astuple(est) == astuple(conservation_divergence(branch, entry, point)), entry.name
        assert abs(est.residual) <= 1e-12 * max(1.0, est.scale), entry.name


def test_divergence_on_the_front_needs_a_side(generic_params):
    wave = _acceleration_wave(generic_params)
    with pytest.raises(SideRequiredError, match="exactly on the front"):
        conservation_divergence(wave, "energy", (0.2, -0.3, 0.2))
    with pytest.raises(SideRequiredError):
        conservation_divergence(wave, 1, (0.0, 0.5, 0.0))


def test_divergence_point_must_be_a_3_vector(generic_params):
    sol = polynomial_field(None, None, generic_params)
    with pytest.raises(ValidationError, match=r"^point must be a 3-vector, got shape \(2,\)$"):
        conservation_divergence(sol, 1, (0, 0))


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
    r1, r2 = pde_residual(jet, p)
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
            fd = fd_divergence(field, entry, point, h=1e-3)
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
    jet = sol.jet(pts, slots=(_DENSITY_SLOTS, _DENSITY_SLOTS))
    for key in (0, 15, "momentum"):
        with pytest.raises(ValidationError):
            density_flux(key, jet, generic_params)
    df = density_flux(1, jet, generic_params)
    assert np.array_equal(df.density, density_flux(1, sol.jet(pts), generic_params).density)
    with pytest.raises(UnfilledSlotError, match=re.escape(f"jet slot {S111} {MULTI_INDICES[S111]} was not filled")):
        df.flux
    rest = tuple(q for q in _DENSITY_SLOTS if q != S3)
    df = density_flux(1, sol.jet(pts, slots=(rest, rest)), generic_params)
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

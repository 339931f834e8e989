import numpy as np
import pytest

from vkwave.conservation import (
    LAWS,
    _divergence_estimates,
    conservation_divergence,
    conservation_residual,
    density_flux,
    law,
)
from vkwave.errors import FrontProximityError, ValidationError
from vkwave.jets import FieldJet
from vkwave.solutions import acceleration_wave, invariant_solution, polynomial_field
from vkwave.tensors import (
    f_vector,
    g_tensor,
    kinetic_energy_density,
    moment_tensor,
    shear_force,
    strain_energy_density,
)


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


@pytest.mark.parametrize("use_richardson", [True, False])
def test_shared_stencils_match_per_law_divergence(use_richardson, generic_params, count_jet_calls):
    ahead = invariant_solution((0.2, 0.0, 0.5, 0.1), (0, 0.3, 0.2, 0), 1.0, generic_params)
    wave = acceleration_wave(ahead, c1=0.5, c2=0.2)
    laws = [entry.index for entry in LAWS]
    sizes = count_jet_calls(wave)
    for point in ((0.6, -0.3, 0.2), (-0.5, 0.4, 0.1)):
        single = [
            conservation_divergence(wave, key, point, h=1e-3, use_richardson=use_richardson)
            for key in laws
        ]
        sizes.clear()
        shared = _divergence_estimates(wave, laws, point, h=1e-3, use_richardson=use_richardson)
        assert shared == single
        assert len(sizes) == 1  # one stencil batch serves all fourteen laws


def test_step_validation(generic_params):
    sol = polynomial_field(None, None, generic_params)
    with pytest.raises(ValidationError):
        conservation_divergence(sol, 1, (0, 0, 0), h=-1.0)
    with pytest.raises(ValidationError):
        conservation_divergence(sol, 1, (0, 0), h=1e-3)


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


def test_fourteen_laws_build_each_tensor_once(generic_params, monkeypatch):
    import vkwave.conservation as conservation

    names = (
        "shear_force", "moment_tensor", "f_vector", "g_tensor",
        "lagrangian_density", "kinetic_energy_density", "strain_energy_density",
    )
    calls = []
    for name in names:
        original = getattr(conservation, name)

        def counted(jet, p, _original=original):
            calls.append(_original.__name__)
            return _original(jet, p)

        counted.__name__ = name
        monkeypatch.setattr(conservation, name, counted)
    sol = invariant_solution((0.2, -0.3, 0.5, 0.1), (0.1, 0.3, 0.2, -0.4), 1.1, generic_params)
    jet = sol.jet(np.random.default_rng(4).uniform(-1.0, 1.0, (5, 3)))
    for entry in LAWS:
        density_flux(entry, jet, generic_params)
    assert sorted(calls) == sorted(names)


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

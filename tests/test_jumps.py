import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkwave.conservation import LAWS
from vkwave.errors import NonAdmissibleRecordError, NotOnFrontError, ValidationError
from vkwave.jumps import (
    _balance_jump_terms,
    _front_jets,
    amplitude_relation_residuals,
    amplitude_relation_scales,
    balance_jump_residual,
    balance_jump_scale,
    check_acceleration_wave,
    closed_form_jump_residual,
    dynamic_jump_residuals,
    dynamic_jump_scales,
    extract_jumps,
)
from vkwave.solutions import (
    PiecewiseField,
    acceleration_wave,
    invariant_solution,
    polynomial_field,
)
from vkwave.wavefront import LineFront


@pytest.fixture()
def wave(generic_params):
    ahead = invariant_solution(
        (0.4, -0.2, 0.9, 0.5), (0.3, 0.8, -0.6, 0.2), 0.9, generic_params
    )
    return acceleration_wave(ahead, c1=0.7, c2=-0.4)


@pytest.fixture()
def record(wave):
    t = 0.6
    return extract_jumps(wave, (wave.wave_speed * t, 1.2, t))


def test_extract_jumps_requires_front_point(wave):
    with pytest.raises(NotOnFrontError):
        extract_jumps(wave, (1.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        extract_jumps(wave, (0.0, 0.0))


def _off_front_message(front, point) -> str:
    p = np.asarray(point, dtype=np.float64)
    grad = front.spatial_gradient(p)
    slope = float(np.hypot(grad[0], grad[1])) + abs(float(front.time_derivative(p)))
    scale = max(slope, 1e-300) * (1.0 + float(np.abs(p).max()))
    return (
        f"gamma(point) = {float(front.value(p)):.3e} exceeds the on-front tolerance "
        f"{1e-9 * scale:.3e}"
    )


def test_off_front_error_names_the_first_off_front_point(wave):
    off = (1.0, 0.0, 0.0)
    with pytest.raises(NotOnFrontError) as err:
        extract_jumps(wave, off)
    assert str(err.value) == _off_front_message(wave.front, off)

    # in a batch, the first point off the front is the one reported
    c = wave.wave_speed
    pts = np.array([[0.0, 0.3, 0.0], [c * 0.5, -0.2, 0.5], [0.7, 0.1, 0.2], [2.0, 0.0, 0.0]])
    with pytest.raises(NotOnFrontError) as err:
        list(_front_jets(wave, pts))
    assert str(err.value) == _off_front_message(wave.front, pts[2])


def test_batched_jumps_equal_records(wave, generic_params):
    # the batch formulas give each point the value its own record gives
    c = wave.wave_speed
    t = np.array([-0.4, 0.0, 0.3, 0.6])
    pts = np.stack([c * t, np.array([0.5, -1.1, 0.2, 0.9]), t], axis=1)
    (fj,) = _front_jets(wave, pts)
    records = [extract_jumps(wave, pt) for pt in pts]
    assert fj.lambda_.tolist() == [rec.lambda_ for rec in records]
    assert fj.mu.tolist() == [rec.mu for rec in records]
    for entry in LAWS:
        residual, scale = _balance_jump_terms(entry.index, fj, generic_params)
        p = generic_params
        assert residual.tolist() == [balance_jump_residual(entry, rec, p) for rec in records]
        assert scale.tolist() == [balance_jump_scale(entry, rec, p) for rec in records]


def test_extract_jumps_requires_a_front(generic_params):
    smooth = polynomial_field({(1, 0, 0): 1.0}, None, generic_params)
    with pytest.raises(ValidationError):
        extract_jumps(smooth, (0.0, 0.0, 0.0))


def test_amplitude_extraction(wave, record):
    omega = wave.omega
    assert record.lambda_ == pytest.approx(0.7 * omega**2, rel=1e-12)
    assert record.mu == pytest.approx(-0.8, rel=1e-12)
    # jump sign convention: behind minus ahead
    assert record.jump.dw(3, 3) == pytest.approx(
        record.behind.dw(3, 3) - record.ahead.dw(3, 3), rel=1e-14
    )


def test_acceleration_wave_verdict(record):
    verdict = check_acceleration_wave(record)
    assert verdict.passed
    assert verdict.reasons == ()


def test_verdict_flags_missing_w33_jump(generic_params):
    branch = invariant_solution((0.1, 0.2, 0.3, 0.4), (0.0, 0.1, 0.2, 0.3), 1.0, generic_params)
    field = PiecewiseField(branch, branch, LineFront(1.0, 0.0, -1.0, 0.0), generic_params)
    verdict = check_acceleration_wave(extract_jumps(field, (0.0, 0.5, 0.0)))
    assert not verdict.passed
    assert verdict.reasons == ("[w,33] = 0 (second time derivative does not jump)",)


def test_verdict_flags_value_jump(generic_params):
    ahead = invariant_solution((0.1, 0.2, 0.3, 0.4), (0, 0, 0, 0), 1.0, generic_params)
    behind = invariant_solution((0.6, 0.2, 0.3, 0.4), (0, 0, 0, 0), 1.0, generic_params)
    field = PiecewiseField(ahead, behind, LineFront(1.0, 0.0, -1.0, 0.0), generic_params)
    verdict = check_acceleration_wave(extract_jumps(field, (0.0, 0.5, 0.0)))
    assert not verdict.passed
    assert any(reason.startswith("[w] != 0") for reason in verdict.reasons)


def test_dynamic_jumps_vanish_on_wave(record, generic_params):
    r_w, r_phi = dynamic_jump_residuals(record, generic_params)
    s_w, s_phi = dynamic_jump_scales(record, generic_params)
    assert abs(r_w) <= 1e-11 * max(1.0, s_w)
    assert abs(r_phi) <= 1e-11 * max(1.0, s_phi)


def test_dynamic_jump_hand_value(generic_params):
    # behind carries w = x3, ahead is at rest; the front moves at speed 2
    ahead = polynomial_field(None, None, generic_params)
    behind = polynomial_field({(0, 0, 1): 1.0}, None, generic_params)
    field = PiecewiseField(ahead, behind, LineFront(1.0, 0.0, -2.0, 0.0), generic_params)
    rec = extract_jumps(field, (0.0, 0.3, 0.0))
    assert rec.geometry.speed == pytest.approx(2.0)
    r_w, r_phi = dynamic_jump_residuals(rec, generic_params)
    assert r_w == pytest.approx(2.0 * generic_params.rho, rel=1e-14)
    assert r_phi == 0.0


def test_closed_form_matches_generic_balance(record, generic_params):
    for index in (2, 3, 4, 5, 6):
        generic = balance_jump_residual(index, record, generic_params)
        closed = closed_form_jump_residual(index, record, generic_params)
        scale = balance_jump_scale(index, record, generic_params)
        assert abs(closed + generic) <= 1e-11 * max(1.0, scale), index


@settings(max_examples=20, deadline=None)
@given(
    c=st.floats(0.5, 2.0),
    u3=st.floats(-1.5, 1.5),
    phi2=st.floats(-1.5, 1.5),
    c1=st.floats(0.2, 1.5),
    c2=st.floats(-1.0, 1.0),
    s=st.floats(-2.0, 2.0),
    t=st.floats(-1.0, 1.0),
)
def test_closed_form_is_minus_generic_everywhere(
    c, u3, phi2, c1, c2, s, t, generic_params
):
    ahead = invariant_solution((0.3, -0.4, 0.6, u3), (0.1, 0.7, phi2, -0.2), c, generic_params)
    wave = acceleration_wave(ahead, c1=c1, c2=c2)
    rec = extract_jumps(wave, (c * t, s, t))
    for index in (2, 3, 4, 5, 6):
        generic = balance_jump_residual(index, rec, generic_params)
        closed = closed_form_jump_residual(index, rec, generic_params)
        scale = balance_jump_scale(index, rec, generic_params)
        assert abs(closed + generic) <= 1e-10 * max(1.0, scale)


def test_closed_forms_reduce_to_amplitude_relations(wave, record, generic_params):
    eh = generic_params.Eh
    c = wave.wave_speed
    x1, x2, _ = record.point
    r1, r2 = amplitude_relation_residuals(wave)

    reductions = {
        2: r1 / (2 * eh),
        3: 0.0,
        4: c * r1 / (2 * eh),
        5: -x1 * r1 / (2 * eh) + r2 / eh,
        6: x2 * r1 / (2 * eh),
    }
    for index, expected in reductions.items():
        closed = closed_form_jump_residual(index, record, generic_params)
        assert closed == pytest.approx(expected, rel=1e-10, abs=1e-12), index


def test_impossibility_rows_have_forced_residuals(record, generic_params):
    p = generic_params
    d, eh = p.D, p.Eh
    lam, mu = record.lambda_, record.mu
    n = record.geometry.normal
    x3 = record.point[2]
    forced = {
        7: d * lam * n[0],
        8: d * lam * n[1],
        9: 0.0,
        10: x3 * d * lam * n[0],
        11: x3 * d * lam * n[1],
        12: mu * n[0] / eh,
        13: mu * n[1] / eh,
    }
    for index, expected in forced.items():
        generic = balance_jump_residual(index, record, p)
        assert generic == pytest.approx(expected, rel=1e-10, abs=1e-12), index

    # the fundamental rows always balance across an acceleration wave
    for index in (1, 14):
        assert balance_jump_residual(index, record, p) == pytest.approx(0.0, abs=1e-10)


def test_closed_form_rejects_other_laws(record, generic_params):
    with pytest.raises(ValidationError):
        closed_form_jump_residual(1, record, generic_params)
    with pytest.raises(ValidationError):
        closed_form_jump_residual("compatibility", record, generic_params)


def test_closed_form_rejects_non_admissible_record(generic_params):
    branch = invariant_solution((0.1, 0.2, 0.3, 0.4), (0, 0, 0, 0), 1.0, generic_params)
    field = PiecewiseField(branch, branch, LineFront(1.0, 0.0, -1.0, 0.0), generic_params)
    rec = extract_jumps(field, (0.0, 0.5, 0.0))
    with pytest.raises(NonAdmissibleRecordError):
        closed_form_jump_residual("energy", rec, generic_params)


def test_amplitude_relations_fixture_values(unit_params):
    # D = Eh = 1, c = 1 gives omega = 1; quiet background except the wave
    ahead = invariant_solution((0, 0, 0, 0), (0, 0, 0, 0), 1.0, unit_params)
    sick = acceleration_wave(ahead, c1=1.0, c2=0.4)
    r1, r2 = amplitude_relation_residuals(sick)
    assert r1 == pytest.approx(1.0 - 4 * 0.16, rel=1e-12)
    assert r2 == 0.0

    healthy = acceleration_wave(ahead, c1=1.0, c2=0.5)
    r1, r2 = amplitude_relation_residuals(healthy)
    assert r1 == pytest.approx(0.0, abs=1e-12)
    assert r2 == 0.0

    s1, s2 = amplitude_relation_scales(healthy)
    assert s1 > 0.0
    assert s2 >= 0.0


def test_amplitude_relations_oj_cancellation(generic_params):
    # u1 = -omega u2 kills the first term of the second relation exactly
    omega = invariant_solution((0, 1, 0, 0), (0, 0, 0, 0), 1.3, generic_params).omega
    ahead = invariant_solution((0.2, -omega * 0.7, 0.7, 0.1), (0, 0, 0.3, 0), 1.3, generic_params)
    wave = acceleration_wave(ahead, c1=0.9, c2=0.0)
    _, r2 = amplitude_relation_residuals(wave)
    assert r2 == 0.0


def test_amplitude_relations_reject_non_wave(generic_params):
    field = polynomial_field(None, None, generic_params)
    with pytest.raises(ValidationError):
        amplitude_relation_residuals(field)


def test_balance_jump_scale_positive(record, generic_params):
    for entry in LAWS:
        assert balance_jump_scale(entry.index, record, generic_params) >= 0.0

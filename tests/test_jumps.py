import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkwave.conservation import LAWS
from vkwave.errors import NonAdmissibleRecordError, NotOnFrontError, ValidationError
from vkwave.indexing import idx
from vkwave.jumps import (
    _CLOSED_FORM_LAWS,
    _balance_jump_terms,
    _closed_form_residuals,
    _dynamic_terms,
    _front_jets,
    _wave_conditions,
    _wave_reasons,
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
from vkwave.scenario import sample_front_point
from vkwave.wavefront import CircleFront, LineFront, second_jumps, third_jumps


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


def _assert_records_equal_batch(field, pts, p):
    """Each public jump function on a point's own record gives, bit for
    bit, what the batch record of all the points gives at that point."""
    (fj,) = _front_jets(field, pts)
    records = [extract_jumps(field, pt) for pt in pts]
    assert fj.lambda_.tolist() == [rec.lambda_ for rec in records]
    assert fj.mu.tolist() == [rec.mu for rec in records]
    for name in ("speed", "normal", "tangent", "arc_rate"):
        want = np.array([getattr(rec.geometry, name) for rec in records])
        assert getattr(fj.geometry, name).tobytes() == want.tobytes(), name

    r_w, r_phi, s_w, s_phi = _dynamic_terms(fj, p)
    assert list(zip(r_w.tolist(), r_phi.tolist())) == [
        dynamic_jump_residuals(rec, p) for rec in records
    ]
    assert list(zip(s_w.tolist(), s_phi.tolist())) == [
        dynamic_jump_scales(rec, p) for rec in records
    ]
    for entry in LAWS:
        residual, scale = _balance_jump_terms(entry.index, fj, p)
        assert residual.tolist() == [balance_jump_residual(entry, rec, p) for rec in records]
        assert scale.tolist() == [balance_jump_scale(entry, rec, p) for rec in records]

    conditions = _wave_conditions(fj)
    verdicts = [check_acceleration_wave(rec) for rec in records]
    reasons = [_wave_reasons(conditions, (k,)) for k in range(len(pts))]
    assert [v.reasons for v in verdicts] == reasons
    for index in _CLOSED_FORM_LAWS:
        if all(v.passed for v in verdicts):
            got = [closed_form_jump_residual(index, rec, p) for rec in records]
            assert _closed_form_residuals(index, fj, p).tolist() == got, index
            continue
        # the batch raises the error of its first point that is no wave
        first = next(rec for rec, v in zip(records, verdicts) if not v.passed)
        with pytest.raises(NonAdmissibleRecordError) as want:
            closed_form_jump_residual(index, first, p)
        with pytest.raises(NonAdmissibleRecordError) as got:
            _closed_form_residuals(index, fj, p)
        assert str(got.value) == str(want.value), index


def test_closed_form_laws_run_the_wave_test_once_per_record(wave, generic_params, monkeypatch):
    # a check reads the closed form of every law on one batch record; the
    # acceleration-wave test behind each is run once and kept on the record
    import vkwave.jumps as jumps

    p = generic_params
    pts = np.array([sample_front_point(wave.front, 0.2, s) for s in (-0.5, 0.1, 0.7)])
    # each law on a fresh record of the same points
    want = [_closed_form_residuals(k, next(_front_jets(wave, pts)), p) for k in _CLOSED_FORM_LAWS]
    calls = []

    def counted(rec):
        calls.append(rec)
        return _wave_conditions(rec)

    monkeypatch.setattr(jumps, "_wave_conditions", counted)
    (fj,) = _front_jets(wave, pts)
    got = [_closed_form_residuals(index, fj, p) for index in _CLOSED_FORM_LAWS]
    assert calls == [fj]
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_batched_jumps_equal_records(wave, generic_params):
    # the batch formulas give each point the value its own record gives
    c = wave.wave_speed
    t = np.array([-0.4, 0.0, 0.3, 0.6])
    pts = np.stack([c * t, np.array([0.5, -1.1, 0.2, 0.9]), t], axis=1)
    _assert_records_equal_batch(wave, pts, generic_params)


def _circle_pair(params):
    """Two different traveling solutions across a growing circle: every
    value and derivative jumps, so no point is an acceleration wave."""
    ahead = invariant_solution((0.4, -0.2, 0.9, 0.5), (0.3, 0.8, -0.6, 0.2), 0.8, params)
    behind = invariant_solution((-0.1, 0.6, 0.3, -0.7), (0.5, -0.4, 0.2, 0.9), 1.3, params)
    circle = CircleFront(0.1, -0.2, 0.6, radial_speed=0.25)
    draws = np.linspace(-0.9, 0.8, 5)
    points = np.concatenate([sample_front_point(circle, t, draws) for t in (0.0, 0.4)])
    return PiecewiseField(ahead, behind, circle, params), points


@pytest.mark.parametrize("case", ["oblique_contact_pair", "circle_pair"])
def test_batched_jumps_equal_records_across_oblique_and_curved_fronts(case, generic_params):
    make = _contact_pair if case == "oblique_contact_pair" else _circle_pair
    field, points = make(generic_params)
    _assert_records_equal_batch(field, points, generic_params)


def _poly_product(p, q):
    """The product of two {(i, j, k): coefficient} polynomials."""
    out = {}
    for (ep, cp), (eq, cq) in itertools.product(p.items(), q.items()):
        key = tuple(a + b for a, b in zip(ep, eq))
        out[key] = out.get(key, 0.0) + cp * cq
    return out


def _contact_pair(params):
    """A field C^1 across the moving oblique line gamma = 3 x1 + 4 x2 + 2 x3
    + 0.7: behind = ahead + gamma^2 g, with g linear and different for w and
    phi, so that lambda* and dlambda/ds do not vanish."""
    line = LineFront(3.0, 4.0, 2.0, 0.7)
    gamma = {(1, 0, 0): 3.0, (0, 1, 0): 4.0, (0, 0, 1): 2.0, (0, 0, 0): 0.7}
    gamma2 = _poly_product(gamma, gamma)
    ahead = {
        "w": {(2, 1, 0): 0.3, (0, 2, 1): -0.5, (3, 0, 0): 0.2, (1, 0, 2): 0.4},
        "phi": {(1, 1, 1): 0.6, (0, 3, 0): -0.2, (2, 0, 0): 0.1},
    }
    g = {
        "w": {(0, 0, 0): 0.7, (1, 0, 0): 0.3, (0, 1, 0): -0.5, (0, 0, 1): 0.2},
        "phi": {(0, 0, 0): -0.9, (1, 0, 0): -0.4, (0, 1, 0): 0.6, (0, 0, 1): 0.1},
    }
    behind = {}
    for name in ("w", "phi"):
        behind[name] = dict(ahead[name])
        for key, coef in _poly_product(gamma2, g[name]).items():
            behind[name][key] = behind[name].get(key, 0.0) + coef
    s = np.linspace(-1.0, 1.0, 5)
    points = np.concatenate(
        [np.column_stack([line.curve(t, s)[0], np.full(len(s), t)]) for t in (0.0, 0.1, 0.3)]
    )
    field = PiecewiseField(
        ahead=polynomial_field(ahead["w"], ahead["phi"], params),
        behind=polynomial_field(behind["w"], behind["phi"], params),
        front=line,
        params=params,
    )
    return field, points


_SPATIAL = np.array([[idx(a, b) for b in (1, 2)] for a in (1, 2)])
_MIXED = np.array([idx(1, 3), idx(2, 3)])
_THIRD = np.array([[[idx(a, b, c) for c in (1, 2)] for b in (1, 2)] for a in (1, 2)])


@pytest.mark.parametrize("case", ["acceleration_wave", "oblique_contact_pair"])
def test_jump_kernels_equal_the_jumps_of_real_jets(case, wave, generic_params):
    # Hadamard's compatibility conditions on the jets of both sides: the
    # kernels, fed lambda, lambda* = [f,nnn] and dlambda/ds = [f,nnt] from
    # the jump jets and the front's normal and speed, give every second-
    # and in-plane third-order jump
    if case == "acceleration_wave":
        t = np.array([-0.4, 0.0, 0.3, 0.6, 1.1])
        points = np.stack([wave.wave_speed * t, np.array([0.5, -1.1, 0.2, 0.9, 0.0]), t], axis=1)
        field = wave
    else:
        field, points = _contact_pair(generic_params)
    (fj,) = _front_jets(field, points)
    n = fj.geometry.normal
    t = np.stack([-n[:, 1], n[:, 0]], axis=1)
    for name, amplitude in (("w", fj.lambda_), ("phi", fj.mu)):
        jump = getattr(fj.jump, name)
        sides = (getattr(fj.ahead, name), getattr(fj.behind, name))

        def scale(slots):
            return max(np.abs(side[:, slots]).max() for side in sides)

        want = (jump[:, _SPATIAL], jump[:, _MIXED], jump[:, idx(3, 3)])
        second_scale = scale(np.r_[_SPATIAL.ravel(), _MIXED, idx(3, 3)])
        for got, exact in zip(second_jumps(amplitude, n, fj.geometry.speed), want):
            assert np.abs(got - exact).max() <= 1e-13 * second_scale, name

        third = jump[:, _THIRD]
        star = np.einsum("pabc,pa,pb,pc->p", third, n, n, n)
        d_ds = np.einsum("pabc,pa,pb,pc->p", third, n, n, t)
        if case == "oblique_contact_pair":
            assert np.all(np.abs(star) > 0.1) and np.all(np.abs(d_ds) > 0.1), name
        got = third_jumps(star, amplitude, d_ds, n, 0.0)
        assert np.abs(got - third).max() <= 1e-13 * scale(_THIRD.ravel()), name


def test_extract_jumps_requires_a_front(generic_params):
    smooth = polynomial_field({(1, 0, 0): 1.0}, None, generic_params)
    with pytest.raises(ValidationError):
        extract_jumps(smooth, (0.0, 0.0, 0.0))


def test_amplitude_extraction(wave, record):
    omega = wave.omega
    assert record.lambda_ == pytest.approx(0.7 * omega**2, rel=1e-12)
    assert record.mu == pytest.approx(-0.8, rel=1e-12)
    # jump sign convention: behind minus ahead
    assert record.jump.w[..., idx(3, 3)] == pytest.approx(
        record.behind.w[..., idx(3, 3)] - record.ahead.w[..., idx(3, 3)], rel=1e-14
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
    # an invariant solution has no ahead branch: the scales raised an
    # AttributeError for it where the residuals raised ValidationError
    fields = (
        polynomial_field(None, None, generic_params),
        invariant_solution((0.2, 0.0, 0.5, 0.1), (0, 0.3, 0.2, 0), 1.0, generic_params),
    )
    for field in fields:
        for relations in (amplitude_relation_residuals, amplitude_relation_scales):
            with pytest.raises(
                ValidationError, match="^amplitude relations are defined for acceleration waves$"
            ):
                relations(field)


def test_balance_jump_scale_positive(record, generic_params):
    for entry in LAWS:
        assert balance_jump_scale(entry.index, record, generic_params) >= 0.0

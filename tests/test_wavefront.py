import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkwave.errors import SingularFrontError, ValidationError
from vkwave.wavefront import (
    CircleFront,
    FrontGeometry,
    LineFront,
    _front_distance,
    front_geometry,
    required_third_amplitude,
    second_jumps,
    third_jumps,
)


def test_line_front_axis_aligned_geometry():
    front = LineFront(2.0, 0.0, 3.0, -1.0)
    # gamma = 2 x1 + 3 t - 1 vanishes at x1 = 0.2 when t = 0.2
    point = (0.2, 7.0, 0.2)
    assert front.value(point) == pytest.approx(0.0, abs=1e-15)
    geo = front_geometry(front, point)
    assert geo.normal == pytest.approx([1.0, 0.0])
    assert geo.tangent == pytest.approx([0.0, 1.0])
    assert geo.speed == pytest.approx(-1.5)
    assert geo.arc_rate == 0.0
    assert front.exact_arc_rate(point) == 0.0
    assert front.spatial_line(0.2) == (2.0, 0.0, pytest.approx(3.0 * 0.2 - 1.0))


def test_line_front_oblique_geometry():
    front = LineFront(1.0, 1.0, 0.0, 0.0)
    geo = front_geometry(front, (0.3, -0.3, 5.0))
    r = 1.0 / math.sqrt(2.0)
    assert geo.normal == pytest.approx([r, r])
    assert geo.tangent == pytest.approx([-r, r])
    assert geo.speed == pytest.approx(0.0)
    assert geo.arc_rate == 0.0


def test_line_front_needs_spatial_dependence():
    with pytest.raises(ValidationError):
        LineFront(0.0, 0.0, 1.0, 0.5)


def test_circle_front_geometry():
    front = CircleFront(1.0, -2.0, 0.5, radial_speed=2.0)
    # radius at t = 0.3 is 0.5 + 2 * 0.3 = 1.1
    point = (2.1, -2.0, 0.3)
    assert front.value(point) == pytest.approx(0.0, abs=1e-15)
    geo = front_geometry(front, point)
    assert geo.normal == pytest.approx([1.0, 0.0])
    assert geo.speed == pytest.approx(2.0)
    assert geo.arc_rate == pytest.approx(1.0 / 1.1, rel=1e-15)
    assert front.exact_arc_rate(point) == pytest.approx(1.0 / 1.1, rel=1e-15)


def test_circle_arc_rate_is_the_closed_form_all_round():
    front = CircleFront(0.1, -0.05, 0.35, radial_speed=0.25)
    radius = 0.35 + 0.25 * 0.4
    for theta in np.linspace(0.0, 2.0 * math.pi, 13)[:-1]:
        point = (0.1 + radius * math.cos(theta), -0.05 + radius * math.sin(theta), 0.4)
        geo = front_geometry(front, point)
        assert geo.arc_rate == front.exact_arc_rate(point)
        assert geo.arc_rate == pytest.approx(1.0 / radius, rel=1e-15)


def test_arc_rate_takes_a_batch_of_points():
    circle = CircleFront(0.1, -0.05, 0.35, radial_speed=0.25)
    pts = np.array([(0.45, -0.05, 0.0), (0.1, 0.95, 0.2), (-0.9, -0.05, 0.4)])
    rates = circle.exact_arc_rate(pts)
    assert rates.shape == (3,)
    assert rates.tolist() == [1.0 / 0.35, 1.0, 1.0]
    assert rates.tolist() == [circle.exact_arc_rate(p) for p in pts]
    line = LineFront(1.0, 2.0, 0.5, -1.0)
    assert line.exact_arc_rate(pts).tolist() == [0.0, 0.0, 0.0]
    assert line.exact_arc_rate(pts[0]) == 0.0


def test_circle_arc_rate_is_singular_at_the_centre():
    front = CircleFront(0.0, 0.0, 1.0)
    with pytest.raises(SingularFrontError, match="centre"):
        front.exact_arc_rate((0.0, 0.0, 0.0))
    with pytest.raises(SingularFrontError, match=r"\(0\.0, 0\.0, 0\.5\)"):
        front.exact_arc_rate(np.array([(1.0, 0.0, 0.0), (0.0, 0.0, 0.5)]))


def test_line_crossings_are_the_closed_form():
    front = LineFront(2.0, -1.0, 1.0, -0.5)  # 2 x1 - x2 + x3 - 0.5 = 0
    p0 = np.array([(0.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
    p1 = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 3.0), (2.0, 0.0), (0.2, 0.0)])
    s = front.crossings(p0, p1, 0.0)
    assert s.shape == (5, 1)
    assert s[0, 0] == 0.25
    assert np.isnan(s[1, 0])  # at x1 = 0 the line crosses x2 = -0.5, off the segment
    assert np.isnan(s[2, 0])  # parallel to the front
    assert np.isnan(s[3, 0])  # wholly ahead
    assert np.isnan(s[4, 0])  # wholly behind, ending short of the front
    assert front.crossings(p0[:1], p1[:1], 0.5)[0, 0] == 0.0  # the front passes p0


def test_circle_crossings_are_the_roots_where_gamma_changes_sign():
    front = CircleFront(0.0, 0.0, 1.0, radial_speed=-0.5)
    p0 = np.array([(-2.0, 0.0), (0.0, 0.0), (-2.0, 1.0), (2.0, 2.0), (0.0, 0.0)])
    p1 = np.array([(2.0, 0.0), (4.0, 0.0), (2.0, 1.0), (3.0, 2.0), (0.25, 0.0)])
    s = front.crossings(p0, p1, 0.0)
    assert s.shape == (5, 2)
    assert s[0].tolist() == [0.25, 0.75]
    assert s[1, 0] == 0.25 and np.isnan(s[1, 1])
    assert np.isnan(s[2:]).all()  # a tangent, a miss, and a segment inside
    # at t = 2 the radius is 0 and at t = 3 negative: nothing to cross
    assert np.isnan(front.crossings(p0, p1, 2.0)).all()
    assert np.isnan(front.crossings(p0, p1, 3.0)).all()


@pytest.mark.parametrize(
    "front", [LineFront(1.0, -2.0, 0.5, 0.3), LineFront(0.0, 1.0), CircleFront(0.1, -0.05, 0.35, 0.25)],
    ids=["oblique_line", "level_line", "circle"],
)
def test_box_bounds_hold_at_every_sample(front):
    # the closed-form range of gamma holds on a grid of points of each box,
    # and the normal's range at the front points inside each box
    rng = np.random.default_rng(3)
    lower = rng.uniform(-1.0, 0.8, (200, 2))
    upper = lower + rng.uniform(0.01, 0.6, (200, 2))
    lower[:2] = [(0.1, -0.05), (0.3, 0.1)]  # a corner at the circle's centre
    upper[:2] = [(0.4, 0.3), (0.5, 0.2)]
    t = 0.2
    lo, hi = front.value_range(lower, upper, t)
    n_low, n_high = front.normal_range(lower, upper, t)
    s = np.linspace(0.0, 1.0, 41)
    theta = np.linspace(0.0, 2.0 * math.pi, 20001)
    front_points = np.column_stack([0.1 + 0.4 * np.cos(theta), -0.05 + 0.4 * np.sin(theta)])
    if isinstance(front, LineFront):
        a, b, c0 = front.spatial_line(t)
        along = np.linspace(-5.0, 5.0, 20001)
        front_points = np.column_stack([-c0 * a, -c0 * b]) / (a * a + b * b) + np.outer(along, (-b, a))
    normals = front.spatial_gradient(np.column_stack([front_points, np.full(len(front_points), t)]))
    for k in range(len(lower)):
        x1 = lower[k, 0] + s * (upper[k, 0] - lower[k, 0])
        x2 = lower[k, 1] + s * (upper[k, 1] - lower[k, 1])
        grid = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1).reshape(-1, 2)
        g = front.value(np.column_stack([grid, np.full(len(grid), t)]))
        assert lo[k] <= g.min() + 1e-15 and g.max() <= hi[k] + 1e-15
        if isinstance(front, LineFront):
            assert (lo[k], hi[k]) == pytest.approx((g.min(), g.max()), abs=1e-15)
        inside = np.all((front_points >= lower[k]) & (front_points <= upper[k]), axis=1)
        n = normals[inside] / np.hypot(*normals[inside].T)[:, None]
        assert np.all(n >= n_low[k] - 1e-12) and np.all(n <= n_high[k] + 1e-12)
    if isinstance(front, CircleFront):
        # radius 0.4: the first box holds the arc where n_1 <= 0.3 / 0.4
        # and n_2 <= 0.35 / 0.4, so that |n| = 1 bounds each component
        # from below by the other's largest value
        want_low = [math.sqrt(1.0 - 0.875**2), math.sqrt(1.0 - 0.75**2)]
        assert n_low[0] == pytest.approx(want_low, rel=1e-12)
        assert n_high[0] == pytest.approx([0.75, 0.875], rel=1e-12)
        assert n_low[1, 0] == pytest.approx(math.sqrt(1.0 - (0.25 / 0.4) ** 2), rel=1e-12)


@pytest.mark.parametrize(
    "front",
    [
        LineFront(1.0, -2.0, 0.5, 0.3),
        LineFront(0.0, 1.0, -1.0),
        CircleFront(0.1, -0.05, 0.35, -0.5),
    ],
    ids=["oblique_line", "moving_level_line", "shrinking_circle"],
)
def test_per_row_times_equal_scalar_calls(front):
    # one time per segment or box gives, row by row, what a call at that
    # time alone gives; the circle's radius is 0 at t = 0.7 and negative
    # at t = 0.9
    rng = np.random.default_rng(5)
    n = 60
    times = np.repeat([-0.2, 0.0, 0.3, 0.7, 0.9, 0.45], n // 6)
    p0 = rng.uniform(-1.0, 1.0, (n, 2))
    p1 = rng.uniform(-1.0, 1.0, (n, 2))
    lower = np.minimum(p0, p1)
    upper = np.maximum(p0, p1)
    crossings = front.crossings(p0, p1, times)
    v_low, v_high = front.value_range(lower, upper, times)
    n_low, n_high = front.normal_range(lower, upper, times)
    for k, t in enumerate(times):
        one = slice(k, k + 1)
        alone = front.crossings(p0[one], p1[one], t)[0]
        assert np.array_equal(crossings[k], alone, equal_nan=True), (k, t)
        lo, hi = front.value_range(lower[one], upper[one], t)
        assert (v_low[k], v_high[k]) == (lo[0], hi[0]), (k, t)
        lo, hi = front.normal_range(lower[one], upper[one], t)
        assert (n_low[k].tolist(), n_high[k].tolist()) == (lo[0].tolist(), hi[0].tolist()), (k, t)
    assert np.isfinite(crossings).any()
    if isinstance(front, CircleFront):
        gone = times >= 0.7
        assert np.isnan(crossings[gone]).all()
        assert (n_low[gone] == -1.0).all() and (n_high[gone] == 1.0).all()


def test_circle_front_shrinking_speed_sign():
    front = CircleFront(0.0, 0.0, 1.0, radial_speed=-0.5)
    geo = front_geometry(front, (1.0, 0.0, 0.0))
    assert geo.speed == pytest.approx(-0.5)


def test_circle_front_singular_at_center():
    front = CircleFront(0.0, 0.0, 1.0)
    with pytest.raises(SingularFrontError) as err:
        front_geometry(front, (0.0, 0.0, 0.0))
    # the point prints as plain numbers, not as numpy scalars
    assert "(0.0, 0.0, 0.0)" in str(err.value)
    assert "np.float64" not in str(err.value)


def test_circle_front_validation():
    with pytest.raises(ValidationError):
        CircleFront(0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        CircleFront(0.0, 0.0, -1.0)


@pytest.mark.parametrize(
    "front, args, name",
    [
        (LineFront, (math.nan, 0.0), "coef_x1"),
        (LineFront, (1.0, math.inf), "coef_x2"),
        (CircleFront, (0.0, 0.0, math.nan), "radius"),
        (CircleFront, (0.0, 0.0, math.inf), "radius"),
        (LineFront, ("a", 0.0), "coef_x1"),
        (LineFront, (True, 0.0), "coef_x1"),
        (LineFront, (1.0, 0.0, "0.5"), "coef_t"),
        (CircleFront, (0, 0, "1"), "radius"),
        (CircleFront, (0.0, False, 1.0), "center_x2"),
    ],
)
def test_front_coefficients_must_be_finite(front, args, name):
    # each of these used to build a front, or raised a TypeError; a str or
    # a bool is not a number, whatever it would convert to
    problem = "a real number" if any(isinstance(a, (str, bool)) for a in args) else "finite"
    with pytest.raises(ValidationError, match=f"^{name} must be {problem}, got "):
        front(*args)


def test_front_geometry_frame_validation():
    with pytest.raises(ValidationError):
        FrontGeometry(1.0, np.array([1.0, 1.0]), 0.0)


@pytest.mark.parametrize(
    "front",
    [LineFront(3.0, 4.0, 2.0, 0.7), CircleFront(0.1, -0.05, 0.35, radial_speed=0.25)],
    ids=["oblique_moving_line", "moving_circle"],
)
def test_front_geometry_of_a_batch_is_the_geometry_per_point(front):
    # points on the front at 12 times: one curve parameter each
    rng = np.random.default_rng(3)
    times = rng.uniform(-0.5, 0.5, 12)
    params = rng.uniform(-1.0, 1.0, 12) * (front.period or 1.0)
    points = np.array([[*front.curve(t, [s])[0][0], t] for t, s in zip(times, params)])
    batch = front_geometry(front, points)
    assert batch.normal.shape == batch.tangent.shape == (12, 2)
    assert batch.speed.shape == batch.arc_rate.shape == (12,)
    for name in ("speed", "normal", "tangent", "arc_rate"):
        want = np.array([getattr(front_geometry(front, pt), name) for pt in points])
        assert getattr(batch, name).tobytes() == want.tobytes(), name
        assert getattr(batch[3:5], name).tobytes() == want[3:5].tobytes(), name

    # a batch raises for its first point where the normal is undefined
    circle = CircleFront(0.0, 0.0, 1.0)
    singular = np.array([(1.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 0.25)])
    message = r"^front normal undefined at \(0\.0, 0\.0, 0\.5\): "
    with pytest.raises(SingularFrontError, match=message):
        front_geometry(circle, singular)

    # and one non-unit normal in a batch is refused
    normal = batch.normal.copy()
    normal[7] *= 1.001
    with pytest.raises(ValidationError, match="unit vectors"):
        FrontGeometry(batch.speed, normal, batch.arc_rate)


@pytest.fixture()
def oblique_geo():
    front = LineFront(3.0, 4.0, 2.0, 0.7)
    # pick a point on the front at t = 0.1: 3 x1 + 4 x2 + 0.9 = 0
    point = (0.5, -0.6, 0.1)
    assert front.value(point) == pytest.approx(0.0, abs=1e-12)
    return front_geometry(front, point)


def test_second_jump_tensors(oblique_geo):
    geo = oblique_geo
    lam = 1.7
    spatial, mixed, temporal = second_jumps(lam, geo.normal, geo.speed)
    n, t, c = geo.normal, geo.tangent, geo.speed
    assert c == pytest.approx(-2.0 / 5.0)
    # contraction recovery and the Hadamard compatibility chain
    assert n @ spatial @ n == pytest.approx(lam, rel=1e-14)
    assert t @ spatial @ t == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(mixed, -c * (spatial @ n), rtol=1e-14)
    assert temporal == pytest.approx(-c * (mixed @ n), rel=1e-14)
    assert temporal == pytest.approx(lam * c * c, rel=1e-14)

    mu_spatial, _, _ = second_jumps(-0.8, geo.normal, geo.speed)
    assert n @ mu_spatial @ n == pytest.approx(-0.8, rel=1e-14)


def test_third_jump_tensor_contractions(oblique_geo):
    geo = oblique_geo
    star, lam, dlam = 0.9, 1.7, -0.4
    third = third_jumps(star, lam, dlam, geo.normal, geo.arc_rate)
    n, t = geo.normal, geo.tangent
    assert third @ n @ n @ n == pytest.approx(star, rel=1e-13)
    assert third @ t @ n @ n == pytest.approx(dlam, rel=1e-13)
    assert third @ n @ t @ t == pytest.approx(lam * geo.arc_rate, abs=1e-13)
    assert third @ t @ t @ t == pytest.approx(0.0, abs=1e-13)


def test_third_jump_tensor_axis_aligned_exact():
    front = LineFront(1.0, 0.0, -1.3, 0.0)
    geo = front_geometry(front, (1.3, 0.2, 1.0))
    third = third_jumps(0.9, 1.7, -0.4, geo.normal, geo.arc_rate)
    # n = (1, 0): components reduce to the bare coefficients
    assert third[0, 0, 0] == 0.9
    assert third[0, 0, 1] == pytest.approx(-0.4)
    assert third[0, 1, 1] == 0.0
    assert third[1, 1, 1] == 0.0


def test_third_jump_tensor_is_symmetric(oblique_geo):
    third = third_jumps(0.9, 1.7, -0.4, oblique_geo.normal, 0.3)
    assert third.shape == (2, 2, 2)
    for axes in itertools.permutations(range(3)):
        assert np.array_equal(third.transpose(axes), third)


def test_jump_kernels_on_a_batch_equal_the_calls_per_point():
    rng = np.random.default_rng(7)
    angle = rng.uniform(0.0, 2.0 * math.pi, (3, 4))
    normal = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    star, amplitude, d_ds, speed, arc_rate = rng.normal(size=(5, 3, 4))

    batch_second = second_jumps(amplitude, normal, speed)
    batch_third = third_jumps(star, amplitude, d_ds, normal, arc_rate)
    assert [a.shape for a in batch_second] == [(3, 4, 2, 2), (3, 4, 2), (3, 4)]
    assert batch_third.shape == (3, 4, 2, 2, 2)
    for k in np.ndindex(3, 4):
        one = second_jumps(amplitude[k], normal[k], speed[k])
        for got, want in zip(batch_second, one):
            assert np.array_equal(got[k], want)
        one = third_jumps(star[k], amplitude[k], d_ds[k], normal[k], arc_rate[k])
        assert np.array_equal(batch_third[k], one)


def test_required_third_amplitude():
    front = CircleFront(0.0, 0.0, 2.0, radial_speed=1.0)
    geo = front_geometry(front, (0.0, 2.0, 0.0))
    assert required_third_amplitude(1.5, geo) == pytest.approx(-1.5 / 2.0, rel=1e-15)

    line_geo = front_geometry(LineFront(1.0, 0.0, -1.0, 0.0), (0.0, 0.0, 0.0))
    assert required_third_amplitude(1.5, line_geo) == 0.0


def test_front_distance_divides_gamma_by_its_slope():
    # |gamma| / (|grad gamma| + |d gamma/dx3|): here 2.4 / (5 + 2)
    line = LineFront(3.0, 4.0, 2.0, 0.7)
    assert _front_distance(line, np.array([0.3, 0.1, 0.2])) == pytest.approx(2.4 / 7.0)
    assert _front_distance(line, np.array([0.3, 0.1, -1.0])) == pytest.approx(0.0, abs=1e-15)
    # at a still circle's centre gamma has no slope, so no point is near
    assert _front_distance(CircleFront(0.0, 0.0, 1.0), np.zeros(3)) == math.inf


_FRONTS = st.one_of(
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    .filter(lambda c: math.hypot(c[0], c[1]) >= 0.1)
    .map(lambda c: LineFront(*c)),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.3, 2.0), st.floats(-0.5, 0.5))
    .map(lambda c: CircleFront(*c)),
)


@settings(max_examples=60, deadline=None)
@given(
    front=_FRONTS,
    t=st.floats(-0.5, 0.5),
    s=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20),
)
def test_curve_lies_on_the_front_and_inverts(front, t, s):
    # the points of the curve are on the front, curve_param maps them back
    # to s (modulo the period of a closed front), and the arc length per
    # unit of s is the length of a central difference of the points
    s = np.array(s)
    x, speed = front.curve(t, s)
    scale = 1.0 + np.abs(x).max() + np.abs(s).max()
    assert np.abs(front.value(np.column_stack([x, np.full(len(s), t)]))).max() <= 1e-12 * scale
    back = front.curve_param(t, x)
    gap = back - s
    if front.period is not None:
        assert np.all((back >= 0.0) & (back <= front.period))
        gap = (gap + 0.5 * front.period) % front.period - 0.5 * front.period
    assert np.abs(gap).max() <= 1e-12 * scale
    h = 1e-6
    step = np.hypot(*(front.curve(t, s + h)[0] - front.curve(t, s - h)[0]).T) / (2.0 * h)
    assert step == pytest.approx(np.full(len(s), speed), rel=1e-7)


def test_circle_curve_has_the_bits_of_math_cos_and_sin():
    # a circle's points take numpy's cos and sin over all their angles at
    # once; each must have the bits of math.cos and math.sin of its own
    # angle, or the front points a report samples would move.  120,000
    # angles: the sampled range of +-2 pi, a narrower and two wider ones
    front = CircleFront(0.1, -0.05, 0.35, radial_speed=0.25)
    t = 0.1
    radius = 0.35 + 0.25 * t
    rng = np.random.default_rng(11)
    for scale in (0.25 * math.pi, 2.0 * math.pi, 100.0, 1e4):
        angles = rng.uniform(-scale, scale, 30_000)
        x, speed = front.curve(t, angles)
        assert speed == radius
        assert x[:, 0].tolist() == [0.1 + radius * math.cos(a) for a in angles.tolist()]
        assert x[:, 1].tolist() == [-0.05 + radius * math.sin(a) for a in angles.tolist()]

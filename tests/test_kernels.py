import math

import numpy as np
import pytest

from vkwave._kernels import traveling_jet_fill
from vkwave.indexing import EXPONENTS, JET_SIZE


def _fill(u, phi, omega, c, pts):
    out_w = np.zeros((pts.shape[0], JET_SIZE))
    out_phi = np.zeros_like(out_w)
    traveling_jet_fill(
        np.asarray(u, dtype=np.float64),
        np.asarray(phi, dtype=np.float64),
        float(omega),
        float(c),
        np.ascontiguousarray(pts, dtype=np.float64),
        out_w,
        out_phi,
    )
    return out_w, out_phi


def test_pure_python_hand_values():
    # w profile cos(xi), cubic phi profile, xi = x1 - 2 t = 0.1
    pts = np.array([[0.3, 5.0, 0.1]])
    w, phi = _fill((0, 0, 0, 1), (1, 2, 3, 4), 1.0, 2.0, pts)
    from vkwave.indexing import idx

    assert w[0, idx()] == pytest.approx(math.cos(0.1), rel=1e-15)
    assert w[0, idx(1)] == pytest.approx(-math.sin(0.1), rel=1e-15)
    assert w[0, idx(2)] == 0.0
    assert w[0, idx(3)] == pytest.approx(2.0 * math.sin(0.1), rel=1e-15)
    assert w[0, idx(1, 3)] == pytest.approx(2.0 * math.cos(0.1), rel=1e-15)
    assert w[0, idx(3, 3)] == pytest.approx(-4.0 * math.cos(0.1), rel=1e-15)
    assert w[0, idx(1, 1, 1, 1)] == pytest.approx(math.cos(0.1), rel=1e-15)
    assert w[0, idx(3, 3, 3, 3)] == pytest.approx(16.0 * math.cos(0.1), rel=1e-15)
    assert w[0, idx(2, 2)] == 0.0

    assert phi[0, idx()] == pytest.approx(1.234, rel=1e-15)
    assert phi[0, idx(1)] == pytest.approx(2.72, rel=1e-15)
    assert phi[0, idx(3)] == pytest.approx(-5.44, rel=1e-15)
    assert phi[0, idx(1, 1)] == pytest.approx(8.4, rel=1e-15)
    assert phi[0, idx(1, 1, 1)] == pytest.approx(24.0, rel=1e-15)
    assert phi[0, idx(1, 1, 3)] == pytest.approx(-48.0, rel=1e-15)
    assert phi[0, idx(1, 3, 3)] == pytest.approx(96.0, rel=1e-15)
    assert phi[0, idx(1, 1, 1, 1)] == 0.0


def _reference_fill(u, phi, omega, c, pts):
    """Slot by slot: profile derivative of order i + k times (-c)**k, 0 when j > 0."""
    xi = pts[:, 0] - c * pts[:, 2]
    s = np.sin(omega * xi)
    co = np.cos(omega * xi)
    w_prof = (
        u[0] + u[1] * xi + u[2] * s + u[3] * co,
        u[1] + omega * (u[2] * co - u[3] * s),
        omega**2 * (-u[2] * s - u[3] * co),
        omega**3 * (-u[2] * co + u[3] * s),
        omega**4 * (u[2] * s + u[3] * co),
    )
    phi_prof = (
        phi[0] + xi * (phi[1] + xi * (phi[2] + xi * phi[3])),
        phi[1] + xi * (2.0 * phi[2] + 3.0 * phi[3] * xi),
        2.0 * phi[2] + 6.0 * phi[3] * xi,
        np.full_like(xi, 6.0 * phi[3]),
        np.zeros_like(xi),
    )
    out_w = np.empty((pts.shape[0], JET_SIZE))
    out_phi = np.empty_like(out_w)
    for q, (i, j, k) in enumerate(EXPONENTS):
        if j > 0:
            out_w[:, q] = 0.0
            out_phi[:, q] = 0.0
        else:
            factor = (-c) ** int(k)
            out_w[:, q] = w_prof[i + k] * factor
            out_phi[:, q] = phi_prof[i + k] * factor
    return out_w, out_phi


def test_fill_matches_slot_formula_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = rng.uniform(-2, 2, 4)
        ph = rng.uniform(-2, 2, 4)
        omega = float(rng.uniform(0.2, 4.0))
        c = float(rng.uniform(-3.0, 3.0))
        pts = rng.uniform(-2, 2, (int(rng.integers(1, 40)), 3))
        got = _fill(u, ph, omega, c, pts)
        want = _reference_fill(u, ph, omega, c, pts)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(np.signbit(g), np.signbit(w))


def test_time_independent_slots_vanish_for_static_profile():
    pts = np.array([[0.7, -0.4, 0.9], [0.1, 0.0, -0.3]])
    w, phi = _fill((0.5, 1.0, 0.0, 0.0), (0, 0, 0, 0), 1.0, 0.0, pts)
    from vkwave.indexing import idx

    # zero speed: no time dependence anywhere
    assert w[:, idx(3)] == pytest.approx([0.0, 0.0])
    assert w[:, idx(1)] == pytest.approx([1.0, 1.0])
    assert not phi.any()


@pytest.mark.parametrize("per_point", ["both", "u", "phi"])
def test_per_point_coefficients_equal_row_by_row_scalar_fills(per_point):
    rng = np.random.default_rng(11)
    n = 257
    pts = rng.uniform(-2, 2, (n, 3))
    u = rng.uniform(-2, 2, (4, n)) if per_point in ("both", "u") else rng.uniform(-2, 2, 4)
    ph = rng.uniform(-2, 2, (4, n)) if per_point in ("both", "phi") else rng.uniform(-2, 2, 4)
    omega, c = 1.7, -0.8
    got_w, got_phi = _fill(u, ph, omega, c, pts)
    for k in range(n):
        want_w, want_phi = _fill(
            u[:, k] if u.ndim == 2 else u, ph[:, k] if ph.ndim == 2 else ph, omega, c, pts[k : k + 1]
        )
        assert np.array_equal(got_w[k], want_w[0])
        assert np.array_equal(got_phi[k], want_phi[0])
        assert np.array_equal(np.signbit(got_w[k]), np.signbit(want_w[0]))


def test_slot_subset_matches_full_fill_bit_for_bit():
    # column i gets the bits the reference fill gives slot slots[i], and no other
    # slot is stored, with scalar or per-point coefficients and any subset
    # of slots
    rng = np.random.default_rng(13)
    for trial in range(100):
        n = int(rng.integers(1, 40))
        u = rng.uniform(-2, 2, (4, n) if trial % 2 else 4)
        ph = rng.uniform(-2, 2, (4, n) if trial % 3 else 4)
        omega = float(rng.uniform(0.2, 4.0))
        c = float(rng.uniform(-3.0, 3.0))
        pts = rng.uniform(-2, 2, (n, 3))
        slots = tuple(int(q) for q in np.flatnonzero(rng.random(JET_SIZE) < 0.3))
        full = _reference_fill(u, ph, omega, c, pts)
        sub = np.full((2, len(slots), n), np.nan).transpose(0, 2, 1)
        traveling_jet_fill(u, ph, omega, c, pts, *sub, slots)
        for g, w in zip(sub, full):
            np.testing.assert_array_equal(g, w[:, list(slots)])
            np.testing.assert_array_equal(np.signbit(g), np.signbit(w[:, list(slots)]))


def _slots_of_parity(parity):
    """The slots without an x2 subscript whose profile column has that parity."""
    return tuple(q for q, (i, j, k) in enumerate(EXPONENTS) if j == 0 and (i + k) % 2 == parity)


@pytest.fixture
def count_trig(monkeypatch):
    """Counts of the np.sin and np.cos calls made while a test runs."""
    counts = {"sin": 0, "cos": 0}
    for name in counts:
        func = getattr(np, name)

        def counted(*args, _name=name, _func=func, **kwargs):
            counts[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return counts


@pytest.mark.parametrize(
    "zero, parity, taken",
    [
        (2, 0, {"cos"}),  # even columns read u2 sin and u3 cos
        (3, 0, {"sin"}),
        (2, 1, {"sin"}),  # odd columns read u2 cos and u3 sin
        (3, 1, {"cos"}),
        ((2, 3), 0, set()),
        ((2, 3), None, set()),
        ((), None, {"sin", "cos"}),
    ],
)
def test_trig_functions_are_taken_only_for_a_nonzero_coefficient(zero, parity, taken, count_trig):
    # a scalar-zero coefficient takes no trig function for the columns
    # it alone reads, and the values are the reference's; only a column
    # that is zero may differ in the sign of its zeros
    rng = np.random.default_rng(17)
    u, ph = rng.uniform(-2, 2, (2, 4))
    u[list(np.atleast_1d(zero))] = 0.0
    pts = rng.uniform(-2, 2, (30, 3))
    omega, c = 1.3, -0.7
    slots = None if parity is None else _slots_of_parity(parity)
    want = _reference_fill(u, ph, omega, c, pts)
    count_trig.update(sin=0, cos=0)
    n = JET_SIZE if slots is None else len(slots)
    got = np.full((2, n, len(pts)), np.nan).transpose(0, 2, 1)
    traveling_jet_fill(u, ph, omega, c, pts, *got, slots)
    assert {name for name, count in count_trig.items() if count} == taken
    assert max(count_trig.values()) <= 1
    for g, w in zip(got, want):
        w = w if slots is None else w[:, list(slots)]
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(np.signbit(g[g != 0.0]), np.signbit(w[w != 0.0]))


@pytest.mark.parametrize("m", [2, 3])
def test_per_point_coefficients_with_zeros_take_the_trig_function(m, count_trig):
    # a per-point coefficient array that holds zeros is not a scalar zero:
    # the fill takes both functions and gives the reference's bits
    rng = np.random.default_rng(19)
    n = 40
    u = rng.uniform(-2, 2, (4, n))
    u[m, ::2] = 0.0
    ph = rng.uniform(-2, 2, 4)
    pts = rng.uniform(-2, 2, (n, 3))
    count_trig.update(sin=0, cos=0)
    got = _fill(u, ph, 0.9, 1.4, pts)
    assert count_trig == {"sin": 1, "cos": 1}
    for g, w in zip(got, _reference_fill(u, ph, 0.9, 1.4, pts)):
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(np.signbit(g), np.signbit(w))


def test_per_point_zeros_of_either_sign_take_no_trig_function(count_trig):
    # a per-point coefficient that is zero at every point, as when two
    # branches differ only in the sign of a zero, takes no trig function
    # for the columns it alone reads, and each point gets the bits of its
    # own scalar fill
    rng = np.random.default_rng(18)
    n = 20
    u = np.repeat(rng.uniform(-2, 2, (4, 1)), n, axis=1)
    u[2] = np.where(np.arange(n) % 2, -0.0, 0.0)
    ph = rng.uniform(-2, 2, 4)
    pts = rng.uniform(-2, 2, (n, 3))
    slots = _slots_of_parity(0)
    got = np.empty((2, len(slots), n)).transpose(0, 2, 1)
    count_trig.update(sin=0, cos=0)
    traveling_jet_fill(u, ph, 0.9, 1.4, pts, *got, slots)
    assert count_trig == {"sin": 0, "cos": 1}
    for k in range(n):
        want = np.empty((2, len(slots), 1)).transpose(0, 2, 1)
        traveling_jet_fill(u[:, k], ph, 0.9, 1.4, pts[k : k + 1], *want, slots)
        for g, w in zip(got, want):
            assert g[k].tobytes() == w[0].tobytes()

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
    # the slots asked for get a full fill's bits, every other slot NaN,
    # with scalar or per-point coefficients and any subset of slots
    rng = np.random.default_rng(13)
    for trial in range(100):
        n = int(rng.integers(1, 40))
        u = rng.uniform(-2, 2, (4, n) if trial % 2 else 4)
        ph = rng.uniform(-2, 2, (4, n) if trial % 3 else 4)
        omega = float(rng.uniform(0.2, 4.0))
        c = float(rng.uniform(-3.0, 3.0))
        pts = rng.uniform(-2, 2, (n, 3))
        slots = tuple(int(q) for q in np.flatnonzero(rng.random(JET_SIZE) < 0.3))
        unfilled = np.setdiff1d(np.arange(JET_SIZE), slots)
        full = _fill(u, ph, omega, c, pts)
        sub = [np.empty((n, JET_SIZE)), np.empty((n, JET_SIZE))]
        traveling_jet_fill(u, ph, omega, c, pts, *sub, slots)
        for g, w in zip(sub, full):
            np.testing.assert_array_equal(g[:, list(slots)], w[:, list(slots)])
            np.testing.assert_array_equal(np.signbit(g[:, list(slots)]), np.signbit(w[:, list(slots)]))
            assert np.isnan(g[:, unfilled]).all()

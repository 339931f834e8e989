"""Traveling-profile jet fill.

Given profile coefficients for

    w(x) = u0 + u1*xi + u2*sin(omega*xi) + u3*cos(omega*xi)
    phi(x) = p0 + p1*xi + p2*xi^2 + p3*xi^3,      xi = x1 - c*x3,

fill the 4-jets of w and phi at a block of points, slot by slot: every
slot, or only the slots a caller asks for, each field its own, in arrays
that hold those slots alone.  A derivative with subscript multiplicities
(i, j, k) along (x1, x2, x3) equals the profile derivative of order
i + k times (-c)^k, and vanishes whenever j > 0 because the profile does
not depend on x2.

Each of the eight coefficients is either one value for every point or an
array of one value per point, so that two profiles sharing omega and c
(the branches of an acceleration wave) fill one batch together, each
point with its own branch's coefficients.

sin and cos of the phase are taken only when a requested column of w
reads them with a coefficient that is not zero at every point of the
batch: even columns read u2 sin and u3 cos, odd columns u2 cos and u3
sin.  A term whose coefficient is zero is an exact zero whatever its
trig factor, so 0.0 stands in for a function not taken, and no value
changes: a column that is zero may at most differ in the sign of its
zeros.  (float64 sin
and cos cost about ten times exp per value, and the example wave has
u2 = 0 on both branches.)
"""

from __future__ import annotations

import functools

import numpy as np

from .indexing import EXPONENTS, JET_SIZE

#: Profile column each jet slot reads; slots with an x2 subscript read the
#: all-zero column 5.
_SLOT_M = tuple(int(i + k) if j == 0 else 5 for i, j, k in EXPONENTS)
_SLOT_K = tuple(int(k) if j == 0 else None for _, j, k in EXPONENTS)
#: Profile columns that are zero whatever the coefficients, by m, (w's,
#: phi's): column 5, and for phi's cubic also its fourth derivative, m = 4.
_ZERO_COLUMNS = ({5: 0.0}, {4: 0.0, 5: 0.0})
#: The slots every profile makes identically zero, (w's, phi's): those
#: that read a zero column.
ZERO_SLOTS = tuple(
    frozenset(q for q, m in enumerate(_SLOT_M) if m in columns) for columns in _ZERO_COLUMNS
)


@functools.lru_cache(maxsize=64)
def read_coefficients(slots) -> frozenset:
    """The coefficients that the columns of ``slots`` read, by index in
    u + phi (u0..u3 as 0..3, p0..p3 as 4..7), for ``slots`` as
    traveling_jet_fill takes them: column m of w reads u_i for
    i >= min(m, 2), and column m < 4 of phi reads p_i for i >= m."""
    w_slots, phi_slots = (range(JET_SIZE),) * 2 if slots is None else slots
    read = {i for q in w_slots if _SLOT_M[q] != 5 for i in range(min(_SLOT_M[q], 2), 4)}
    read.update(4 + i for q in phi_slots if _SLOT_M[q] < 4 for i in range(_SLOT_M[q], 4))
    return frozenset(read)


def _w_column(m, u, omega, xi, s, co):
    """Column m of the w profile: its derivative of order m in xi."""
    if m == 0:
        return u[0] + u[1] * xi + u[2] * s + u[3] * co
    if m == 1:
        return u[1] + omega * (u[2] * co - u[3] * s)
    if m == 2:
        return omega**2 * (-u[2] * s - u[3] * co)
    if m == 3:
        return omega**3 * (-u[2] * co + u[3] * s)
    return omega**4 * (u[2] * s + u[3] * co)


def _phi_column(m, phi, xi):
    """Column m of the phi profile, m < 4 (the cubic's fourth derivative
    is zero)."""
    if m == 0:
        return phi[0] + xi * (phi[1] + xi * (phi[2] + xi * phi[3]))
    if m == 1:
        return phi[1] + xi * (2.0 * phi[2] + 3.0 * phi[3] * xi)
    if m == 2:
        return 2.0 * phi[2] + 6.0 * phi[3] * xi
    return 6.0 * phi[3]


def traveling_jet_fill(u, phi, omega, c, pts, out_w, out_phi, slots=None) -> None:
    """Fill ``out_w``/``out_phi`` at ``pts`` (shape (n, 3)): with ``slots``
    a pair (w's, phi's) of slot sequences, column i of ``out_w`` (shape
    (n, len(w's))) gets w's jet slot ``w's[i]`` and column i of
    ``out_phi`` phi's slot ``phi's[i]``; every slot of both in order,
    (n, 35) each, when ``slots`` is None.  Only the profile columns those
    slots read are computed, and no other slot is stored; sin and cos are
    taken only as the module docstring says.

    ``u`` and ``phi`` hold four coefficients each, as an array of shape
    (4,) or (4, n) or a sequence of four: ``u[m]`` is a scalar or one
    value per point.  Either way every point gets the same arithmetic,
    term by term, so a point's jet is bit for bit the one its
    coefficients give as scalars, but for the trig rule: where per-point
    u2 or u3 is zero at some points only, those points read a trig value
    where their scalar fill reads 0.0, and a column that is zero there
    may differ in the sign of its zeros.  A coefficient that no requested
    column reads (read_coefficients) takes no part in any value.
    """
    xi = pts[:, 0] - c * pts[:, 2]
    w_slots, phi_slots = (range(JET_SIZE),) * 2 if slots is None else slots
    # the trig rule of the module docstring: a function not taken stands
    # in as 0.0, which only terms whose coefficient is all zeros read
    parities = {_SLOT_M[q] % 2 for q in w_slots if _SLOT_M[q] != 5}
    even, odd = 0 in parities, 1 in parities
    u2, u3 = (bool(np.any(x)) if np.ndim(x) else x != 0.0 for x in (u[2], u[3]))
    need_sin, need_cos = (even and u2) or (odd and u3), (even and u3) or (odd and u2)
    phase = omega * xi if need_sin or need_cos else None
    s = np.sin(phase) if need_sin else 0.0
    co = np.cos(phase) if need_cos else 0.0
    # Python powers: numpy's (-c) ** k can differ from them in the last bit.
    powc = tuple((-c) ** k for k in range(5))
    _store_columns(out_w, w_slots, 0, powc, lambda m: _w_column(m, u, omega, xi, s, co))
    _store_columns(out_phi, phi_slots, 1, powc, lambda m: _phi_column(m, phi, xi))


def _store_columns(out, requested, field: int, powc, column) -> None:
    """Store slot ``requested[i]`` of one field (0 for w, 1 for phi) in
    column i of ``out``: its profile column column(m), each computed when
    a slot first reads it, times (-c)^k from ``powc``."""
    cols = _ZERO_COLUMNS[field].copy()
    for i, q in enumerate(requested):
        m, k = _SLOT_M[q], _SLOT_K[q]
        if m not in cols:
            cols[m] = column(m)
        # a factor of 1.0 leaves a value's bits as they are
        f = 1.0 if k is None else powc[k]
        out[:, i] = cols[m] if f == 1.0 else cols[m] * f

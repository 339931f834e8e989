"""Traveling-profile jet fill.

Given profile coefficients for

    w(x) = u0 + u1*xi + u2*sin(omega*xi) + u3*cos(omega*xi)
    phi(x) = p0 + p1*xi + p2*xi^2 + p3*xi^3,      xi = x1 - c*x3,

fill the full 4-jets of w and phi at a block of points.  A derivative
with subscript multiplicities (i, j, k) along (x1, x2, x3) equals the
profile derivative of order i + k times (-c)^k, and vanishes whenever
j > 0 because the profile does not depend on x2.

Each of the eight coefficients is either one value for every point or an
array of one value per point, so that two profiles sharing omega and c
(the branches of an acceleration wave) fill one batch together, each
point with its own branch's coefficients.
"""

from __future__ import annotations

import numpy as np

from .indexing import EXPONENTS

#: Profile column each jet slot reads; slots with an x2 subscript read the
#: all-zero column 5.
_SLOT_M = np.array([i + k if j == 0 else 5 for i, j, k in EXPONENTS], dtype=np.intp)
_SLOT_K = tuple(int(k) if j == 0 else None for _, j, k in EXPONENTS)


def traveling_jet_fill(u, phi, omega, c, pts, out_w, out_phi) -> None:
    """Fill ``out_w``/``out_phi`` (shape (n, 35)) at ``pts`` (shape (n, 3)).

    ``u`` and ``phi`` hold four coefficients each, as an array of shape
    (4,) or (4, n): ``u[m]`` is a scalar or one value per point.  Either
    way every point gets the same arithmetic, term by term, so a point's
    jet is bit for bit the one its coefficients give as scalars.
    """
    xi = pts[:, 0] - c * pts[:, 2]
    s = np.sin(omega * xi)
    co = np.cos(omega * xi)

    w_prof = np.zeros((xi.shape[0], 6))
    w_prof[:, 0] = u[0] + u[1] * xi + u[2] * s + u[3] * co
    w_prof[:, 1] = u[1] + omega * (u[2] * co - u[3] * s)
    w_prof[:, 2] = omega**2 * (-u[2] * s - u[3] * co)
    w_prof[:, 3] = omega**3 * (-u[2] * co + u[3] * s)
    w_prof[:, 4] = omega**4 * (u[2] * s + u[3] * co)
    phi_prof = np.zeros_like(w_prof)
    phi_prof[:, 0] = phi[0] + xi * (phi[1] + xi * (phi[2] + xi * phi[3]))
    phi_prof[:, 1] = phi[1] + xi * (2.0 * phi[2] + 3.0 * phi[3] * xi)
    phi_prof[:, 2] = 2.0 * phi[2] + 6.0 * phi[3] * xi
    phi_prof[:, 3] = 6.0 * phi[3]

    # Python powers: numpy's (-c) ** k can differ from them in the last bit.
    # Dead slots get factor 1.0 so that they stay +0.0.
    powc = tuple((-c) ** k for k in range(5))
    factor = np.array([1.0 if k is None else powc[k] for k in _SLOT_K])
    # mode="clip" writes straight into out; "raise" buffers an (n, 35) copy
    for prof, out in ((w_prof, out_w), (phi_prof, out_phi)):
        np.take(prof, _SLOT_M, axis=1, out=out, mode="clip")
        out *= factor

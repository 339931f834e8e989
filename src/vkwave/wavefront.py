"""Geometry of a moving singular curve and the Hadamard jump kernels.

A front is a level set gamma(x1, x2, x3) = 0 separating the plate
mid-plane into an "ahead" region (gamma > 0) and a "behind" region
(gamma < 0).  From the level set we derive the displacement speed C, the
unit normal n (pointing into the ahead region), the unit tangent t, and
the arc-rate a = t_a dn^a/ds.  Compatibility of derivative jumps across
such a curve forces rank-one structure in the normal direction; the two
kernels below give those jump tensors from the amplitudes, as array
formulas over a batch of front points.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import SingularFrontError, ValidationError, _real

_FRAME_TOL = 1e-12


@dataclass(frozen=True)
class FrontGeometry:
    """Local front data at one point or at a batch of N points: speed,
    unit normal, arc-rate, and the tangent they fix.

    ``normal`` and ``tangent`` have shape (2,) at one point and (N, 2) on a
    batch; ``speed`` and ``arc_rate`` hold one value per point.  The frame
    convention is t = (-n2, n1); the arc-rate is even under flipping t, so
    downstream results do not depend on the orientation choice.
    """

    speed: float | np.ndarray
    normal: np.ndarray
    arc_rate: float | np.ndarray

    def __post_init__(self) -> None:
        n = np.asarray(self.normal, dtype=np.float64)
        if n.ndim not in (1, 2) or n.shape[-1] != 2:
            raise ValidationError("normal must be 2-vectors")
        if np.shape(self.speed) != n.shape[:-1] or np.shape(self.arc_rate) != n.shape[:-1]:
            raise ValidationError("speed and arc_rate must hold one value per normal")
        if (np.abs(np.sum(n * n, -1) - 1.0) > _FRAME_TOL).any():
            raise ValidationError("normal must be unit vectors")
        object.__setattr__(self, "normal", n)

    @property
    def tangent(self) -> np.ndarray:
        """The unit tangent t = (-n2, n1) at each point."""
        n = self.normal
        return np.stack([-n[..., 1], n[..., 0]], axis=-1)

    def __getitem__(self, rows) -> FrontGeometry:
        """The geometry at the points ``rows`` of a batch."""
        return FrontGeometry(*(np.asarray(getattr(self, f.name))[rows] for f in fields(self)))


class Front(abc.ABC):
    """Moving curve given as the zero set of gamma(x1, x2, x3)."""

    #: Period of the curve parameter s of a closed front; None on an open
    #: one.
    period: ClassVar[float | None] = None

    @abc.abstractmethod
    def value(self, point) -> float | np.ndarray:
        """gamma at ``point`` (shape (..., 3)); sign selects the branch."""

    @abc.abstractmethod
    def spatial_gradient(self, point) -> np.ndarray:
        """(d gamma/dx1, d gamma/dx2) at ``point``, shape (..., 2)."""

    @abc.abstractmethod
    def time_derivative(self, point) -> float | np.ndarray:
        """d gamma/dx3 at ``point``, shape (...)."""

    @abc.abstractmethod
    def exact_arc_rate(self, point) -> float | np.ndarray:
        """Arc-rate a = t_a dn^a/ds of the time slice of the level set
        through ``point``, in closed form; one value per point, shape (...)."""

    @abc.abstractmethod
    def crossings(self, p0, p1, t) -> np.ndarray:
        """Where the segments p0 -> p1 (arrays of shape (n, 2)) cross the
        time-t slice of the front, in closed form; t is one time for all
        segments or one per segment (shape (n,)).

        Returns the fractions s in [0, 1] of the points p0 + s (p1 - p0)
        at which gamma changes sign, ascending, shape (n, k) with nan
        where a segment has fewer than k crossings.  A root at which gamma
        only touches zero (a tangent) is not a crossing, and neither is a
        segment lying on the front.
        """

    @abc.abstractmethod
    def value_range(self, lower, upper, t) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest gamma at time t over each box lower <= x <= upper
        (arrays of shape (n, 2)), in closed form; t is one time for all
        boxes or one per box (shape (n,))."""

    @abc.abstractmethod
    def normal_range(self, lower, upper, t) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (low, high), each of shape (n, 2), on the components of
        the unit normal grad gamma / |grad gamma| at the points of the
        time-t front inside each box lower <= x <= upper (arrays of shape
        (n, 2)), in closed form; t is one time for all boxes or one per
        box (shape (n,))."""

    @abc.abstractmethod
    def curve(self, t, s) -> tuple[np.ndarray, float]:
        """The points (shape (n, 2)) of the time-t front at the curve
        parameters s (shape (n,)), and the arc length per unit of s."""

    @abc.abstractmethod
    def curve_param(self, t, x) -> np.ndarray:
        """The curve parameters (shape (n,)) of the points x (shape (n, 2))
        of the time-t front, the inverse of ``curve``; reduced modulo the
        period to [0, period] on a closed front (a rounded reduction of a
        tiny negative value gives the period itself)."""

    def _check_finite(self) -> None:
        """Raise for the first coefficient of the front that is not a finite
        real number."""
        for f in fields(self):
            _real(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class LineFront(Front):
    """gamma = coef_x1*x1 + coef_x2*x2 + coef_t*x3 + const."""

    coef_x1: float
    coef_x2: float
    coef_t: float = 0.0
    const: float = 0.0

    def __post_init__(self) -> None:
        self._check_finite()
        if self.coef_x1 == 0.0 and self.coef_x2 == 0.0:
            raise ValidationError("line front needs a nonzero spatial gradient")

    def value(self, point):
        # the linear form of crossings and value_range at the point's time
        p = np.asarray(point, dtype=np.float64)
        return self._spatial_value(p, p[..., 2])

    def spatial_gradient(self, point):
        p = np.asarray(point, dtype=np.float64)
        g = np.empty(p.shape[:-1] + (2,))
        g[..., 0] = self.coef_x1
        g[..., 1] = self.coef_x2
        return g

    def time_derivative(self, point):
        return np.full(np.shape(point)[:-1], self.coef_t)

    def exact_arc_rate(self, point):
        return np.zeros(np.shape(point)[:-1])

    def spatial_line(self, t) -> tuple[float, float, float]:
        """Coefficients (A, B, C0) with A x1 + B x2 + C0 = gamma at time t;
        C0 has the shape of t."""
        return (self.coef_x1, self.coef_x2, self.coef_t * t + self.const)

    def _foot_and_tangent(self, t) -> tuple[float, float, float, float]:
        """The foot (px, py) of the normal through the origin at time t,
        and the unit tangent (ux, uy) = (-n2, n1)."""
        a, b, c0 = self.spatial_line(t)
        norm2 = a * a + b * b
        norm = math.sqrt(norm2)
        return -c0 * a / norm2, -c0 * b / norm2, -b / norm, a / norm

    def curve(self, t, s):
        # s is arc length along the tangent from the foot
        px, py, ux, uy = self._foot_and_tangent(t)
        s = np.asarray(s, dtype=np.float64)
        x = np.empty(s.shape + (2,))
        x[..., 0] = px + s * ux
        x[..., 1] = py + s * uy
        return x, 1.0

    def curve_param(self, t, x):
        px, py, ux, uy = self._foot_and_tangent(t)
        x = np.asarray(x, dtype=np.float64)
        return (x[..., 0] - px) * ux + (x[..., 1] - py) * uy

    def _spatial_value(self, x, t):
        a, b, c0 = self.spatial_line(t)
        return a * x[..., 0] + b * x[..., 1] + c0

    def crossings(self, p0, p1, t):
        f0 = self._spatial_value(np.asarray(p0, dtype=np.float64), t)
        f1 = self._spatial_value(np.asarray(p1, dtype=np.float64), t)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = f0 / (f0 - f1)
        return np.where((s >= 0.0) & (s <= 1.0), s, np.nan)[:, None]

    def value_range(self, lower, upper, t):
        a, b, c0 = self.spatial_line(t)
        lo, hi = np.asarray(lower, dtype=np.float64), np.asarray(upper, dtype=np.float64)
        x_lo, x_hi = (lo[:, 0], hi[:, 0]) if a >= 0.0 else (hi[:, 0], lo[:, 0])
        y_lo, y_hi = (lo[:, 1], hi[:, 1]) if b >= 0.0 else (hi[:, 1], lo[:, 1])
        return a * x_lo + b * y_lo + c0, a * x_hi + b * y_hi + c0

    def normal_range(self, lower, upper, t):
        norm = np.hypot(self.coef_x1, self.coef_x2)
        n = np.tile([self.coef_x1 / norm, self.coef_x2 / norm], (len(lower), 1))
        return n, n


@dataclass(frozen=True)
class CircleFront(Front):
    """gamma = |x - center| - (radius + radial_speed * x3).

    The normal points radially outward, so "ahead" is the exterior of
    the circle and the front expands for positive ``radial_speed``.
    """

    center_x1: float
    center_x2: float
    radius: float
    radial_speed: float = 0.0

    #: The curve parameter is the angle about the centre.
    period: ClassVar[float] = 2.0 * math.pi

    def __post_init__(self) -> None:
        self._check_finite()
        if self.radius <= 0:
            raise ValidationError(f"radius must be positive, got {self.radius}")

    def _offsets(self, point):
        p = np.asarray(point, dtype=np.float64)
        dx = p[..., 0] - self.center_x1
        dy = p[..., 1] - self.center_x2
        return p, dx, dy, np.hypot(dx, dy)

    def value(self, point):
        p, _, _, r = self._offsets(point)
        return r - (self.radius + self.radial_speed * p[..., 2])

    def spatial_gradient(self, point):
        p, dx, dy, r = self._offsets(point)
        g = np.empty(p.shape[:-1] + (2,))
        safe = np.where(r == 0.0, 1.0, r)
        g[..., 0] = np.where(r == 0.0, 0.0, dx / safe)
        g[..., 1] = np.where(r == 0.0, 0.0, dy / safe)
        return g

    def time_derivative(self, point):
        return np.full(np.shape(point)[:-1], -self.radial_speed)

    def exact_arc_rate(self, point):
        p, _, _, r = self._offsets(point)
        center = np.flatnonzero(np.ravel(r) == 0.0)
        if center.size:
            k = center[0]
            raise SingularFrontError(
                f"arc-rate undefined at the circle's centre {tuple(p.reshape(-1, 3)[k].tolist())}"
            )
        return 1.0 / r

    def _radius_at(self, t):
        return self.radius + self.radial_speed * t

    def curve(self, t, s):
        radius = self._radius_at(t)
        if radius <= 0.0:
            raise ValidationError(f"circular front has nonpositive radius at t={t}")
        angles = np.asarray(s, dtype=np.float64)
        x = np.empty(angles.shape + (2,))
        x[..., 0] = self.center_x1 + radius * np.cos(angles)
        x[..., 1] = self.center_x2 + radius * np.sin(angles)
        return x, radius

    def curve_param(self, t, x):
        x = np.asarray(x, dtype=np.float64)
        return np.arctan2(x[..., 1] - self.center_x2, x[..., 0] - self.center_x1) % self.period

    def crossings(self, p0, p1, t):
        p0 = np.asarray(p0, dtype=np.float64)
        d = np.asarray(p1, dtype=np.float64) - p0
        fx, fy = p0[:, 0] - self.center_x1, p0[:, 1] - self.center_x2
        radius = self._radius_at(t)
        # |f + s d|^2 = radius^2, as a s^2 + 2 b s + c = 0; gamma > 0
        # everywhere once the radius is not positive
        a = d[:, 0] ** 2 + d[:, 1] ** 2
        b = fx * d[:, 0] + fy * d[:, 1]
        c = np.where(radius > 0.0, (fx**2 + fy**2) - radius**2, np.inf)
        disc = b * b - a * c
        roots = np.empty((len(a), 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(b + np.copysign(np.sqrt(disc), b))
            np.divide(q, a, out=roots[:, 0])
            np.divide(c, q, out=roots[:, 1])
        keep = (disc > 0.0)[:, None] & (roots >= 0.0) & (roots <= 1.0)
        return np.sort(np.where(keep, roots, np.nan), axis=1)

    def value_range(self, lower, upper, t):
        center = np.array([self.center_x1, self.center_x2])
        lo = np.asarray(lower, dtype=np.float64) - center
        hi = np.asarray(upper, dtype=np.float64) - center
        nearest = np.minimum(np.maximum(0.0, lo), hi)
        farthest = np.maximum(np.abs(lo), np.abs(hi))
        radius = self._radius_at(t)
        return (
            np.hypot(nearest[:, 0], nearest[:, 1]) - radius,
            np.hypot(farthest[:, 0], farthest[:, 1]) - radius,
        )

    def normal_range(self, lower, upper, t):
        # a front point is c + radius * n, so n_h lies in the box's span of
        # (x_h - c_h) / radius, and |n| = 1 keeps |n_h| at least
        # sqrt(1 - n_o^2) for the largest |n_o| there; where the radius is
        # not positive there is no front, and the bounds are [-1, 1]
        radius = np.reshape(self._radius_at(t), (-1, 1))
        none = radius <= 0.0
        radius = np.where(none, 1.0, radius)
        center = np.array([self.center_x1, self.center_x2])
        low = ((np.asarray(lower, dtype=np.float64) - center) / radius).clip(-1.0, 1.0)
        high = ((np.asarray(upper, dtype=np.float64) - center) / radius).clip(-1.0, 1.0)
        least = np.sqrt(1.0 - np.maximum(low**2, high**2))[:, ::-1]
        no_negative, no_positive = low > -least, high < least
        low = np.where(no_negative & ~no_positive, np.maximum(low, least), low)
        high = np.where(no_positive & ~no_negative, np.minimum(high, -least), high)
        return np.where(none, -1.0, low), np.where(none, 1.0, high)


def _value_and_slope(front: Front, points) -> tuple[np.ndarray, np.ndarray]:
    """gamma and its space-time slope |grad gamma| + |d gamma/dx3| at each
    space-time point (shape (..., 3))."""
    g = np.asarray(front.value(points), dtype=np.float64)
    grad = np.asarray(front.spatial_gradient(points), dtype=np.float64)
    return g, np.hypot(grad[..., 0], grad[..., 1]) + np.abs(front.time_derivative(points))


def _front_distance(front: Front | None, points) -> np.ndarray:
    """First-order estimate |gamma| / (|grad gamma| + |d gamma/dx3|) of how
    far each space-time point (shape (..., 3)) lies from the front; inf
    where gamma has no slope there, and everywhere for no front."""
    if front is None:
        return np.full(np.shape(points)[:-1], np.inf)
    g, slope = _value_and_slope(front, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(slope > 0.0, np.abs(g) / slope, np.inf)


def front_geometry(front: Front, point) -> FrontGeometry:
    """Speed, frame, and arc-rate of the front at a space-time point (shape
    (3,)) or at each of a batch of them (shape (N, 3)):
    n = grad gamma / |grad gamma|, C = -(d gamma/dx3) / |grad gamma|, and
    the front's closed form ``exact_arc_rate``.  Raises for the first
    point where the normal is undefined."""
    p = np.asarray(point, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] != 3:
        raise ValidationError(f"point must have shape (3,) or (N, 3), got shape {p.shape}")

    g = np.asarray(front.spatial_gradient(p), dtype=np.float64)
    g_t = np.asarray(front.time_derivative(p), dtype=np.float64)
    norm = np.hypot(g[..., 0], g[..., 1])
    scale = 1.0 + np.abs(p).max(axis=-1) + np.abs(g_t)
    singular = np.flatnonzero(norm <= 1e-13 * scale)
    if singular.size:
        k = singular[0]
        raise SingularFrontError(
            f"front normal undefined at {tuple(np.atleast_2d(p)[k].tolist())}: "
            f"|grad gamma| = {np.ravel(norm)[k]:.3e}"
        )
    n = g / norm[..., None]
    return FrontGeometry(
        speed=(-g_t / norm)[()],
        normal=n,
        arc_rate=np.asarray(front.exact_arc_rate(p), dtype=np.float64)[()],
    )


def second_jumps(amplitude, normal, speed):
    """Second-order jumps of a field with normal-normal amplitude A (lambda
    for w, mu for phi) across a front with unit normal n and speed C:
    ([f_{,ab}], [f_{,a3}], [f_{,33}]) = (A n_a n_b, -A C n_a, A C^2), of
    shapes (..., 2, 2), (..., 2) and (...) for amplitude and speed of
    shape (...) and normal of shape (..., 2)."""
    a = np.asarray(amplitude, dtype=np.float64)
    n = np.asarray(normal, dtype=np.float64)
    c = np.asarray(speed, dtype=np.float64)
    spatial = a[..., None, None] * (n[..., :, None] * n[..., None, :])
    return spatial, (-a * c)[..., None] * n, a * c * c


#: The zero-based index triples (0,0,0), (0,0,1), (0,1,1), (1,1,1) of the
#: four independent components of a symmetric in-plane 3-tensor, and the
#: position a + b + c among them of component (a, b, c).
_SORTED_TRIPLES = ([0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1])
_COMPONENT = np.add.outer(np.add.outer([0, 1], [0, 1]), [0, 1])


def third_jumps(star, amplitude, d_ds, normal, arc_rate):
    """In-plane third-order jumps [f_{,abc}], shape (..., 2, 2, 2), of a
    field with third-order normal amplitude lambda* (``star``), amplitude
    lambda and its arc derivative dlambda/ds, across a front with unit
    normal n (shape (..., 2)) and arc-rate a:

        lambda* nnn + dlambda/ds (nnt + ntn + tnn) + lambda a (ttn + tnt + ntt)

    with t = (-n2, n1), as in FrontGeometry.  The array is exactly
    symmetric: each component is computed once, for its sorted triple."""
    n = np.asarray(normal, dtype=np.float64)
    t = np.stack([-n[..., 1], n[..., 0]], axis=-1)
    i, j, k = _SORTED_TRIPLES
    ni, nj, nk, ti, tj, tk = n[..., i], n[..., j], n[..., k], t[..., i], t[..., j], t[..., k]
    star, amplitude, d_ds, arc_rate = (
        np.asarray(v, dtype=np.float64)[..., None] for v in (star, amplitude, d_ds, arc_rate)
    )
    sorted_components = (
        star * ni * nj * nk
        + d_ds * (ni * nj * tk + ni * tj * nk + ti * nj * nk)
        + amplitude * arc_rate * (ti * tj * nk + ti * nj * tk + ni * tj * tk)
    )
    return sorted_components[..., _COMPONENT]


def required_third_amplitude(amplitude: float, geo: FrontGeometry) -> float:
    """Normal amplitude the third-order jumps must carry on an acceleration
    wave with nonvanishing third-order jumps: -amplitude * arc_rate."""
    return -amplitude * geo.arc_rate

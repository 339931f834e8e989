"""Geometry of a moving singular curve and the Hadamard jump kernels.

A front is a level set gamma(x1, x2, x3) = 0 separating the plate
mid-plane into an "ahead" region (gamma > 0) and a "behind" region
(gamma < 0).  From the level set we derive the displacement speed C, the
unit normal n (pointing into the ahead region), the unit tangent t, and
the arc-rate a = t_a dn^a/ds.  Compatibility of derivative jumps across
such a curve forces rank-one structure in the normal direction; the
builders below produce those jump tensors from scalar amplitudes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import SingularFrontError, ValidationError

_FRAME_TOL = 1e-12


@dataclass(frozen=True)
class FrontGeometry:
    """Local front data at one point: speed, orthonormal frame, arc-rate.

    The frame convention is t = (-n2, n1); the arc-rate is even under
    flipping t, so downstream results do not depend on the orientation
    choice.
    """

    speed: float
    normal: np.ndarray
    tangent: np.ndarray
    arc_rate: float

    def __post_init__(self) -> None:
        n = np.asarray(self.normal, dtype=np.float64)
        t = np.asarray(self.tangent, dtype=np.float64)
        if n.shape != (2,) or t.shape != (2,):
            raise ValidationError("normal and tangent must be 2-vectors")
        if abs(n @ n - 1.0) > _FRAME_TOL or abs(t @ t - 1.0) > _FRAME_TOL:
            raise ValidationError("normal and tangent must be unit vectors")
        if abs(n @ t) > _FRAME_TOL:
            raise ValidationError("normal and tangent must be orthogonal")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "tangent", t)


class Front(abc.ABC):
    """Moving curve given as the zero set of gamma(x1, x2, x3)."""

    #: True when every time slice is a straight line (the front jump
    #: integral then runs along one clipped segment).
    is_straight: ClassVar[bool] = False

    @abc.abstractmethod
    def value(self, point) -> float | np.ndarray:
        """gamma at ``point`` (shape (..., 3)); sign selects the branch."""

    @abc.abstractmethod
    def spatial_gradient(self, point) -> np.ndarray:
        """(d gamma/dx1, d gamma/dx2) at ``point``, shape (..., 2)."""

    @abc.abstractmethod
    def time_derivative(self, point) -> float | np.ndarray:
        """d gamma/dx3 at ``point``."""

    @abc.abstractmethod
    def exact_arc_rate(self, point) -> float | np.ndarray:
        """Arc-rate a = t_a dn^a/ds of the time slice of the level set
        through ``point``, in closed form; one value per point."""

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

    def spatial_line(self, t) -> tuple[float, float, float] | None:
        """Coefficients (A, B, C0) with A x1 + B x2 + C0 = gamma at time t,
        for straight fronts; None otherwise.  C0 has the shape of t."""
        return None


@dataclass(frozen=True)
class LineFront(Front):
    """gamma = coef_x1*x1 + coef_x2*x2 + coef_t*x3 + const."""

    coef_x1: float
    coef_x2: float
    coef_t: float = 0.0
    const: float = 0.0

    is_straight: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.coef_x1 == 0.0 and self.coef_x2 == 0.0:
            raise ValidationError("line front needs a nonzero spatial gradient")

    def value(self, point):
        p = np.asarray(point, dtype=np.float64)
        return (
            self.coef_x1 * p[..., 0]
            + self.coef_x2 * p[..., 1]
            + self.coef_t * p[..., 2]
            + self.const
        )

    def spatial_gradient(self, point):
        p = np.asarray(point, dtype=np.float64)
        g = np.empty(p.shape[:-1] + (2,))
        g[..., 0] = self.coef_x1
        g[..., 1] = self.coef_x2
        return g

    def time_derivative(self, point):
        p = np.asarray(point, dtype=np.float64)
        if p.ndim == 1:
            return self.coef_t
        return np.full(p.shape[:-1], self.coef_t)

    def exact_arc_rate(self, point):
        p = np.asarray(point, dtype=np.float64)
        if p.ndim == 1:
            return 0.0
        return np.zeros(p.shape[:-1])

    def spatial_line(self, t) -> tuple[float, float, float]:
        return (self.coef_x1, self.coef_x2, self.coef_t * t + self.const)

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

    def __post_init__(self) -> None:
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
        p = np.asarray(point, dtype=np.float64)
        if p.ndim == 1:
            return -self.radial_speed
        return np.full(p.shape[:-1], -self.radial_speed)

    def exact_arc_rate(self, point):
        p, _, _, r = self._offsets(point)
        center = np.flatnonzero(np.ravel(r) == 0.0)
        if center.size:
            k = center[0]
            raise SingularFrontError(
                f"arc-rate undefined at the circle's centre {tuple(p.reshape(-1, 3)[k].tolist())}"
            )
        if p.ndim == 1:
            return 1.0 / float(r)
        return 1.0 / r

    def _radius_at(self, t):
        return self.radius + self.radial_speed * t

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


def _normal_and_speed(front: Front, points) -> tuple[np.ndarray, np.ndarray]:
    """Unit normal (shape (N, 2)) and speed (shape (N,)) of the front at
    points of shape (N, 3): n = grad gamma / |grad gamma| and
    C = -(d gamma/dx3) / |grad gamma|.  Raises for the first point where
    the normal is undefined."""
    p = np.asarray(points, dtype=np.float64)
    g = np.asarray(front.spatial_gradient(p), dtype=np.float64)
    g_t = np.asarray(front.time_derivative(p), dtype=np.float64)
    norm = np.hypot(g[:, 0], g[:, 1])
    scale = 1.0 + np.abs(p).max(axis=1) + np.abs(g_t)
    singular = np.flatnonzero(norm <= 1e-13 * scale)
    if singular.size:
        k = singular[0]
        raise SingularFrontError(
            f"front normal undefined at {tuple(p[k].tolist())}: |grad gamma| = {norm[k]:.3e}"
        )
    return g / norm[:, None], -g_t / norm


def _front_distance(front: Front | None, points) -> np.ndarray:
    """First-order estimate |gamma| / (|grad gamma| + |d gamma/dx3|) of how
    far each space-time point (shape (..., 3)) lies from the front; inf
    where gamma has no slope there, and everywhere for no front."""
    if front is None:
        return np.full(np.shape(points)[:-1], np.inf)
    g = np.asarray(front.value(points), dtype=np.float64)
    grad = np.asarray(front.spatial_gradient(points), dtype=np.float64)
    slope = np.hypot(grad[..., 0], grad[..., 1]) + np.abs(front.time_derivative(points))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(slope > 0.0, np.abs(g) / slope, np.inf)


def front_geometry(front: Front, point) -> FrontGeometry:
    """Speed, frame, and arc-rate of the front at a space-time point; the
    arc-rate is the front's closed form ``exact_arc_rate``."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise ValidationError(f"point must be a 3-vector, got shape {p.shape}")

    normals, speeds = _normal_and_speed(front, p[None])
    n = normals[0]
    t = np.array([-n[1], n[0]])
    return FrontGeometry(
        speed=float(speeds[0]), normal=n, tangent=t, arc_rate=float(front.exact_arc_rate(p))
    )


@dataclass(frozen=True)
class Sym3Tensor:
    """Fully symmetric in-plane 3-tensor stored by sorted index triple."""

    c111: float
    c112: float
    c122: float
    c222: float

    def component(self, a: int, b: int, c: int) -> float:
        key = "c" + "".join(str(i) for i in sorted((a, b, c)))
        try:
            return getattr(self, key)
        except AttributeError:
            raise IndexError(f"in-plane indices must be 1 or 2, got {(a, b, c)}") from None

    def contract(self, u, v, w) -> float:
        total = 0.0
        for a in (1, 2):
            for b in (1, 2):
                for c in (1, 2):
                    total += self.component(a, b, c) * u[a - 1] * v[b - 1] * w[c - 1]
        return total


@dataclass(frozen=True)
class JumpTensors:
    """Rank-one jump tensors of one field across the front.

    Second-order constructors fill ``spatial`` [f_{,ab}], ``mixed``
    [f_{,a3}], and ``temporal`` [f_{,33}]; third-order constructors fill
    ``third`` [f_{,abc}].  ``amplitude`` is the normal-normal magnitude
    (lambda or mu), ``third_amplitude`` its third-order analogue.
    """

    amplitude: float | None = None
    spatial: "np.ndarray | None" = None
    mixed: np.ndarray | None = None
    temporal: float | None = None
    third: Sym3Tensor | None = None
    third_amplitude: float | None = None
    arc_derivative: float | None = None


def _second_jumps(amplitude: float, geo: FrontGeometry) -> JumpTensors:
    n = geo.normal
    c = geo.speed
    spatial = amplitude * np.outer(n, n)
    mixed = -amplitude * c * n
    temporal = amplitude * c * c
    return JumpTensors(
        amplitude=amplitude, spatial=spatial, mixed=mixed, temporal=temporal
    )


def second_jumps_w(lam: float, geo: FrontGeometry) -> JumpTensors:
    """[w_{,ab}] = lam n_a n_b, [w_{,a3}] = -lam C n_a, [w_{,33}] = lam C^2."""
    return _second_jumps(lam, geo)


def second_jumps_phi(mu: float, geo: FrontGeometry) -> JumpTensors:
    """[phi_{,ab}] = mu n_a n_b, [phi_{,a3}] = -mu C n_a, [phi_{,33}] = mu C^2."""
    return _second_jumps(mu, geo)


def _third_jumps(star: float, amplitude: float, d_ds: float, geo: FrontGeometry) -> JumpTensors:
    n, t, a = geo.normal, geo.tangent, geo.arc_rate

    def comp(i: int, j: int, k: int) -> float:
        ni, nj, nk = n[i - 1], n[j - 1], n[k - 1]
        ti, tj, tk = t[i - 1], t[j - 1], t[k - 1]
        return (
            star * ni * nj * nk
            + d_ds * (ni * nj * tk + ni * tj * nk + ti * nj * nk)
            + amplitude * a * (ti * tj * nk + ti * nj * tk + ni * tj * tk)
        )

    third = Sym3Tensor(
        c111=comp(1, 1, 1), c112=comp(1, 1, 2), c122=comp(1, 2, 2), c222=comp(2, 2, 2)
    )
    return JumpTensors(
        amplitude=amplitude,
        third=third,
        third_amplitude=star,
        arc_derivative=d_ds,
    )


def third_jumps_w(lam_star: float, lam: float, dlam_ds: float, geo: FrontGeometry) -> JumpTensors:
    """[w_{,abc}] = lam* nnn + (dlam/ds)(nnt + ntn + tnn) + lam a (ttn + tnt + ntt)."""
    return _third_jumps(lam_star, lam, dlam_ds, geo)


def third_jumps_phi(mu_star: float, mu: float, dmu_ds: float, geo: FrontGeometry) -> JumpTensors:
    """Third-order jump tensor of phi; same kernel with mu in place of lam."""
    return _third_jumps(mu_star, mu, dmu_ds, geo)


def required_third_amplitude(amplitude: float, geo: FrontGeometry) -> float:
    """Normal amplitude the third-order jumps must carry on an acceleration
    wave with nonvanishing third-order jumps: -amplitude * arc_rate."""
    return -amplitude * geo.arc_rate

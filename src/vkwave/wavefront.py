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

    ``arc_param`` is the arc-length coordinate of the point along the
    front; its origin is arbitrary and it defaults to zero.  The frame
    convention is t = (-n2, n1); the arc-rate is even under flipping t,
    so downstream results do not depend on the orientation choice.
    """

    speed: float
    normal: np.ndarray
    tangent: np.ndarray
    arc_rate: float
    arc_param: float = 0.0

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

    #: True when every time slice is a straight line (enables exact
    #: polygon clipping in the balance quadrature).
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

    def exact_arc_rate(self, point) -> float | None:
        """Closed-form arc-rate when known (oracle for the FD estimate)."""
        return None

    def spatial_line(self, t: float) -> tuple[float, float, float] | None:
        """Coefficients (A, B, C0) with A x1 + B x2 + C0 = gamma at time t,
        for straight fronts; None otherwise."""
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

    def exact_arc_rate(self, point) -> float:
        return 0.0

    def spatial_line(self, t: float) -> tuple[float, float, float]:
        return (self.coef_x1, self.coef_x2, self.coef_t * t + self.const)


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

    def exact_arc_rate(self, point) -> float:
        _, _, _, r = self._offsets(np.asarray(point, dtype=np.float64))
        return 1.0 / float(r)


def _unit_normal_at(front: Front, spatial, time: float) -> np.ndarray:
    q = np.array([spatial[0], spatial[1], time])
    g = np.asarray(front.spatial_gradient(q), dtype=np.float64)
    norm = float(np.hypot(g[0], g[1]))
    if norm < 1e-13:
        raise SingularFrontError(
            f"front normal undefined at {tuple(q)}: |grad gamma| = {norm:.3e}"
        )
    return g / norm


def _project_to_front(front: Front, spatial, time: float, steps: int = 3):
    """Newton-project a nearby spatial point onto the time-t level set."""
    q = np.array([float(spatial[0]), float(spatial[1])])
    for _ in range(steps):
        point = np.array([q[0], q[1], time])
        g = np.asarray(front.spatial_gradient(point), dtype=np.float64)
        g2 = float(g @ g)
        if g2 < 1e-26:
            raise SingularFrontError(
                f"cannot project onto front near {tuple(point)}: gradient vanishes"
            )
        q -= float(front.value(point)) / g2 * g
    return q


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
            f"front normal undefined at {tuple(p[k])}: |grad gamma| = {norm[k]:.3e}"
        )
    return g / norm[:, None], -g_t / norm


def front_geometry(front: Front, point) -> FrontGeometry:
    """Speed, frame, and arc-rate of the front at a space-time point.

    The arc-rate a = t_a dn^a/ds is estimated by stepping +-ds along the
    tangent, projecting back onto the level set at the same time, and
    central-differencing the unit normal; for a straight front the normal
    is constant so the estimate is exactly zero.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise ValidationError(f"point must be a 3-vector, got shape {p.shape}")

    normals, speeds = _normal_and_speed(front, p[None])
    n = normals[0]
    t = np.array([-n[1], n[0]])
    speed = float(speeds[0])

    ds = 1e-4 * (1.0 + float(np.hypot(p[0], p[1])))
    time = float(p[2])
    spatial = p[:2]
    n_plus = _unit_normal_at(front, _project_to_front(front, spatial + ds * t, time), time)
    n_minus = _unit_normal_at(front, _project_to_front(front, spatial - ds * t, time), time)
    arc_rate = float(t @ (n_plus - n_minus)) / (2.0 * ds)

    return FrontGeometry(speed=speed, normal=n, tangent=t, arc_rate=arc_rate)


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

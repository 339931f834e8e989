"""Regional balance checks over rectangles.

For a conservation-law pair (density Psi, flux P) and a rectangular region
R, a solution should satisfy

    d/dt  int_R Psi dA  +  oint_dR P . n ds  =  0,

including when a discontinuity front crosses R, provided the corresponding
jump condition holds on the front.  When it does not hold, the defect
equals the line integral of C [Psi] - [P^a] n_a along the front segment
inside R, which front_segment_jump_integral computes directly as an
independent oracle.

Quadrature: tensor-product Gauss-Legendre on a cell grid.  Cells cut by a
straight front are clipped into one-sided convex polygons, triangulated,
and integrated with a collapsed-square map, so the integrand is smooth on
every quadrature domain.  Curved fronts fall back to recursive cell
subdivision with per-node side resolution at the finest level.

Each integral runs in three steps, and one plan and one set of jets
serve every law of a balance check:

1. plan: the cell, clip, triangle, subdivision and edge-chunk geometry
   emits quadrature pieces (points, weights and a side: ahead, behind,
   none, or resolved per point by the front sign);
2. evaluate: the jets are computed once per side over all pieces, in
   batches of at most _BATCH_POINTS points, and every requested law's
   density and flux are taken from each jet batch;
3. reduce: for each law, each piece gets its own dot product, and the
   piece sums are added in the nesting the geometry produced (cell,
   polygon, triangle or subdivision quadrant; edge, chunk).  A flat sum
   would be as accurate, but it changes the low bits of every integral,
   and through the difference of two integrals even the printed
   quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conservation import LawId, density_flux, law
from .errors import ValidationError
from .params import PlateParams
from .solutions import Side
from .wavefront import _normal_and_speed

_MIN_QUAD_ORDER = 4


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle with quadrature settings.

    quad_order is the Gauss-Legendre order per axis per cell, cells the
    grid the rectangle is divided into, and subdivision_depth the maximum
    recursive refinement applied to cells cut by a curved front.
    """

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    quad_order: int = 8
    cells: tuple[int, int] = (4, 4)
    subdivision_depth: int = 6

    def __post_init__(self):
        for name in ("x1_min", "x1_max", "x2_min", "x2_max"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValidationError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not self.x1_min < self.x1_max:
            raise ValidationError("region requires x1_min < x1_max")
        if not self.x2_min < self.x2_max:
            raise ValidationError("region requires x2_min < x2_max")
        if not isinstance(self.quad_order, int) or isinstance(self.quad_order, bool):
            raise ValidationError("quad_order must be an integer")
        if self.quad_order < _MIN_QUAD_ORDER:
            raise ValidationError(f"quad_order must be at least {_MIN_QUAD_ORDER}")
        cells = tuple(self.cells)
        if len(cells) != 2 or any(
            not isinstance(c, int) or isinstance(c, bool) or c < 1 for c in cells
        ):
            raise ValidationError("cells must be a pair of positive integers")
        object.__setattr__(self, "cells", cells)
        if not isinstance(self.subdivision_depth, int) or self.subdivision_depth < 0:
            raise ValidationError("subdivision_depth must be a nonnegative integer")


@dataclass(frozen=True)
class BalanceReport:
    """Result of one regional balance evaluation."""

    law: LawId
    time: float
    density_integral: float
    flux_integral: float
    time_derivative: float
    residual: float
    quadrature_error: float


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _interval_nodes(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    g, w = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * g, half * w


#: Points per jet call.  A jet takes 560 bytes a point, and a curved front
#: subdivided to depth 6 plans about 9e4 points per integral: one call per
#: side would hold some 50 MB of jets at once.
_BATCH_POINTS = 2048

#: Side of a quadrature piece: _NONE on a field without a front, and a
#: _RESOLVE piece takes each point's side from the front sign, ties going
#: ahead.
_NONE, _AHEAD, _BEHIND, _RESOLVE = range(4)
_JET_SIDE = {_NONE: Side.AUTO, _AHEAD: Side.AHEAD, _BEHIND: Side.BEHIND}


def _points3(x1, x2, t):
    pts = np.empty((np.size(x1), 3), dtype=np.float64)
    pts[:, 0] = np.ravel(x1)
    pts[:, 1] = np.ravel(x2)
    pts[:, 2] = t
    return pts


class _Plan:
    """Quadrature pieces at one time: points, weights and a side each."""

    def __init__(self, t: float):
        self.t = t
        self.x1: list[np.ndarray] = []
        self.x2: list[np.ndarray] = []
        self.weights: list[np.ndarray] = []
        self.sides: list[int] = []

    def piece(self, x1, x2, weights, side) -> int:
        self.x1.append(np.ravel(x1))
        self.x2.append(np.ravel(x2))
        self.weights.append(weights)
        self.sides.append(side)
        return len(self.sides) - 1


def _piece_sums(field, entries, plan: _Plan, normals=None) -> list[list[float]]:
    """Weighted sum of each law's density over each piece, or of P . n with
    one normal per piece; one list of piece sums per law.  Jets are
    evaluated once per side, in batches of at most _BATCH_POINTS points,
    and every law is applied to each jet batch."""
    counts = [w.size for w in plan.weights]
    x1, x2 = np.concatenate(plan.x1), np.concatenate(plan.x2)
    sides = np.repeat(np.array(plan.sides, dtype=np.int8), counts)
    resolve = np.flatnonzero(sides == _RESOLVE)
    if resolve.size:
        g = field.front.value(_points3(x1[resolve], x2[resolve], plan.t))
        sides[resolve] = np.where(g >= 0.0, _AHEAD, _BEHIND)
    if normals is not None:
        normals = np.repeat(np.asarray(normals, dtype=np.float64), counts, axis=0)
    vals = np.empty((len(entries), x1.size))
    for side, jet_side in _JET_SIDE.items():
        where = np.flatnonzero(sides == side)
        for start in range(0, where.size, _BATCH_POINTS):
            batch = where[start : start + _BATCH_POINTS]
            jet = field.jet(_points3(x1[batch], x2[batch], plan.t), jet_side)
            n = None if normals is None else normals[batch]
            for row, entry in zip(vals, entries):
                df = density_flux(entry, jet, field.params)
                if n is None:
                    row[batch] = df.density
                else:
                    row[batch] = df.flux.x1 * n[:, 0] + df.flux.x2 * n[:, 1]
            del jet  # free this batch's jets before the next batch is filled
    bounds = np.cumsum(counts)[:-1]
    return [
        [float(np.dot(w, v)) for w, v in zip(plan.weights, np.split(row, bounds))]
        for row in vals
    ]


def _nested_sum(node, sums) -> float:
    """Sum a piece index, or a list of nodes in order starting from 0.0."""
    if isinstance(node, int):
        return sums[node]
    total = 0.0
    for child in node:
        total += _nested_sum(child, sums)
    return total


def _plan_rect(plan, xa, xb, ya, yb, order, side) -> int:
    xs, wx = _interval_nodes(xa, xb, order)
    ys, wy = _interval_nodes(ya, yb, order)
    x_grid, y_grid = np.meshgrid(xs, ys, indexing="ij")
    return plan.piece(x_grid, y_grid, np.outer(wx, wy).ravel(), side)


def _dedupe_polygon(poly, tol):
    out = []
    for pt in poly:
        if not out or math.hypot(pt[0] - out[-1][0], pt[1] - out[-1][1]) > tol:
            out.append(pt)
    if len(out) > 1 and math.hypot(out[0][0] - out[-1][0], out[0][1] - out[-1][1]) <= tol:
        out.pop()
    return out


def _clip_halfplane(poly, a, b, c0, keep_nonnegative):
    """Sutherland-Hodgman clip of a convex polygon against a*x + b*y + c0."""
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp = a * p[0] + b * p[1] + c0
        fq = a * q[0] + b * q[1] + c0
        pin = fp >= 0.0 if keep_nonnegative else fp <= 0.0
        qin = fq >= 0.0 if keep_nonnegative else fq <= 0.0
        if pin:
            out.append(p)
        if pin != qin:
            s = fp / (fp - fq)
            out.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    return out


def _plan_triangle(plan, va, vb, vc, order, side):
    two_area = (vb[0] - va[0]) * (vc[1] - va[1]) - (vb[1] - va[1]) * (vc[0] - va[0])
    if abs(two_area) < 1e-300:
        return []
    g, w = _leggauss(order)
    xi = 0.5 * (g + 1.0)
    wxi = 0.5 * w
    xi_g, eta_g = np.meshgrid(xi, xi, indexing="ij")
    # collapsed-square map: smooth on the triangle, jacobian xi * |two_area|
    px = va[0] + xi_g * (vb[0] - va[0]) + xi_g * eta_g * (vc[0] - vb[0])
    py = va[1] + xi_g * (vb[1] - va[1]) + xi_g * eta_g * (vc[1] - vb[1])
    wts = np.outer(wxi, wxi) * xi_g * abs(two_area)
    return plan.piece(px, py, wts.ravel(), side)


def _plan_polygon(plan, poly, order, side, diag) -> list:
    poly = _dedupe_polygon(poly, 1e-14 * diag)
    return [
        _plan_triangle(plan, poly[0], poly[i], poly[i + 1], order, side)
        for i in range(1, len(poly) - 1)
    ]


def _plan_cell(plan, front, xa, xb, ya, yb, order, depth):
    """Pieces of one cell: the whole cell on one side, its clipped polygons
    for a straight front, or its quadrants for a curved one."""
    if front is None:
        return _plan_rect(plan, xa, xb, ya, yb, order, _NONE)

    corners = ((xa, ya), (xb, ya), (xb, yb), (xa, yb))
    if front.is_straight:
        a, b, c0 = front.spatial_line(plan.t)
        vals = [a * x + b * y + c0 for x, y in corners]
        if min(vals) >= 0.0:
            return _plan_rect(plan, xa, xb, ya, yb, order, _AHEAD)
        if max(vals) <= 0.0:
            return _plan_rect(plan, xa, xb, ya, yb, order, _BEHIND)
        diag = math.hypot(xb - xa, yb - ya)
        return [
            _plan_polygon(plan, _clip_halfplane(list(corners), a, b, c0, keep), order, side, diag)
            for keep, side in ((True, _AHEAD), (False, _BEHIND))
        ]

    xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
    samples = _points3(
        [xa, xm, xb, xa, xm, xb, xa, xm, xb],
        [ya, ya, ya, ym, ym, ym, yb, yb, yb],
        plan.t,
    )
    g = np.asarray(front.value(samples), dtype=np.float64)
    if np.all(g > 0.0):
        return _plan_rect(plan, xa, xb, ya, yb, order, _AHEAD)
    if np.all(g < 0.0):
        return _plan_rect(plan, xa, xb, ya, yb, order, _BEHIND)
    if depth == 0:
        return _plan_rect(plan, xa, xb, ya, yb, order, _RESOLVE)
    return [
        _plan_cell(plan, front, cxa, cxb, cya, cyb, order, depth - 1)
        for cxa, cxb in ((xa, xm), (xm, xb))
        for cya, cyb in ((ya, ym), (ym, yb))
    ]


def _density_integrals(field, entries, region: Region, t: float, order: int) -> list[float]:
    """Integral of each law's density over the region at time t."""
    front = getattr(field, "front", None)
    x_edges = np.linspace(region.x1_min, region.x1_max, region.cells[0] + 1)
    y_edges = np.linspace(region.x2_min, region.x2_max, region.cells[1] + 1)
    plan = _Plan(t)
    cells = [
        _plan_cell(
            plan,
            front,
            float(x_edges[i]),
            float(x_edges[i + 1]),
            float(y_edges[j]),
            float(y_edges[j + 1]),
            order,
            region.subdivision_depth,
        )
        for i in range(region.cells[0])
        for j in range(region.cells[1])
    ]
    return [_nested_sum(cells, sums) for sums in _piece_sums(field, entries, plan)]


def density_integral(field, law_key, region: Region, t: float, quad_order=None) -> float:
    """Integral of the law's density over the region at time t."""
    entry = law(law_key)
    order = region.quad_order if quad_order is None else quad_order
    (value,) = _density_integrals(field, (entry,), region, t, order)
    return value


def _edge_crossings(front, p0, p1, t, length) -> list[float]:
    """Arc-length positions in (0, length) where the front crosses the edge."""
    ux, uy = (p1[0] - p0[0]) / length, (p1[1] - p0[1]) / length

    def gamma_at(s):
        return float(
            front.value(np.array([p0[0] + s * ux, p0[1] + s * uy, t], dtype=np.float64))
        )

    if front.is_straight:
        a, b, c0 = front.spatial_line(t)
        f0 = a * p0[0] + b * p0[1] + c0
        slope = a * ux + b * uy
        line_scale = math.hypot(a, b)
        if abs(slope) <= 1e-14 * line_scale:
            if abs(f0) <= 1e-12 * line_scale * (1.0 + length):
                raise ValidationError(
                    "a region edge lies on the front; shift the region boundary"
                )
            return []
        s = -f0 / slope
        return [s] if 0.0 < s < length else []

    n_scan = 64
    ss = np.linspace(0.0, length, n_scan + 1)
    vals = np.asarray(front.value(_points3(p0[0] + ss * ux, p0[1] + ss * uy, t)), dtype=np.float64)
    crossings = []
    for k in range(n_scan):
        va, vb = vals[k], vals[k + 1]
        if va == 0.0 or va * vb >= 0.0:
            continue
        lo, hi, flo = ss[k], ss[k + 1], va
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = gamma_at(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0.0) == (flo > 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    return crossings


def _plan_edge(plan, front, p0, p1, order, n_chunks) -> list[int]:
    """Pieces of one region edge: equal chunks, split at front crossings."""
    length = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    ux, uy = (p1[0] - p0[0]) / length, (p1[1] - p0[1]) / length

    breaks = [k * length / n_chunks for k in range(n_chunks + 1)]
    if front is not None:
        breaks.extend(_edge_crossings(front, p0, p1, plan.t, length))
    breaks = sorted(set(breaks))
    spans = [(sa, sb) for sa, sb in zip(breaks[:-1], breaks[1:]) if sb - sa > 1e-15 * length]

    if front is None:
        sides = [_NONE] * len(spans)
    else:
        mids = np.array([0.5 * (sa + sb) for sa, sb in spans])
        g_mid = front.value(_points3(p0[0] + mids * ux, p0[1] + mids * uy, plan.t))
        sides = [_AHEAD if g >= 0.0 else _BEHIND for g in g_mid]
    pieces = []
    for (sa, sb), side in zip(spans, sides):
        ss, ws = _interval_nodes(sa, sb, order)
        pieces.append(plan.piece(p0[0] + ss * ux, p0[1] + ss * uy, ws, side))
    return pieces


def _boundary_flux_integrals(field, entries, region: Region, t: float, order: int) -> list[float]:
    """Outward flux of each law through the region boundary at time t."""
    front = getattr(field, "front", None)
    x1a, x1b = region.x1_min, region.x1_max
    x2a, x2b = region.x2_min, region.x2_max
    edges = (
        ((x1a, x2a), (x1b, x2a), (0.0, -1.0), region.cells[0]),
        ((x1b, x2a), (x1b, x2b), (1.0, 0.0), region.cells[1]),
        ((x1b, x2b), (x1a, x2b), (0.0, 1.0), region.cells[0]),
        ((x1a, x2b), (x1a, x2a), (-1.0, 0.0), region.cells[1]),
    )
    plan = _Plan(t)
    edge_pieces, normals = [], []
    for p0, p1, normal, n_chunks in edges:
        pieces = _plan_edge(plan, front, p0, p1, order, n_chunks)
        edge_pieces.append(pieces)
        normals += [normal] * len(pieces)
    return [_nested_sum(edge_pieces, sums) for sums in _piece_sums(field, entries, plan, normals)]


def boundary_flux_integral(field, law_key, region: Region, t: float, quad_order=None) -> float:
    """Outward flux of the law through the region boundary at time t."""
    entry = law(law_key)
    order = region.quad_order if quad_order is None else quad_order
    (value,) = _boundary_flux_integrals(field, (entry,), region, t, order)
    return value


def _reports(entries, region: Region, t: float, dt, density, flux) -> list[BalanceReport]:
    """One balance report per law of entries, from density(time, order)
    and flux(order), which return one integral per law."""
    if dt is None:
        dt = 1e-4 * (1.0 + abs(t))
    if not (isinstance(dt, (int, float)) and math.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be a positive finite number, got {dt!r}")

    order, low = region.quad_order, region.quad_order - 2
    dens_now = density(t, order)
    dens_plus = density(t + dt, order)
    dens_minus = density(t - dt, order)
    flux_now = flux(order)
    flux_low = flux(low)
    dens_plus_low = density(t + dt, low)
    dens_minus_low = density(t - dt, low)

    reports = []
    for k, entry in enumerate(entries):
        deriv = (dens_plus[k] - dens_minus[k]) / (2.0 * dt)
        deriv_low = (dens_plus_low[k] - dens_minus_low[k]) / (2.0 * dt)
        quad_err = abs(deriv - deriv_low) + abs(flux_now[k] - flux_low[k])
        reports.append(
            BalanceReport(
                law=entry,
                time=float(t),
                density_integral=dens_now[k],
                flux_integral=flux_now[k],
                time_derivative=deriv,
                residual=deriv + flux_now[k],
                quadrature_error=quad_err,
            )
        )
    return reports


def _balance_reports(field, law_keys, region: Region, t: float, dt=None) -> list[BalanceReport]:
    """balance_residual for several laws at once, one report per law.

    Each of the seven integrals is planned and its jets evaluated once,
    for all the laws together.
    """
    entries = [law(key) for key in law_keys]
    return _reports(
        entries,
        region,
        t,
        dt,
        lambda time, order: _density_integrals(field, entries, region, time, order),
        lambda order: _boundary_flux_integrals(field, entries, region, t, order),
    )


def balance_residual(field, law_key, region: Region, t: float, dt=None) -> BalanceReport:
    """Evaluate d/dt(density integral) + boundary flux for one law.

    The time derivative is a central difference with step dt (default
    1e-4 * (1 + |t|)).  quadrature_error estimates the numerical error of
    the residual by repeating both integrals at quad_order - 2.
    """
    # The integrals go through the public one-law functions, so that a
    # caller or profiler wrapping those sees all seven of them.
    entry = law(law_key)
    (report,) = _reports(
        (entry,),
        region,
        t,
        dt,
        lambda time, order: [density_integral(field, entry, region, time, order)],
        lambda order: [boundary_flux_integral(field, entry, region, t, order)],
    )
    return report


def fundamental_balances(field, region: Region, t: float, dt=None) -> tuple[BalanceReport, BalanceReport]:
    """Balance reports for the two laws equivalent to the governing equations."""
    first, second = _balance_reports(field, (1, 14), region, t, dt)
    return first, second


def _segment_inside(region: Region, front, t):
    """Clip the straight front line at time t to the region rectangle."""
    a, b, c0 = front.spatial_line(t)
    norm = math.hypot(a, b)
    px, py = -c0 * a / norm**2, -c0 * b / norm**2
    ux, uy = -b / norm, a / norm
    s_lo, s_hi = -math.inf, math.inf
    for coord, u, lo, hi in (
        (px, ux, region.x1_min, region.x1_max),
        (py, uy, region.x2_min, region.x2_max),
    ):
        if abs(u) < 1e-15:
            if not lo <= coord <= hi:
                return None
            continue
        s1, s2 = (lo - coord) / u, (hi - coord) / u
        s_lo = max(s_lo, min(s1, s2))
        s_hi = min(s_hi, max(s1, s2))
    if not s_lo < s_hi:
        return None
    return (px, py, ux, uy, s_lo, s_hi)


def _circle_arcs_inside(region: Region, front, t, n_scan=512):
    """Angle intervals of the circular front lying inside the rectangle."""
    radius = front.radius + front.radial_speed * t
    if radius <= 0.0:
        return radius, []
    cx, cy = front.center_x1, front.center_x2

    def inside(theta):
        x = cx + radius * math.cos(theta)
        y = cy + radius * math.sin(theta)
        return region.x1_min <= x <= region.x1_max and region.x2_min <= y <= region.x2_max

    thetas = np.linspace(0.0, 2.0 * math.pi, n_scan, endpoint=False)
    flags = [inside(th) for th in thetas]
    if all(flags):
        return radius, [(0.0, 2.0 * math.pi)]
    if not any(flags):
        return radius, []

    def refine(th_out, th_in):
        for _ in range(60):
            mid = 0.5 * (th_out + th_in)
            if inside(mid):
                th_in = mid
            else:
                th_out = mid
        return 0.5 * (th_out + th_in)

    step = 2.0 * math.pi / n_scan
    arcs = []
    start = next(k for k in range(n_scan) if not flags[k])
    k = start
    entry_angle = None
    for _ in range(n_scan):
        k_next = (k + 1) % n_scan
        if not flags[k] and flags[k_next]:
            entry_angle = refine(thetas[k], thetas[k] + step)
        if flags[k] and not flags[k_next] and entry_angle is not None:
            exit_angle = refine(thetas[k] + step, thetas[k])
            if exit_angle < entry_angle:
                exit_angle += 2.0 * math.pi
            arcs.append((entry_angle, exit_angle))
            entry_angle = None
        k = k_next
    return radius, arcs


def _jump_integrand_on_points(field, entry, pts3, absolute=False):
    """C [Psi] - [P . n] per point, or the one-sided magnitude sum."""
    p = field.params
    df_a = density_flux(entry, field.jet(pts3, Side.AHEAD), p)
    df_b = density_flux(entry, field.jet(pts3, Side.BEHIND), p)
    normal, speed = _normal_and_speed(field.front, pts3)
    n1, n2 = normal[:, 0], normal[:, 1]

    if absolute:
        return (
            np.abs(speed) * (np.abs(df_b.density) + np.abs(df_a.density))
            + np.abs(df_b.flux.x1 * n1 + df_b.flux.x2 * n2)
            + np.abs(df_a.flux.x1 * n1 + df_a.flux.x2 * n2)
        )
    return speed * (df_b.density - df_a.density) - (
        (df_b.flux.x1 - df_a.flux.x1) * n1 + (df_b.flux.x2 - df_a.flux.x2) * n2
    )


def front_segment_jump_integral(
    field, law_key, region: Region, t: float, quad_order=None, absolute=False
) -> float:
    """Line integral of C [Psi] - [P^a] n_a along the front inside the region.

    This is the independent oracle for the defect of a regional balance:
    when the law's jump condition fails on the front, the balance residual
    equals this integral.  With absolute=True the integrand is replaced by
    its one-sided magnitude sum, giving a scale for relative comparisons.
    """
    entry = law(law_key)
    front = getattr(field, "front", None)
    if front is None:
        raise ValidationError("field has no front; the jump integral is zero only trivially")
    order = region.quad_order if quad_order is None else quad_order

    if front.is_straight:
        seg = _segment_inside(region, front, t)
        if seg is None:
            return 0.0
        px, py, ux, uy, s_lo, s_hi = seg
        ss, ws = _interval_nodes(s_lo, s_hi, order)
        pts = _points3(px + ss * ux, py + ss * uy, t)
        vals = _jump_integrand_on_points(field, entry, pts, absolute)
        return float(np.dot(ws, vals))

    radius, arcs = _circle_arcs_inside(region, front, t)
    total = 0.0
    for th_a, th_b in arcs:
        ths, ws = _interval_nodes(th_a, th_b, max(order, 16))
        pts = _points3(
            front.center_x1 + radius * np.cos(ths),
            front.center_x2 + radius * np.sin(ths),
            t,
        )
        vals = _jump_integrand_on_points(field, entry, pts, absolute)
        total += float(np.dot(ws, vals)) * radius
    return total

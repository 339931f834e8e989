"""Regional balance checks over rectangles.

For a conservation-law pair (density Psi, flux P) and a rectangular region
R, a solution should satisfy

    d/dt  int_R Psi dA  +  oint_dR P . n ds  =  0,

including when a discontinuity front crosses R, provided the corresponding
jump condition holds on the front.  When it does not hold, the defect
equals the line integral of C [Psi] - [P^a] n_a along the front segment
inside R, which front_segment_jump_integral computes directly as an
independent oracle.

Quadrature is tensor-product Gauss-Legendre on a cell grid, with the
front handled by dimension reduction through height functions (R. Saye,
"High-order quadrature methods for implicitly defined surfaces and
volumes in hyperrectangles", SIAM J. Sci. Comput. 37(2), 2015).  A cell
the front does not cut is one tensor piece on its side.  A cut cell is
split into quadrants until, along some axis h, d gamma/dx_h keeps one
strict sign on it and the front's normal stays far enough from the
other axis for Gauss-Legendre to resolve the front as a graph
x_h = H(x_o) (closed-form bounds; a straight front never needs a
split).  The outer axis o is then split where the front crosses the
cell faces x_h = const, each height line through an outer Gauss node is
split at its crossing, and each side of every outer interval is one
Gauss-Legendre piece on which the integrand is smooth.  For a straight
front this is exact clipping.

Each integral runs in three steps, and one plan and one set of jets
serve every law of a balance check:

1. plan: the cell and edge geometry emits blocks of quadrature pieces
   (points, weights, a side: ahead, behind or none, and the cell or edge
   the piece belongs to), with one closed-form front call per kind per
   level for all cells of that level;
2. evaluate: the jets are computed once per side over all pieces, in
   batches of at most _BATCH_POINTS points, and every requested law's
   density and flux are taken from each jet batch;
3. reduce: each block becomes piece sums in one vectorised sum, added
   per cell or edge in plan order, and the cells or edges in turn.  A
   cell's sum therefore does not depend on the rest of the region, nor
   a law's on the other laws.
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

    quad_order is the Gauss-Legendre order per axis per quadrature piece,
    and cells the grid the rectangle is divided into.
    """

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    quad_order: int = 8
    cells: tuple[int, int] = (4, 4)

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


#: Points per jet call.  A jet takes 560 bytes a point, so a batch holds
#: about 1 MB of jets.  At the default 4x4 cells and order 8 an integral
#: has about 1.3e3 points across a straight front and 5e3 across a circle
#: the size of a cell, and finer grids or higher orders have many more.
_BATCH_POINTS = 2048

#: Side of a quadrature piece; _NONE on a field without a front.
_NONE, _AHEAD, _BEHIND = range(3)
_JET_SIDE = {_NONE: Side.AUTO, _AHEAD: Side.AHEAD, _BEHIND: Side.BEHIND}
_CUT = -1

#: Levels of cell splitting before a cut cell must have a height axis.
_MAX_LEVELS = 40


def _points3(x1, x2, t):
    pts = np.empty((np.size(x1), 3), dtype=np.float64)
    pts[:, 0] = np.ravel(x1)
    pts[:, 1] = np.ravel(x2)
    pts[:, 2] = t
    return pts


class _Plan:
    """Quadrature pieces at one time, in blocks of equal-size pieces:
    points and weights of shape (pieces, points), and per piece a side
    and an owner, the cell or edge whose sum it adds to."""

    def __init__(self, t: float):
        self.t = t
        self.x1: list[np.ndarray] = []
        self.x2: list[np.ndarray] = []
        self.weights: list[np.ndarray] = []
        self.sides: list[np.ndarray] = []
        self.owners: list[np.ndarray] = []

    def block(self, x1, x2, weights, sides, owners) -> None:
        """Add a block of pieces; x1, x2 and weights broadcast to one array
        whose first axis runs over the pieces."""
        if len(owners):
            x1, x2, weights = np.broadcast_arrays(x1, x2, weights)
            self.x1.append(x1.ravel())
            self.x2.append(x2.ravel())
            self.weights.append(weights.reshape(len(owners), -1))
            self.sides.append(np.broadcast_to(sides, (len(owners),)))
            self.owners.append(owners)


def _integrals(field, entries, plan: _Plan, n_owners: int, normals=None) -> list[float]:
    """Weighted sum of each law's density over the plan, or of P . n with
    one normal per piece.  Jets are evaluated once per side, in batches of
    at most _BATCH_POINTS points, and every law is applied to each jet
    batch.  Each block is reduced to piece sums in one vectorised sum;
    the piece sums are added up per owner in plan order, and the owners
    in turn, so that a law's integral does not depend on the other laws
    or on the other cells of the region."""
    counts = np.concatenate([np.full(len(w), w.shape[1]) for w in plan.weights])
    x1 = np.concatenate(plan.x1)
    x2 = np.concatenate(plan.x2)
    sides = np.repeat(np.concatenate(plan.sides), counts)
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
    totals = np.zeros((len(entries), n_owners))
    start = 0
    for weights, owners in zip(plan.weights, plan.owners):
        stop = start + weights.size
        block = vals[:, start:stop].reshape((len(entries),) + weights.shape)
        np.add.at(totals, (slice(None), owners), np.einsum("lpm,pm->lp", block, weights))
        start = stop
    return np.cumsum(totals, axis=1)[:, -1].tolist()


def _plan_boxes(plan, lower, upper, order, sides, owners) -> None:
    """One tensor Gauss-Legendre piece per box lower <= x <= upper, nodes
    in meshgrid(..., indexing="ij") ravel order."""
    xs, wx = _interval_nodes(lower[:, :1], upper[:, :1], order)
    ys, wy = _interval_nodes(lower[:, 1:], upper[:, 1:], order)
    plan.block(xs[:, :, None], ys[:, None, :], wx[:, :, None] * wy[:, None, :], sides, owners)


def _axis_points(along, height, axis):
    """Points (..., 2) with coordinate ``height`` on ``axis`` (0 or 1, per
    point) and ``along`` on the other axis."""
    along, height, axis = np.broadcast_arrays(along, height, axis)
    out = np.empty(along.shape + (2,))
    out[..., 0] = np.where(axis == 0, height, along)
    out[..., 1] = np.where(axis == 0, along, height)
    return out


def _plan_heights(plan, front, lower, upper, axis, rising, order, owners) -> None:
    """Pieces of boxes on which the front is a graph over the outer axis:
    d gamma/dx_h keeps one strict sign where the front meets each box,
    along its height axis h (``axis``, per box), positive where ``rising``.

    The outer interval is split where the front crosses the faces
    x_h = const, so the height line through each outer node crosses the
    front at most once and its crossing moves smoothly between breaks.
    Each line is split at its crossing, and each side of every outer
    interval is one Gauss-Legendre piece.
    """
    if not len(owners):
        return
    rows = np.arange(len(owners))
    oa, ob = lower[rows, 1 - axis], upper[rows, 1 - axis]
    ha, hb = lower[rows, axis], upper[rows, axis]
    # the faces x_h = ha and x_h = hb, each running from oa to ob
    faces = front.crossings(
        _axis_points([oa, oa], [ha, hb], axis).reshape(-1, 2),
        _axis_points([ob, ob], [ha, hb], axis).reshape(-1, 2),
        plan.t,
    ).reshape(2, len(rows), -1)
    breaks = np.sort(np.column_stack([oa, ob, *(oa[:, None] + faces * (ob - oa)[:, None])]), axis=1)
    inside = breaks[:, 1:] > breaks[:, :-1]
    box = np.nonzero(inside)[0]
    outer, w_outer = _interval_nodes(
        breaks[:, :-1][inside][:, None], breaks[:, 1:][inside][:, None], order
    )

    # every height line's crossing, as a fraction of (ha, hb)
    line_axis, line_a, line_b = axis[box, None], ha[box, None], hb[box, None]
    starts = _axis_points(outer, line_a, line_axis).reshape(-1, 2)
    ends = _axis_points(outer, line_b, line_axis).reshape(-1, 2)
    s = np.fmin.reduce(front.crossings(starts, ends, plan.t), axis=1)
    missed = np.flatnonzero(np.isnan(s))
    if missed.size:
        # a line that misses the front lies wholly on one side: below the
        # front (s = 1) when its middle has the side of the lower part
        mids = 0.5 * (starts[missed] + ends[missed])
        g = front.value(_points3(mids[:, 0], mids[:, 1], plan.t))
        lower_ahead = ~np.repeat(rising[box], order)[missed]
        s[missed] = np.where((g >= 0.0) == lower_ahead, 1.0, 0.0)
    cut = line_a + s.reshape(outer.shape) * (line_b - line_a)

    below = np.where(rising[box], _BEHIND, _AHEAD)
    above = np.where(rising[box], _AHEAD, _BEHIND)
    for a, b, side in ((line_a, cut, below), (cut, line_b, above)):
        inner, w_inner = _interval_nodes(a[:, :, None], b[:, :, None], order)
        weights = w_outer[:, :, None] * w_inner
        keep = np.any(weights != 0.0, axis=(1, 2))
        pts = _axis_points(outer[keep, :, None], inner[keep], line_axis[keep, :, None])
        plan.block(pts[..., 0], pts[..., 1], weights[keep], side[keep], owners[box][keep])


#: Least distance from a height function's outer interval to its nearest
#: singularity, in half-lengths of the interval.  Gauss-Legendre of order
#: n converges there like r^(-2n), r = a + sqrt(a^2 - 1) with a = 1 + this,
#: so 1.4 gives r = 4.6: on 300 random discs over 1 to 25 cells the area
#: at order 8 was within 1e-13 of the exact value, relative to the disc.
_GRAPH_REACH = 1.4


def _graph_margin(n_low, n_high):
    """Per box and axis h, a number >= 0 when the front is a graph
    x_h = H(x_o) on the box that Gauss-Legendre resolves, and < 0 when it
    is not, from bounds n_low <= n <= n_high (shape (n, 2)) on the unit
    normal where the front meets the box.

    n_h must keep one strict sign.  H' = -n_o / n_h is then finite, and H
    is singular where n_o reaches +-1.  On a circle of radius R, a front
    point lies at x_o = c_o + R n_o, so the outer interval lies within
    R [low n_o, high n_o], and it must stay _GRAPH_REACH of its
    half-lengths away from R (+-1).
    """
    o_low, o_high = n_low[:, ::-1], n_high[:, ::-1]
    reach = 1.0 - np.maximum(np.abs(o_low), np.abs(o_high))
    margin = reach - _GRAPH_REACH * 0.5 * (o_high - o_low)
    return np.where((n_low > 0.0) | (n_high < 0.0), margin, -1.0)


def _quadrants(lower, upper, owners):
    """The four quadrants of each box, each box's quadrants together."""
    mid = 0.5 * (lower + upper)
    x_lo = np.stack([lower[:, 0], lower[:, 0], mid[:, 0], mid[:, 0]], axis=1)
    x_hi = np.stack([mid[:, 0], mid[:, 0], upper[:, 0], upper[:, 0]], axis=1)
    y_lo = np.stack([lower[:, 1], mid[:, 1], lower[:, 1], mid[:, 1]], axis=1)
    y_hi = np.stack([mid[:, 1], upper[:, 1], mid[:, 1], upper[:, 1]], axis=1)
    return (
        np.stack([x_lo.ravel(), y_lo.ravel()], axis=1),
        np.stack([x_hi.ravel(), y_hi.ravel()], axis=1),
        np.repeat(owners, 4),
    )


def _plan_cells(plan, front, region: Region, order: int) -> int:
    """Plan the region's cells level by level; returns the number of
    owners, the cells in i-major order.

    At each level a closed-form range of gamma sorts the boxes: a box the
    front does not cut is one tensor piece on its side.  A cut box on
    which the front is a graph x_h = H(x_o) that Gauss-Legendre resolves
    (_graph_margin) is planned by _plan_heights, along the axis with the
    larger margin; any other cut box is split into quadrants for the next
    level.  A straight front needs no split.
    """
    x_edges = np.linspace(region.x1_min, region.x1_max, region.cells[0] + 1)
    y_edges = np.linspace(region.x2_min, region.x2_max, region.cells[1] + 1)
    xa, ya = (e.ravel() for e in np.meshgrid(x_edges[:-1], y_edges[:-1], indexing="ij"))
    xb, yb = (e.ravel() for e in np.meshgrid(x_edges[1:], y_edges[1:], indexing="ij"))
    lower, upper = np.stack([xa, ya], axis=1), np.stack([xb, yb], axis=1)
    n_cells = len(lower)
    owners = np.arange(n_cells)
    if front is None:
        _plan_boxes(plan, lower, upper, order, _NONE, owners)
        return n_cells
    for _ in range(_MAX_LEVELS):
        lo, hi = front.value_range(lower, upper, plan.t)
        sides = np.where(lo >= 0.0, _AHEAD, np.where(hi <= 0.0, _BEHIND, _CUT))
        whole = sides != _CUT
        _plan_boxes(plan, lower[whole], upper[whole], order, sides[whole], owners[whole])
        lower, upper, owners = lower[~whole], upper[~whole], owners[~whole]
        n_low, n_high = front.normal_range(lower, upper, plan.t)
        margin = _graph_margin(n_low, n_high)
        axis = np.argmax(margin, axis=1)
        rows = np.arange(len(axis))
        graph = margin[rows, axis] >= 0.0
        _plan_heights(
            plan, front, lower[graph], upper[graph], axis[graph], n_low[rows, axis][graph] > 0.0,
            order, owners[graph],
        )
        if graph.all():
            return n_cells
        lower, upper, owners = _quadrants(lower[~graph], upper[~graph], owners[~graph])
    raise ValidationError(
        f"the front is not resolved by {_MAX_LEVELS} levels of cell splitting at t = {plan.t}"
    )


def _density_integrals(field, entries, region: Region, t: float, order: int) -> list[float]:
    """Integral of each law's density over the region at time t."""
    plan = _Plan(t)
    n_cells = _plan_cells(plan, getattr(field, "front", None), region, order)
    return _integrals(field, entries, plan, n_cells)


def density_integral(field, law_key, region: Region, t: float, quad_order=None) -> float:
    """Integral of the law's density over the region at time t."""
    entry = law(law_key)
    order = region.quad_order if quad_order is None else quad_order
    (value,) = _density_integrals(field, (entry,), region, t, order)
    return value


def _region_edges(region: Region):
    """Start and end points (shape (4, 2) each) of the region's edges,
    counterclockwise from the bottom, and their outward normals."""
    x1a, x1b = region.x1_min, region.x1_max
    x2a, x2b = region.x2_min, region.x2_max
    starts = np.array([(x1a, x2a), (x1b, x2a), (x1b, x2b), (x1a, x2b)])
    ends = np.roll(starts, -1, axis=0)
    normals = np.array([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
    return starts, ends, normals


def _boundary_flux_integrals(field, entries, region: Region, t: float, order: int) -> list[float]:
    """Outward flux of each law through the region boundary at time t.

    Each edge is cut into as many equal chunks as the region has cells
    along it, and chunks are split where the front crosses the edge."""
    front = getattr(field, "front", None)
    starts, ends, normals = _region_edges(region)
    lengths = np.hypot(*(ends - starts).T)
    if front is not None and front.is_straight:
        a, b, c0 = front.spatial_line(t)
        tol = 1e-12 * math.hypot(a, b) * (1.0 + lengths)
        on_front = (np.abs(a * starts[:, 0] + b * starts[:, 1] + c0) <= tol) & (
            np.abs(a * ends[:, 0] + b * ends[:, 1] + c0) <= tol
        )
        if on_front.any():
            raise ValidationError("a region edge lies on the front; shift the region boundary")
    crossings = np.empty((4, 0)) if front is None else front.crossings(starts, ends, t)

    span_a, span_b, edge = [], [], []
    for k, n_chunks in enumerate(region.cells * 2):
        length = lengths[k]
        breaks = [j * length / n_chunks for j in range(n_chunks + 1)]
        breaks.extend(float(s) * length for s in crossings[k] if not math.isnan(s))
        breaks = sorted(set(breaks))
        for sa, sb in zip(breaks[:-1], breaks[1:]):
            if sb - sa > 1e-15 * length:
                span_a.append(sa)
                span_b.append(sb)
                edge.append(k)
    edge = np.array(edge)
    units = ((ends - starts) / lengths[:, None])[edge]
    ss, ws = _interval_nodes(np.array(span_a)[:, None], np.array(span_b)[:, None], order)
    x1 = starts[edge, :1] + ss * units[:, :1]
    x2 = starts[edge, 1:] + ss * units[:, 1:]
    if front is None:
        sides = _NONE
    else:
        mids = 0.5 * (np.array(span_a) + np.array(span_b))
        g_mid = front.value(_points3(
            starts[edge, 0] + mids * units[:, 0], starts[edge, 1] + mids * units[:, 1], t
        ))
        sides = np.where(g_mid >= 0.0, _AHEAD, _BEHIND)
    plan = _Plan(t)
    plan.block(x1, x2, ws, sides, edge)
    return _integrals(field, entries, plan, len(starts), normals[edge])


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


def _circle_arcs_inside(region: Region, front, t):
    """Angle intervals of the circular front lying inside the rectangle,
    between its closed-form crossings of the region edges."""
    radius = front.radius + front.radial_speed * t
    if radius <= 0.0:
        return radius, []
    cx, cy = front.center_x1, front.center_x2
    starts, ends, _ = _region_edges(region)
    s = front.crossings(starts, ends, t)
    hits = starts[:, None, :] + s[:, :, None] * (ends - starts)[:, None, :]
    hits = hits[~np.isnan(s)]
    angles = np.unique(np.arctan2(hits[:, 1] - cy, hits[:, 0] - cx) % (2.0 * math.pi))

    def inside(theta):
        x = cx + radius * math.cos(theta)
        y = cy + radius * math.sin(theta)
        return region.x1_min <= x <= region.x1_max and region.x2_min <= y <= region.x2_max

    if angles.size == 0:
        return radius, [(0.0, 2.0 * math.pi)] if inside(0.0) else []
    bounds = angles.tolist() + [angles[0] + 2.0 * math.pi]
    return radius, [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if inside(0.5 * (a + b))]


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

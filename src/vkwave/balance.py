"""Regional balance checks over rectangles.

For a conservation-law pair (density Psi, flux P) and a rectangular region
R, a solution should satisfy

    d/dt  int_R Psi dA  +  oint_dR P . n ds  =  0,

including when a discontinuity front crosses R, provided the corresponding
jump condition holds on the front.  When it does not hold, the defect
equals the line integral of C [Psi] - [P^a] n_a along the front inside
R, which front_segment_jump_integral computes directly as an independent
oracle.  It takes one path for every kind of front, along the front's own
parametrisation (Front.curve), and keeps its own quadrature: the balance
integrals below are what it is the reference for.

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

A balance check is planned once and evaluated once for up to
_TIMES_PER_PLAN of its times.  Its slices are the (time, order) pairs its
integrals need: the densities at t and t +- dt of every time at
quad_order, and at t +- dt at quad_order - 2, and the boundary fluxes at
t at both orders.  It runs in three steps:

1. plan: the boxes of every density slice go through one level loop
   together, each at its slice's time, with one closed-form range of
   gamma and one of the normal per level for all of them, and their
   pieces are then made once per order; the boundary edges of every
   time are cut once and shared by both orders.  The plan is blocks of
   quadrature pieces (points, weights, a time, a side: ahead, behind or
   none, the slice's cell or edge the piece belongs to, and a rank);
2. evaluate: the jets are computed once per side over the pieces of all
   slices, each point at its own time, in the batches of
   solutions._jet_batches, and every requested law's density or flux is
   taken from each jet batch.  The density pass fills only the 7 slots
   per field the densities read (conservation._DENSITY_SLOTS) and builds
   densities only; the flux pass fills the 13 the fluxes read
   (conservation._ROW_SLOTS);
3. reduce: each block becomes piece sums in one vectorised sum, added
   per cell or edge in rank order (level by level: uncut boxes, then
   the pieces below the front, then those above) and plan order, and the
   cells or edges of each slice in turn, giving one total per law and
   slice.  A cell's sum therefore does not depend on the rest of the
   region, nor a law's on the other laws, nor a slice's on the other
   slices: density_integral and boundary_flux_integral are the one-slice
   case and give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conservation import _DENSITY_SLOTS, _ROW_SLOTS, LawId, density_flux, law
from .errors import ValidationError, _first_failure
from .jumps import _balance_jump_terms, _front_jets
from .params import PlateParams
from .solutions import Side, _jet_batches

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
    pts[:, 2] = np.ravel(t)
    return pts


class _Plan:
    """Quadrature pieces of one or more slices, a slice being one time at
    one order, in blocks of equal-size pieces: points (x1, x2) of shape
    (pieces, points, 2) and weights of shape (pieces, points), and per
    piece a time, a side, an owner, the slice's cell or edge whose sum it
    adds to, and a rank: an owner adds its pieces by rank, and pieces of
    one rank in plan order."""

    def __init__(self):
        self.points: list[np.ndarray] = []
        self.weights: list[np.ndarray] = []
        self.times: list[np.ndarray] = []
        self.sides: list[np.ndarray] = []
        self.owners: list[np.ndarray] = []
        self.ranks: list[np.ndarray] = []

    def block(self, points, weights, times, sides, owners, ranks) -> None:
        """Add a block of pieces: weights of shape (pieces, ...), points of
        that shape + (2,), and times, sides, owners and ranks of shape
        (pieces,)."""
        if len(owners):
            self.points.append(points.reshape(-1, 2))
            self.weights.append(weights.reshape(len(owners), -1))
            self.times.append(times)
            self.sides.append(sides)
            self.owners.append(owners)
            self.ranks.append(ranks)


def _integrals(field, entries, plan: _Plan, n_slices, n_owners, normals=None) -> np.ndarray:
    """Weighted sum of each law's density over each slice of the plan, or
    of P . n with one normal per piece, shape (laws, slices); owner k of
    slice j is j * n_owners + k.

    Jets are evaluated once per side for the points of every slice, each
    at its own time, in the batches of _jet_batches, and every law is
    applied to each jet batch.  A density pass fills the jets in
    _DENSITY_SLOTS only and reads only densities; a flux pass fills them
    in _ROW_SLOTS.  Each block is reduced to piece sums in one vectorised
    sum; the piece sums are added up per owner in rank and plan order,
    and the owners of a slice in turn, so that a law's integral does not
    depend on the other laws, slices or cells."""
    counts = np.concatenate([np.full(len(w), w.shape[1]) for w in plan.weights])
    pts = np.empty((counts.sum(), 3))
    pts[:, :2] = np.concatenate(plan.points)
    pts[:, 2] = np.repeat(np.concatenate(plan.times), counts)
    sides = np.repeat(np.concatenate(plan.sides), counts)
    if normals is not None:
        normals = np.repeat(normals, counts, axis=0)
    slots = _DENSITY_SLOTS if normals is None else _ROW_SLOTS
    vals = np.empty((len(entries), len(pts)))
    for side, jet_side in _JET_SIDE.items():
        where = np.flatnonzero(sides == side)
        for rows, jet in _jet_batches(field, pts[where], jet_side, slots):
            batch = where[rows]
            n = None if normals is None else normals[batch]
            for row, entry in zip(vals, entries):
                df = density_flux(entry, jet, field.params)
                if n is None:
                    row[batch] = df.density
                else:
                    row[batch] = df.flux.x1 * n[:, 0] + df.flux.x2 * n[:, 1]
            # free this batch's jets, which the last view holds too, before
            # the next batch is filled
            del jet, df
    sums = []
    start = 0
    for weights in plan.weights:
        stop = start + weights.size
        block = vals[:, start:stop].reshape((len(entries),) + weights.shape)
        sums.append(np.einsum("lpm,pm->lp", block, weights))
        start = stop
    in_order = np.argsort(np.concatenate(plan.ranks), kind="stable")
    totals = np.zeros((len(entries), n_slices * n_owners))
    np.add.at(
        totals,
        (slice(None), np.concatenate(plan.owners)[in_order]),
        np.concatenate(sums, axis=1)[:, in_order],
    )
    return np.cumsum(totals.reshape(len(entries), n_slices, n_owners), axis=2)[:, :, -1]


def _plan_boxes(plan, lower, upper, order, times, sides, owners, ranks) -> None:
    """One tensor Gauss-Legendre piece per box lower <= x <= upper, nodes
    in meshgrid(..., indexing="ij") ravel order."""
    xs, wx = _interval_nodes(lower[:, :1], upper[:, :1], order)
    ys, wy = _interval_nodes(lower[:, 1:], upper[:, 1:], order)
    pts = np.empty((len(owners), order, order, 2))
    pts[..., 0] = xs[:, :, None]
    pts[..., 1] = ys[:, None, :]
    plan.block(pts, wx[:, :, None] * wy[:, None, :], times, sides, owners, ranks)


def _axis_points(along, height, axis):
    """Points (..., 2) with coordinate ``height`` on ``axis`` (0 or 1, per
    point) and ``along`` on the other axis."""
    first = axis == 0
    x1 = np.where(first, height, along)
    out = np.empty(x1.shape + (2,))
    out[..., 0] = x1
    out[..., 1] = np.where(first, along, height)
    return out


def _plan_heights(plan, front, lower, upper, axis, rising, order, times, owners, ranks) -> None:
    """Pieces of boxes on which the front is a graph over the outer axis:
    d gamma/dx_h keeps one strict sign where the front meets each box at
    its time, along its height axis h (``axis``, per box), positive where
    ``rising``.  A box's pieces below the front take its rank + 1, those
    above its rank + 2.

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
        np.concatenate([times, times]),
    ).reshape(2, len(rows), -1)
    faces = oa[:, None] + faces * (ob - oa)[:, None]
    breaks = np.sort(np.concatenate([oa[:, None], ob[:, None], *faces], axis=1), axis=1)
    inside = breaks[:, 1:] > breaks[:, :-1]
    box = np.nonzero(inside)[0]
    outer, w_outer = _interval_nodes(
        breaks[:, :-1][inside][:, None], breaks[:, 1:][inside][:, None], order
    )

    # every height line's crossing, as a fraction of (ha, hb)
    line_axis, line_a, line_b = axis[box, None], ha[box, None], hb[box, None]
    starts = _axis_points(outer, line_a, line_axis).reshape(-1, 2)
    ends = _axis_points(outer, line_b, line_axis).reshape(-1, 2)
    line_t = np.repeat(times[box], order)
    s = np.fmin.reduce(front.crossings(starts, ends, line_t), axis=1)
    missed = np.flatnonzero(np.isnan(s))
    if missed.size:
        # a line that misses the front lies wholly on one side: below the
        # front (s = 1) when its middle has the side of the lower part
        mids = 0.5 * (starts[missed] + ends[missed])
        g = front.value(_points3(mids[:, 0], mids[:, 1], line_t[missed]))
        lower_ahead = ~np.repeat(rising[box], order)[missed]
        s[missed] = np.where((g >= 0.0) == lower_ahead, 1.0, 0.0)
    cut = line_a + s.reshape(outer.shape) * (line_b - line_a)

    below = np.where(rising[box], _BEHIND, _AHEAD)
    above = np.where(rising[box], _AHEAD, _BEHIND)
    box_t, box_owner, box_rank = times[box], owners[box], ranks[box]
    pieces = ((line_a, cut, below, box_rank + 1), (cut, line_b, above, box_rank + 2))
    for a, b, side, rank in pieces:
        inner, w_inner = _interval_nodes(a[:, :, None], b[:, :, None], order)
        weights = w_outer[:, :, None] * w_inner
        keep = (weights != 0.0).any(axis=(1, 2))
        pts = _axis_points(outer[keep, :, None], inner[keep], line_axis[keep, :, None])
        plan.block(pts, weights[keep], box_t[keep], side[keep], box_owner[keep], rank[keep])


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
    # columns x_lo, y_lo, x_mid, y_mid, x_hi, y_hi; the quadrants in the
    # order (lo, lo), (lo, mid), (mid, lo), (mid, mid) of their lower corners
    c = np.concatenate([lower, 0.5 * (lower + upper), upper], axis=1)
    return (
        c[:, [0, 1, 0, 3, 2, 1, 2, 3]].reshape(-1, 2),
        c[:, [2, 3, 2, 5, 4, 3, 4, 5]].reshape(-1, 2),
        np.repeat(owners, 4),
    )


def _plan_cells(plan, front, region: Region, slices) -> int:
    """Plan the region's cells for every slice (t, order); returns the
    number of cells, owner j * cells + k being cell k (in i-major order)
    of slice j.

    The boxes of all slices are classified level by level, each at its
    slice's time.  At each level a closed-form range of gamma finds the
    boxes the front does not cut: each is one tensor piece on its side.
    A cut box on which the front is a graph x_h = H(x_o) that
    Gauss-Legendre resolves (_graph_margin) is planned by _plan_heights,
    along the axis with the larger margin; any other cut box is split into
    quadrants for the next level.  The classes do not depend on the
    order, and a straight front needs no split.  The pieces of every
    level are then made once per order, ranked so that each cell adds
    them level by level: its uncut boxes, then the pieces below the
    front, then those above.
    """
    x_edges = np.linspace(region.x1_min, region.x1_max, region.cells[0] + 1)
    y_edges = np.linspace(region.x2_min, region.x2_max, region.cells[1] + 1)
    xa, ya = (e.ravel() for e in np.meshgrid(x_edges[:-1], y_edges[:-1], indexing="ij"))
    xb, yb = (e.ravel() for e in np.meshgrid(x_edges[1:], y_edges[1:], indexing="ij"))
    n_cells = len(xa)
    times = np.array([t for t, _ in slices], dtype=np.float64)
    orders = np.array([order for _, order in slices])
    lower = np.tile(np.stack([xa, ya], axis=1), (len(slices), 1))
    upper = np.tile(np.stack([xb, yb], axis=1), (len(slices), 1))
    owners = np.arange(len(slices) * n_cells)
    uncut_boxes, graph_boxes = [], []
    for level in range(_MAX_LEVELS):
        rank = 3 * level
        box_t = times[owners // n_cells]
        if front is None:
            sides = np.full(len(owners), _NONE)
        else:
            lo, hi = front.value_range(lower, upper, box_t)
            sides = np.where(lo >= 0.0, _AHEAD, np.where(hi <= 0.0, _BEHIND, _CUT))
        uncut = sides != _CUT
        uncut_boxes.append((
            lower[uncut], upper[uncut], sides[uncut], owners[uncut],
            np.full(np.count_nonzero(uncut), rank),
        ))
        if uncut.all():
            break
        cut = ~uncut
        lower, upper, owners, box_t = lower[cut], upper[cut], owners[cut], box_t[cut]
        n_low, n_high = front.normal_range(lower, upper, box_t)
        margin = _graph_margin(n_low, n_high)
        axis = np.argmax(margin, axis=1)
        rows = np.arange(len(axis))
        graph = margin[rows, axis] >= 0.0
        rising = n_low[rows, axis] > 0.0
        graph_boxes.append((
            lower[graph], upper[graph], axis[graph], rising[graph], owners[graph],
            np.full(np.count_nonzero(graph), rank),
        ))
        if graph.all():
            break
        split = ~graph
        lower, upper, owners = _quadrants(lower[split], upper[split], owners[split])
    else:
        raise ValidationError(
            f"the front is not resolved by {_MAX_LEVELS} levels of cell splitting"
            f" at t = {float(times[owners[0] // n_cells])}"
        )

    lower, upper, sides, owners, ranks = map(np.concatenate, zip(*uncut_boxes))
    slice_of = owners // n_cells
    for order in dict.fromkeys(orders.tolist()):
        pick = orders[slice_of] == order
        _plan_boxes(
            plan, lower[pick], upper[pick], order, times[slice_of[pick]], sides[pick],
            owners[pick], ranks[pick],
        )
    if graph_boxes:
        lower, upper, axis, rising, owners, ranks = map(np.concatenate, zip(*graph_boxes))
        slice_of = owners // n_cells
        for order in dict.fromkeys(orders.tolist()):
            pick = orders[slice_of] == order
            _plan_heights(
                plan, front, lower[pick], upper[pick], axis[pick], rising[pick], order,
                times[slice_of[pick]], owners[pick], ranks[pick],
            )
    return n_cells


def _density_integrals(field, entries, region: Region, slices) -> np.ndarray:
    """Integral of each law's density over the region for every slice
    (t, order), shape (laws, slices): one plan and one jet evaluation."""
    plan = _Plan()
    n_cells = _plan_cells(plan, getattr(field, "front", None), region, slices)
    return _integrals(field, entries, plan, len(slices), n_cells)


def density_integral(field, law_key, region: Region, t: float, quad_order=None) -> float:
    """Integral of the law's density over the region at time t."""
    entry = law(law_key)
    order = region.quad_order if quad_order is None else quad_order
    return _density_integrals(field, (entry,), region, ((t, order),))[0, 0].item()


def _region_edges(region: Region):
    """Start and end points (shape (4, 2) each) of the region's edges,
    counterclockwise from the bottom, and their outward normals."""
    x1a, x1b = region.x1_min, region.x1_max
    x2a, x2b = region.x2_min, region.x2_max
    starts = np.array([(x1a, x2a), (x1b, x2a), (x1b, x2b), (x1a, x2b)])
    ends = np.roll(starts, -1, axis=0)
    normals = np.array([(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
    return starts, ends, normals


def _check_edges_off_front(front, region: Region, times) -> None:
    """Raise when a region edge lies on the front at one of the times: its
    two ends and its middle all have |gamma| <= 1e-12 |grad gamma| (1 + L),
    L its length.  One value and one gradient call for all times."""
    starts, ends, _ = _region_edges(region)
    lengths = np.hypot(*(ends - starts).T)
    pts = np.empty((len(times), 4, 3, 3))  # (time, edge, start/middle/end, x)
    pts[..., :2] = np.stack([starts, 0.5 * (starts + ends), ends], axis=1)
    pts[..., 2] = np.reshape(times, (-1, 1, 1))
    grad = front.spatial_gradient(pts)
    tol = 1e-12 * np.hypot(grad[..., 0], grad[..., 1]) * (1.0 + lengths)[:, None]
    if (np.abs(front.value(pts)) <= tol).all(axis=2).any():
        raise ValidationError("a region edge lies on the front; shift the region boundary")


def _boundary_flux_integrals(field, entries, region: Region, slices) -> np.ndarray:
    """Outward flux of each law through the region boundary for every
    slice (t, order), shape (laws, slices): one plan and one jet
    evaluation.

    Each edge is cut into as many equal chunks as the region has cells
    along it, and chunks are split where the front crosses the edge at the
    slice's time; the slices at one time share their chunks."""
    front = getattr(field, "front", None)
    starts, ends, normals = _region_edges(region)
    lengths = np.hypot(*(ends - starts).T)
    units = (ends - starts) / lengths[:, None]
    times = list(dict.fromkeys(t for t, _ in slices))  # shared by both orders
    if front is None:
        crossings = np.empty((len(times), 4, 0))
    else:
        _check_edges_off_front(front, region, times)
        crossings = front.crossings(
            np.tile(starts, (len(times), 1)), np.tile(ends, (len(times), 1)), np.repeat(times, 4)
        ).reshape(len(times), 4, -1)

    # the chunks of every time: (time, edge, start, end)
    chunks = []
    for i, time_crossings in enumerate(crossings):
        for k, n_chunks in enumerate(region.cells * 2):
            length = lengths[k]
            breaks = [j * length / n_chunks for j in range(n_chunks + 1)]
            breaks.extend(float(s) * length for s in time_crossings[k] if not math.isnan(s))
            breaks = sorted(set(breaks))
            for sa, sb in zip(breaks[:-1], breaks[1:]):
                if sb - sa > 1e-15 * length:
                    chunks.append((i, k, sa, sb))
    chunk_time, edge, span_a, span_b = (np.array(c) for c in zip(*chunks))
    chunk_t = np.array(times)[chunk_time]
    if front is None:
        sides = np.full(len(edge), _NONE)
    else:
        mids = 0.5 * (span_a + span_b)
        g_mid = front.value(_points3(
            starts[edge, 0] + mids * units[edge, 0],
            starts[edge, 1] + mids * units[edge, 1],
            chunk_t,
        ))
        sides = np.where(g_mid >= 0.0, _AHEAD, _BEHIND)

    plan, piece_normals = _Plan(), []
    for j, (t, order) in enumerate(slices):
        pick = np.flatnonzero(chunk_time == times.index(t))
        e = edge[pick]
        ss, ws = _interval_nodes(span_a[pick, None], span_b[pick, None], order)
        pts = starts[e, None, :] + ss[:, :, None] * units[e, None, :]
        plan.block(pts, ws, chunk_t[pick], sides[pick], j * 4 + e, np.zeros(len(e), dtype=int))
        piece_normals.append(normals[e])
    return _integrals(field, entries, plan, len(slices), 4, np.concatenate(piece_normals))


def boundary_flux_integral(field, law_key, region: Region, t: float, quad_order=None) -> float:
    """Outward flux of the law through the region boundary at time t."""
    entry = law(law_key)
    order = region.quad_order if quad_order is None else quad_order
    return _boundary_flux_integrals(field, (entry,), region, ((t, order),))[0, 0].item()


def _time_step(t: float, dt) -> float:
    """The central-difference step of a balance at time t."""
    if dt is None:
        dt = 1e-4 * (1.0 + abs(t))
    if isinstance(dt, bool) or not (
        isinstance(dt, (int, float)) and math.isfinite(dt) and dt > 0
    ):
        raise ValidationError(f"dt must be a positive finite number, got {dt!r}")
    return dt


def _report(entry, t, dt, now, plus, minus, plus_low, minus_low, flux, flux_low) -> BalanceReport:
    """The balance of one law at time t from its five density integrals
    (at t and t +- dt, and at t +- dt one order lower) and two fluxes."""
    deriv = (plus - minus) / (2.0 * dt)
    deriv_low = (plus_low - minus_low) / (2.0 * dt)
    return BalanceReport(
        law=entry,
        time=float(t),
        density_integral=now,
        flux_integral=flux,
        time_derivative=deriv,
        residual=deriv + flux,
        quadrature_error=abs(deriv - deriv_low) + abs(flux - flux_low),
    )


#: Times of a balance check planned and evaluated together.  Each time
#: adds five density slices, about 4 MB of arrays for fourteen laws across
#: a circle on the default grid, and planning eight times together was
#: only a few percent faster than two plans of four.
_TIMES_PER_PLAN = 4


def _balance_reports(field, law_keys, region: Region, times, dt=None) -> list[list[BalanceReport]]:
    """balance_residual for several laws at several times: one list of
    reports per time, one report per law.

    Up to _TIMES_PER_PLAN times are planned once and evaluated once: the
    density integrals at t and t +- dt of every time, at quad_order and
    (at t +- dt) quad_order - 2, are one plan and one jet pass, and so are
    the boundary fluxes at both orders of every time.  Every report equals
    the one balance_residual gives.
    """
    if len(times) > _TIMES_PER_PLAN:
        return [
            reports
            for k in range(0, len(times), _TIMES_PER_PLAN)
            for reports in _balance_reports(
                field, law_keys, region, times[k : k + _TIMES_PER_PLAN], dt
            )
        ]
    entries = [law(key) for key in law_keys]
    steps = [_time_step(t, dt) for t in times]
    order, low = region.quad_order, region.quad_order - 2
    # per time, the five density slices and the two flux slices in the
    # order _report takes them
    dens_slices = [
        s
        for t, h in zip(times, steps)
        for s in ((t, order), (t + h, order), (t - h, order), (t + h, low), (t - h, low))
    ]
    flux_slices = [(t, o) for t in times for o in (order, low)]
    dens, flux = _first_failure(
        lambda: (
            _density_integrals(field, entries, region, dens_slices).tolist(),
            _boundary_flux_integrals(field, entries, region, flux_slices).tolist(),
        ),
        # a time's integrals one at a time, as balance_residual takes them;
        # an error does not depend on the law
        lambda t: balance_residual(field, entries[0], region, t, dt),
        times,
    )
    return [
        [
            _report(entry, t, h, *d[5 * i : 5 * i + 5], *f[2 * i : 2 * i + 2])
            for entry, d, f in zip(entries, dens, flux)
        ]
        for i, (t, h) in enumerate(zip(times, steps))
    ]


def balance_residual(field, law_key, region: Region, t: float, dt=None) -> BalanceReport:
    """Evaluate d/dt(density integral) + boundary flux for one law.

    The time derivative is a central difference with step dt (default
    1e-4 * (1 + |t|)).  quadrature_error estimates the numerical error of
    the residual by repeating both integrals at quad_order - 2.
    """
    # One law at one time takes its seven integrals one slice at a time
    # through density_integral and boundary_flux_integral, so anything that
    # wraps those names sees each of them (the benchmark's tracer, whose
    # self-test counts five and two calls); _balance_reports plans a whole
    # check at once and gives the same reports.
    entry = law(law_key)
    dt = _time_step(t, dt)
    order, low = region.quad_order, region.quad_order - 2
    now = density_integral(field, entry, region, t, order)
    plus = density_integral(field, entry, region, t + dt, order)
    minus = density_integral(field, entry, region, t - dt, order)
    flux = boundary_flux_integral(field, entry, region, t, order)
    flux_low = boundary_flux_integral(field, entry, region, t, low)
    plus_low = density_integral(field, entry, region, t + dt, low)
    minus_low = density_integral(field, entry, region, t - dt, low)
    return _report(entry, t, dt, now, plus, minus, plus_low, minus_low, flux, flux_low)


def fundamental_balances(field, region: Region, t: float, dt=None) -> tuple[BalanceReport, BalanceReport]:
    """Balance reports for the two laws equivalent to the governing equations."""
    ((first, second),) = _balance_reports(field, (1, 14), region, (t,), dt)
    return first, second


def _front_arcs(region: Region, front, t) -> list[tuple[float, float]]:
    """Intervals (a, b) of the curve parameter of the time-t front that
    lie inside the region, between its closed-form crossings of the
    region edges (on a closed front, the last one wraps round to the
    first); none when the front does not meet the region."""
    lower = np.array([[region.x1_min, region.x2_min]])
    upper = np.array([[region.x1_max, region.x2_max]])
    low, high = front.value_range(lower, upper, t)
    if low[0] >= 0.0 or high[0] <= 0.0:
        return []
    starts, ends, _ = _region_edges(region)
    s = front.crossings(starts, ends, t)
    hits = starts[:, None, :] + s[:, :, None] * (ends - starts)[:, None, :]
    bounds = np.unique(front.curve_param(t, hits[~np.isnan(s)]))
    if front.period is not None:
        bounds = bounds if bounds.size else np.zeros(1)
        bounds = np.append(bounds, bounds[0] + front.period)
    mids, _ = front.curve(t, 0.5 * (bounds[:-1] + bounds[1:]))
    inside = ((mids >= lower) & (mids <= upper)).all(axis=1)
    return [(a, b) for a, b, keep in zip(bounds[:-1], bounds[1:], inside) if keep]


def _jump_integrand(field, entry, pts3, absolute):
    """C [Psi] - [P . n] at front points of shape (n, 3), or with
    ``absolute`` its one-sided magnitude sum: jumps._balance_jump_terms
    over the jump data of the points."""
    terms = [_balance_jump_terms(entry, fj, field.params) for fj in _front_jets(field, pts3)]
    return np.concatenate([term[1 if absolute else 0] for term in terms])


def front_segment_jump_integral(field, law_key, region: Region, t: float, absolute=False) -> float:
    """Line integral of C [Psi] - [P^a] n_a along the front inside the region.

    This is the independent oracle for the defect of a regional balance:
    when the law's jump condition fails on the front, the balance residual
    equals this integral.  With absolute=True the integrand is replaced by
    its one-sided magnitude sum, giving a scale for relative comparisons.

    Every kind of front takes one path: the front's curve is cut at its
    crossings of the region edges (_front_arcs), and each interval inside
    the region is integrated by Gauss-Legendre of order
    max(quad_order, 16) in the curve parameter, times the arc length per
    unit of it.  The balance checks are tested against this integral, so
    it keeps its own quadrature rather than the plan they share.
    """
    entry = law(law_key)
    front = getattr(field, "front", None)
    if front is None:
        raise ValidationError("field has no front; the jump integral is zero only trivially")
    _check_edges_off_front(front, region, [t])
    order = max(region.quad_order, 16)
    total = 0.0
    for a, b in _front_arcs(region, front, t):
        ss, ws = _interval_nodes(a, b, order)
        x, speed = front.curve(t, ss)
        vals = _jump_integrand(field, entry, _points3(x[:, 0], x[:, 1], t), absolute)
        total += float(np.dot(ws, vals)) * speed
    return total

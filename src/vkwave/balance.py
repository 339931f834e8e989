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
_TIMES_PER_PLAN of its times.  Its integrals are a grid of times x
orders: the densities at t +- dt of every time, and the boundary fluxes
at t, each at quad_order and at quad_order - 2.  The order moves the
Gauss nodes only; it never changes which boxes the front cuts.  A check
runs in three steps:

1. plan: the classes are made once per time and the pieces per order.
   _classify puts the boxes of every density time through one level
   loop together, each at its time, with one closed-form range of gamma
   and one of the normal per level for all of them, and finds the
   front's crossings of each graph box's faces; _plan_cells makes the
   pieces of each order from those classes.  _edge_chunks cuts the
   boundary edges of every time once, and each order adds one block of
   their chunks.  balance_residual, which takes its integrals one slice
   at a time, classifies t, t + dt and t - dt in one level loop, hands
   each slice its time's classes (_Cells.at), and cuts its edges at t
   once for both orders.  The plan is blocks of quadrature pieces
   (points, weights, a time, a side: ahead, behind or none, the cell or
   edge of the (order, time) slice the piece belongs to, and a rank);
2. evaluate: the jets are computed over the pieces of all slices in
   plan order, each point at its own time, one jet call per batch for
   both sides of the front, and every requested law's density or flux is
   taken from each jet batch; a batch's jets and its laws' rows together
   hold no more values than one batch of solutions._batch_size.  The
   density pass fills only the 7 slots per field the densities read
   (conservation._DENSITY_SLOTS) and builds densities only; the flux
   pass fills the 13 the fluxes read (conservation._ROW_SLOTS);
3. reduce: each block becomes piece sums in one vectorised sum, added
   per cell or edge in rank order (level by level: uncut boxes, then
   the pieces below the front, then those above) and plan order, and the
   cells or edges of each slice in turn, giving one total per law, order
   and time.  A cell's sum therefore does not depend on the rest of the
   region, nor a law's on the other laws, nor a slice's on the other
   slices: density_integral and boundary_flux_integral are the case of
   one time and one order and give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import jumps
from .conservation import _DENSITY_SLOTS, _ROW_SLOTS, density_flux
from .errors import (
    ValidationError, VkwaveError, _first_failure, _is_integer, _positive_number, _real,
)
from .jumps import _front_jets
from .params import LawId, Region, law
from .solutions import Side, _batch_size

@dataclass(frozen=True)
class BalanceReport:
    """Result of one regional balance evaluation.

    density_integral, the integral at t itself, is for library callers:
    no report row reads it, and a scenario's balance check does not
    compute it."""

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


def _integrals(field, entries, plan: _Plan, grid, n_owners, normals=None) -> np.ndarray:
    """Weighted sum of each law's density over each slice of the plan, or
    of P . n with one normal per piece, shape (laws, orders, times) for
    ``grid`` (orders, times); owner k of the slice at order j and time i
    is (j * times + i) * n_owners + k.

    The points of every slice are evaluated in plan order, each at its
    own time, one jet call per batch for both sides of the front (each
    point's side as the field's ``side`` mask), and every law is applied
    to each jet batch.  A density pass fills the jets of both fields in
    _DENSITY_SLOTS only and reads only densities; a flux pass fills them
    in _ROW_SLOTS.  A batch's jets hold 2 len(slots) values a point and
    its laws' rows, memoised on the jets, len(entries) more, so a batch
    takes as many points as keep both within the values of one
    _batch_size batch of one field's jets in those slots: larger
    transient arrays were handed back to the system after each pass and
    faulted in again for the next.
    Each block is reduced to piece sums in one vectorised sum; the
    piece sums are added up per owner in rank and plan order, and the
    owners of a slice in turn, so that a law's integral does not depend
    on the other laws, slices or cells."""
    counts = np.concatenate([np.full(len(w), w.shape[1]) for w in plan.weights])
    pts = np.empty((counts.sum(), 3))
    pts[:, :2] = np.concatenate(plan.points)
    pts[:, 2] = np.repeat(np.concatenate(plan.times), counts)
    sides = np.repeat(np.concatenate(plan.sides), counts)
    ahead = None if (sides == _NONE).all() else sides == _AHEAD
    if normals is not None:
        normals = np.repeat(normals, counts, axis=0)
    slots = _DENSITY_SLOTS if normals is None else _ROW_SLOTS
    fill = (slots, slots)
    size = max(1, _batch_size(fill) * len(slots) // (2 * len(slots) + len(entries)))
    vals = np.empty((len(entries), len(pts)))
    for start in range(0, len(pts), size):
        rows = slice(start, start + size)
        jet = field.jet(pts[rows], Side.AUTO if ahead is None else ahead[rows], fill)
        n = None if normals is None else normals[rows]
        for row, entry in zip(vals, entries):
            df = density_flux(entry, jet, field.params)
            if n is None:
                row[rows] = df.density
            else:
                row[rows] = df.flux.x1 * n[:, 0] + df.flux.x2 * n[:, 1]
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
    totals = np.zeros((len(entries), math.prod(grid) * n_owners))
    np.add.at(
        totals,
        (slice(None), np.concatenate(plan.owners)[in_order]),
        np.concatenate(sums, axis=1)[:, in_order],
    )
    return np.cumsum(totals.reshape(len(entries), *grid, n_owners), axis=-1)[..., -1]


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


class _Graphs(NamedTuple):
    """The outer intervals of the boxes on which the front is a graph, one
    row per interval: its ends on the box's outer axis (outer_a, outer_b),
    the box's height axis and its ends on that axis (height_a, height_b),
    each of shape (intervals, 1); then the sides of the box below and above
    the front, and the box's time, owner and rank."""

    outer_a: np.ndarray
    outer_b: np.ndarray
    axis: np.ndarray
    height_a: np.ndarray
    height_b: np.ndarray
    below: np.ndarray
    above: np.ndarray
    times: np.ndarray
    owners: np.ndarray
    ranks: np.ndarray


def _height_intervals(front, lower, upper, axis, rising, times, owners, ranks) -> _Graphs:
    """The outer intervals of boxes on which the front is a graph over the
    outer axis: d gamma/dx_h keeps one strict sign where the front meets
    each box at its time, along its height axis h (``axis``, per box),
    positive where ``rising``.

    A box's outer interval is split where the front crosses its faces
    x_h = const, so the height line through each outer node crosses the
    front at most once and its crossing moves smoothly between breaks.
    The breaks do not depend on the quadrature order.
    """
    rows = np.arange(len(ranks))
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
    return _Graphs(
        breaks[:, :-1][inside][:, None], breaks[:, 1:][inside][:, None],
        axis[box, None], ha[box, None], hb[box, None],
        np.where(rising[box], _BEHIND, _AHEAD), np.where(rising[box], _AHEAD, _BEHIND),
        times[box], owners[box], ranks[box],
    )


def _plan_heights(plan, front, graphs: _Graphs, orders, n_owners) -> None:
    """The pieces of the graph boxes' outer intervals at each of the
    orders, the box of owner k giving owner j * n_owners + k at order j.

    Each order places its outer nodes, the height line through each node
    is split at its crossing, and each side of every outer interval is one
    Gauss-Legendre piece.  A box's pieces below the front take its
    rank + 1, those above its rank + 2.
    """
    g = graphs
    for j, order in enumerate(orders):
        outer, w_outer = _interval_nodes(g.outer_a, g.outer_b, order)
        # every height line's crossing, as a fraction of (height_a, height_b)
        starts = _axis_points(outer, g.height_a, g.axis).reshape(-1, 2)
        ends = _axis_points(outer, g.height_b, g.axis).reshape(-1, 2)
        line_t = np.repeat(g.times, order)
        s = np.fmin.reduce(front.crossings(starts, ends, line_t), axis=1)
        missed = np.flatnonzero(np.isnan(s))
        if missed.size:
            # a line that misses the front lies wholly on one side: below
            # the front (s = 1) when its middle has the side of the lower part
            mids = 0.5 * (starts[missed] + ends[missed])
            value = front.value(_points3(mids[:, 0], mids[:, 1], line_t[missed]))
            lower_ahead = np.repeat(g.below == _AHEAD, order)[missed]
            s[missed] = np.where((value >= 0.0) == lower_ahead, 1.0, 0.0)
        cut = g.height_a + s.reshape(outer.shape) * (g.height_b - g.height_a)

        owners = g.owners + j * n_owners
        pieces = ((g.height_a, cut, g.below, g.ranks + 1), (cut, g.height_b, g.above, g.ranks + 2))
        for a, b, side, rank in pieces:
            inner, w_inner = _interval_nodes(a[:, :, None], b[:, :, None], order)
            weights = w_outer[:, :, None] * w_inner
            keep = (weights != 0.0).any(axis=(1, 2))
            pts = _axis_points(outer[keep, :, None], inner[keep], g.axis[keep, :, None])
            plan.block(pts, weights[keep], g.times[keep], side[keep], owners[keep], rank[keep])


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


class _Cells(NamedTuple):
    """The classes of a region's cells at some times, which do not depend
    on the quadrature order: the boxes the front does not cut (their lower
    and upper corners, time, side, owner and rank) and the outer intervals
    of the boxes on which it is a graph (None when there are none).
    Owner i * n_cells + k is cell k (in i-major order) at time i."""

    n_times: int
    n_cells: int
    uncut: tuple[np.ndarray, ...]
    graphs: _Graphs | None

    def at(self, i: int) -> _Cells:
        """The classes of time i alone, as _classify of that time gives
        them: a box keeps its level, and each level its boxes in order."""
        n = self.n_cells
        keep = self.uncut[4] // n == i
        lower, upper, times, sides, owners, ranks = (a[keep] for a in self.uncut)
        uncut = (lower, upper, times, sides, owners - i * n, ranks)
        graphs = self.graphs
        if graphs is not None:
            keep = graphs.owners // n == i
            graphs = _Graphs(*(a[keep] for a in graphs))
            graphs = graphs._replace(owners=graphs.owners - i * n) if keep.any() else None
        return _Cells(1, n, uncut, graphs)


def _classify(front, region: Region, times) -> _Cells:
    """Classify the region's cells at every time.

    The boxes of all times are classified level by level, each at its
    time.  At each level a closed-form range of gamma finds the boxes the
    front does not cut: each is one tensor piece on its side.  A cut box
    on which the front is a graph x_h = H(x_o) that Gauss-Legendre
    resolves (_graph_margin) goes to _height_intervals, along the axis
    with the larger margin; any other cut box is split into quadrants for
    the next level.  A straight front needs no split.  Neither the classes
    nor the front's crossings of the graph boxes' faces depend on the
    quadrature order, so one classification serves every order.
    """
    nx, ny = region.cells
    x_edges = np.linspace(region.x1_min, region.x1_max, nx + 1)
    y_edges = np.linspace(region.x2_min, region.x2_max, ny + 1)
    n_cells = nx * ny
    times = np.asarray(times, dtype=np.float64)
    owners = np.arange(len(times) * n_cells)
    # the corners of every time's cells, each time's in i-major order
    lower, upper = np.empty((len(owners), 2)), np.empty((len(owners), 2))
    for corner, edges in ((lower, slice(None, -1)), (upper, slice(1, None))):
        corner[:, 0] = np.tile(np.repeat(x_edges[edges], ny), len(times))
        corner[:, 1] = np.tile(y_edges[edges], nx * len(times))
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
    uncut = (lower, upper, times[owners // n_cells], sides, owners, ranks)
    graphs = None
    if graph_boxes:
        lower, upper, axis, rising, owners, ranks = map(np.concatenate, zip(*graph_boxes))
        if len(ranks):
            graphs = _height_intervals(
                front, lower, upper, axis, rising, times[owners // n_cells], owners, ranks
            )
    return _Cells(len(times), n_cells, uncut, graphs)


def _plan_cells(plan, front, cells: _Cells, orders) -> None:
    """Plan the pieces of classified cells at every order, owner
    (j * n_times + i) * n_cells + k being cell k at time i and order j.

    The classes are made once (_classify) and the pieces once per order
    from them, ranked so that each cell adds them level by level: its
    uncut boxes, then the pieces below the front, then those above.
    """
    n_owners = cells.n_times * cells.n_cells
    lower, upper, times, sides, owners, ranks = cells.uncut
    for j, order in enumerate(orders):
        _plan_boxes(plan, lower, upper, order, times, sides, owners + j * n_owners, ranks)
    if cells.graphs is not None:
        _plan_heights(plan, front, cells.graphs, orders, n_owners)


def _density_integrals(field, entries, cells: _Cells, orders) -> np.ndarray:
    """Integral of each law's density over classified cells at every time
    and order, shape (laws, orders, times): one plan and one jet
    evaluation."""
    plan = _Plan()
    _plan_cells(plan, getattr(field, "front", None), cells, orders)
    return _integrals(field, entries, plan, (len(orders), cells.n_times), cells.n_cells)


def _order(region: Region, quad_order) -> int:
    """The Gauss-Legendre order of a one-slice integral: the region's, or
    ``quad_order``, an integer (numpy's included; a bool is not) of at
    least 1."""
    if quad_order is None:
        return region.quad_order
    if not (_is_integer(quad_order) and quad_order >= 1):
        raise ValidationError(f"quad_order must be an integer of at least 1, got {quad_order!r}")
    return int(quad_order)


def density_integral(
    field, law_key, region: Region, t: float, quad_order=None, *, _classes=None
) -> float:
    """Integral of the law's density over the region at time t.

    ``_classes``, private, are the region's cells classified at t
    (_classify), for a caller that takes t at more than one order."""
    entry = law(law_key)
    t = _real("t", t)
    order = _order(region, quad_order)
    if _classes is None:
        _classes = _classify(getattr(field, "front", None), region, (t,))
    return _density_integrals(field, (entry,), _classes, (order,))[0, 0, 0].item()


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


class _Chunks(NamedTuple):
    """The chunks of a region's edges at some times, which do not depend on
    the quadrature order: per chunk its span (span_a, span_b) in arc length
    along its edge, its time, its side, its owner i * 4 + k for edge k at
    time i, and its edge's start point, unit tangent and outward normal."""

    n_times: int
    span_a: np.ndarray
    span_b: np.ndarray
    times: np.ndarray
    sides: np.ndarray
    owners: np.ndarray
    starts: np.ndarray
    units: np.ndarray
    normals: np.ndarray


def _edge_chunks(front, region: Region, times) -> _Chunks:
    """Cut the region's edges at every time, raising when an edge lies on
    the front (_check_edges_off_front).

    Each edge is cut into as many equal chunks as the region has cells
    along it, and chunks are split where the front crosses the edge at
    their time; a chunk's side is that of its middle."""
    starts, ends, normals = _region_edges(region)
    lengths = np.hypot(*(ends - starts).T)
    units = (ends - starts) / lengths[:, None]
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
    return _Chunks(
        len(times), span_a, span_b, chunk_t, sides, chunk_time * 4 + edge, starts[edge],
        units[edge], normals[edge],
    )


def _boundary_flux_integrals(field, entries, chunks: _Chunks, orders) -> np.ndarray:
    """Outward flux of each law through the cut region boundary at every
    time and order, shape (laws, orders, times): one plan and one jet
    evaluation.  The edges are cut once (_edge_chunks), and each order
    adds one block of the chunks of every time."""
    c = chunks
    plan = _Plan()
    for j, order in enumerate(orders):
        ss, ws = _interval_nodes(c.span_a[:, None], c.span_b[:, None], order)
        pts = c.starts[:, None, :] + ss[:, :, None] * c.units[:, None, :]
        owners = j * c.n_times * 4 + c.owners
        plan.block(pts, ws, c.times, c.sides, owners, np.zeros(len(owners), dtype=int))
    piece_normals = np.tile(c.normals, (len(orders), 1))
    return _integrals(field, entries, plan, (len(orders), c.n_times), 4, piece_normals)


def boundary_flux_integral(
    field, law_key, region: Region, t: float, quad_order=None, *, _chunks=None
) -> float:
    """Outward flux of the law through the region boundary at time t.

    ``_chunks``, private, are the region's edges cut at t (_edge_chunks),
    for a caller that takes t at more than one order."""
    entry = law(law_key)
    t = _real("t", t)
    order = _order(region, quad_order)
    if _chunks is None:
        _chunks = _edge_chunks(getattr(field, "front", None), region, (t,))
    return _boundary_flux_integrals(field, (entry,), _chunks, (order,))[0, 0, 0].item()


def _time_step(t: float, dt) -> float:
    """The central-difference step of a balance at time t."""
    if dt is None:
        dt = 1e-4 * (1.0 + abs(t))
    return _positive_number("dt", dt)


def _balance_arithmetic(dt, plus, minus, plus_low, minus_low, flux, flux_low):
    """The time derivative of a density integral, the balance residual and
    its quadrature error, from the densities at t +- dt (at quad_order, and
    one order lower) and the fluxes at both orders: floats, or arrays of
    them with the same bits per element."""
    deriv = (plus - minus) / (2.0 * dt)
    deriv_low = (plus_low - minus_low) / (2.0 * dt)
    return deriv, deriv + flux, abs(deriv - deriv_low) + abs(flux - flux_low)


#: Times of a balance check planned and evaluated together.  Each time
#: adds its densities at t +- dt at both orders, about 4 MB of arrays for
#: fourteen laws across a circle on the default grid, and planning eight
#: times together was only a few percent faster than two plans of four.
_TIMES_PER_PLAN = 4


def _balance_terms(field, law_keys, region: Region, times, dt):
    """The balances of several laws at several times as arrays of shape
    (laws, times): the time derivative of each law's density integral, its
    boundary flux, the residual and the quadrature error
    (_balance_arithmetic), each with the bits of balance_residual's.

    Up to _TIMES_PER_PLAN times are planned once and evaluated once: the
    density integrals at t +- dt of every time, at quad_order and
    quad_order - 2, are one plan and one jet pass, and so are the boundary
    fluxes at both orders of every time.  An error is the one
    balance_residual gives at the first time that fails.
    """
    entries = [law(key) for key in law_keys]
    front = getattr(field, "front", None)
    orders = (region.quad_order, region.quad_order - 2)
    parts = []
    for k in range(0, len(times), _TIMES_PER_PLAN):
        group = times[k : k + _TIMES_PER_PLAN]
        steps = [_time_step(t, dt) for t in group]
        dens_times = [s for t, h in zip(group, steps) for s in (t + h, t - h)]
        dens, flux = _first_failure(
            lambda: (
                _density_integrals(field, entries, _classify(front, region, dens_times), orders),
                _boundary_flux_integrals(
                    field, entries, _edge_chunks(front, region, group), orders
                ),
            ),
            # a time's integrals one at a time, as balance_residual takes
            # them; an error does not depend on the law
            lambda t: balance_residual(field, entries[0], region, t, dt),
            group,
        )
        plus, minus = dens[:, :, 0::2], dens[:, :, 1::2]
        deriv, residual, error = _balance_arithmetic(
            np.array(steps), plus[:, 0], minus[:, 0], plus[:, 1], minus[:, 1], flux[:, 0],
            flux[:, 1],
        )
        parts.append((deriv, flux[:, 0], residual, error))
    return tuple(np.concatenate(arrays, axis=1) for arrays in zip(*parts))


def balance_residual(field, law_key, region: Region, t: float, dt=None) -> BalanceReport:
    """Evaluate d/dt(density integral) + boundary flux for one law.

    The time derivative is a central difference with step dt (default
    1e-4 * (1 + |t|)).  quadrature_error estimates the numerical error of
    the residual by repeating both integrals at quad_order - 2.
    """
    # One law at one time takes its seven integrals one slice at a time
    # through density_integral and boundary_flux_integral, so anything that
    # wraps those names sees each of them (the benchmark's tracer, whose
    # self-test counts five and two calls); _balance_terms plans a whole
    # check at once and gives the same bits.  The three density times are
    # classified in one level loop and each slice is handed its time's
    # classes; the edges are cut once for both orders.  When that loop
    # raises, each integral classifies its own time, so the error is that
    # of the first integral that fails on its own, in the order t, t + dt,
    # t - dt, whatever the loop met first.
    entry = law(law_key)
    t = _real("t", t)
    dt = _time_step(t, dt)
    order, low = region.quad_order, region.quad_order - 2
    front = getattr(field, "front", None)
    try:
        cells = _classify(front, region, (t, t + dt, t - dt))
        now, later, earlier = (cells.at(i) for i in range(3))
    except VkwaveError:
        now = later = earlier = None
    value = density_integral(field, entry, region, t, order, _classes=now)
    plus = density_integral(field, entry, region, t + dt, order, _classes=later)
    minus = density_integral(field, entry, region, t - dt, order, _classes=earlier)
    edges = _edge_chunks(front, region, (t,))
    flux = boundary_flux_integral(field, entry, region, t, order, _chunks=edges)
    flux_low = boundary_flux_integral(field, entry, region, t, low, _chunks=edges)
    plus_low = density_integral(field, entry, region, t + dt, low, _classes=later)
    minus_low = density_integral(field, entry, region, t - dt, low, _classes=earlier)
    deriv, residual, error = _balance_arithmetic(
        dt, plus, minus, plus_low, minus_low, flux, flux_low
    )
    return BalanceReport(entry, t, value, flux, deriv, residual, error)


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


def front_segment_jump_integral(field, law_key, region: Region, t: float, absolute=False) -> float:
    """Line integral of C [Psi] - [P^a] n_a along the front inside the region.

    This is the independent oracle for the defect of a regional balance:
    when the law's jump condition fails on the front, the balance residual
    equals this integral.  With absolute=True the integrand is replaced by
    its one-sided magnitude sum, giving a scale for relative comparisons.
    The integrand is jumps.balance_jump_residual, or with absolute=True
    jumps.balance_jump_scale alone, on the jump records of the nodes
    (_front_jets, a jet batch at a time).

    Every kind of front takes one path: the front's curve is cut at its
    crossings of the region edges (_front_arcs), and each interval inside
    the region is integrated by Gauss-Legendre of order
    max(quad_order, 16) in the curve parameter, times the arc length per
    unit of it.  The balance checks are tested against this integral, so
    it keeps its own quadrature rather than the plan they share.
    """
    entry = law(law_key)
    t = _real("t", t)
    front = getattr(field, "front", None)
    if front is None:
        raise ValidationError("field has no front; the jump integral is zero only trivially")
    _check_edges_off_front(front, region, [t])
    order = max(region.quad_order, 16)
    integrand = jumps.balance_jump_scale if absolute else jumps.balance_jump_residual
    total = 0.0
    for a, b in _front_arcs(region, front, t):
        ss, ws = _interval_nodes(a, b, order)
        x, speed = front.curve(t, ss)
        records = _front_jets(field, _points3(x[:, 0], x[:, 1], t))
        vals = np.concatenate([integrand(entry, fj, field.params) for fj in records])
        total += float(np.dot(ws, vals)) * speed
    return total

"""Central-difference machinery: stencils, Richardson extrapolation, and a
full-jet reconstruction that serves as an independent oracle for the
analytic jet evaluators.

Stencil steps are scaled up for third and fourth derivatives: an order-m
central stencil amplifies rounding error like eps/h^m, so the step that
is optimal for first derivatives drowns fourth derivatives in noise.
The per-order multipliers below keep every slot's rounding error well
under the truncation error at the default base step.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .indexing import EXPONENTS, JET_SIZE
from .jets import FieldJet

#: offsets and weights of the O(h^2) central stencil per derivative order;
#: weights are divided by h**order at evaluation time.
STENCILS: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}

#: step multiplier applied to every axis of a slot, keyed by the slot's
#: total derivative order.
ORDER_STEP_SCALE: dict[int, float] = {0: 1.0, 1: 1.0, 2: 1.0, 3: 6.0, 4: 15.0}

#: batch evaluator type: points (N, 3) -> (w values (N,), phi values (N,))
ValueFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def central_difference(
    fn: Callable[[np.ndarray], np.ndarray],
    point: Sequence[float],
    orders: Sequence[int],
    steps: Sequence[float],
) -> np.ndarray:
    """O(h^2) tensor-product central difference of ``fn`` at ``point``.

    ``orders`` are the derivative orders along (x1, x2, x3) and ``steps``
    the per-axis step sizes.  ``fn`` maps an (N, 3) batch to (N,) values
    (or to (N, k) stacks, differentiated columnwise).
    """
    offs = []
    wts = []
    scale = 1.0
    for order, h in zip(orders, steps):
        if order not in STENCILS:
            raise ValidationError(f"unsupported derivative order {order}")
        o, w = STENCILS[order]
        offs.append(o)
        wts.append(w)
        scale *= float(h) ** order

    base = np.asarray(point, dtype=np.float64)
    step_arr = np.asarray(steps, dtype=np.float64)
    pts = np.array(
        [base + np.array(c, dtype=np.float64) * step_arr for c in product(*offs)]
    )
    # product(*wts) pairs elementwise with product(*offs)
    weights = np.array([float(np.prod(cw)) for cw in product(*wts)])
    values = np.asarray(fn(pts), dtype=np.float64)
    return np.tensordot(weights, values, axes=(0, 0)) / scale


def richardson(coarse, fine):
    """One Richardson level for O(h^2) estimates: (4 A(h/2) - A(h)) / 3."""
    return (4.0 * np.asarray(fine) - np.asarray(coarse)) / 3.0


def _check_step(h) -> None:
    """Reject a step that is not a positive finite number, a bool included."""
    if isinstance(h, bool) or not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise ValidationError(f"step h must be a positive finite number, got {h!r}")


def fd_jet_oracle(
    value_fn: ValueFn,
    point,
    h: float = 1e-3,
    use_richardson: bool = True,
) -> FieldJet:
    """Reconstruct the full 4-jet of (w, phi) from point values alone.

    ``value_fn`` must be evaluable on a small box around ``point`` (for
    piecewise fields, wrap one branch so the stencil never straddles the
    front).  Steps are h * ORDER_STEP_SCALE[total order] * (1 + |x_axis|)
    per axis, Richardson-extrapolated once by default.
    """
    _check_step(h)
    base = np.asarray(point, dtype=np.float64)
    if base.shape != (3,):
        raise ValidationError(f"point must be a 3-vector, got shape {base.shape}")

    w_out = np.empty(JET_SIZE)
    phi_out = np.empty(JET_SIZE)

    def stacked(pts: np.ndarray) -> np.ndarray:
        w_vals, phi_vals = value_fn(pts)
        return np.column_stack([w_vals, phi_vals])

    for q in range(JET_SIZE):
        orders = EXPONENTS[q]
        total = int(orders.sum())
        mult = ORDER_STEP_SCALE[total]
        steps = [h * mult * (1.0 + abs(float(base[ax]))) for ax in range(3)]

        est = central_difference(stacked, base, orders, steps)
        if use_richardson and total > 0:
            half = central_difference(stacked, base, orders, [s / 2.0 for s in steps])
            est = richardson(est, half)
        w_out[q], phi_out[q] = est

    return FieldJet(base, w_out, phi_out)


def field_value_fn(field, side=None) -> ValueFn:
    """Adapt a field object to the (w, phi) batch evaluator the oracle
    expects; pass ``side`` to pin one branch of a piecewise field."""

    def fn(pts: np.ndarray):
        jet = field.jet(pts) if side is None else field.jet(pts, side)
        return jet.w[..., 0], jet.phi[..., 0]

    return fn

"""Exact symbolic references for the tests, built with sympy.

Two references live here.

* Exact jets of the field families.  ``closed_form`` writes a field's w
  and phi in x1, x2, x3 with the field's own float constants taken
  exactly (``sp.Rational`` of a float is its binary value), and
  ``ExactJets`` differentiates them for all 35 slots and evaluates the
  derivatives with mpmath at 40 digits, so a reference slot is the exact
  slot of those constants to far below double precision.
  ``ulps_from_exact`` measures a fill against it.
* A jet of symbols.  ``symbol_jet`` holds sympy symbols in numpy object
  arrays, so the package's formula code, which reads ``jet.w[..., S]``,
  ``jet.phi[..., S]`` and ``jet.point[..., a]``, runs unchanged on it and
  returns the polynomials it computes.  ``total_derivative`` and
  ``euler_operator`` act on those polynomials in the jet coordinates.
"""

from __future__ import annotations

from types import SimpleNamespace

import mpmath
import numpy as np
import sympy as sp

from vkwave.indexing import (
    JET_SIZE, MULTI_INDICES, SHIFT, S11, S12, S22, S33, S1111, S1122, S2222, idx,
)
from vkwave.jets import FieldJet
from vkwave.solutions import AccelerationWave, PolynomialField, Side

X = sp.symbols("x1 x2 x3")


def _slot_symbols(name: str) -> tuple[sp.Symbol, ...]:
    """One symbol per jet slot, named by its subscripts: w, w1, ..., w3333."""
    return tuple(sp.Symbol(name + "".join(map(str, m))) for m in MULTI_INDICES)


#: Slot q of w and of phi.
W, PHI = _slot_symbols("w"), _slot_symbols("phi")

#: The plate constants as symbols, read by the formula code as p.D, p.Eh,
#: p.rho and p.nu.
PLATE = SimpleNamespace(**{name: sp.Symbol(name) for name in ("D", "Eh", "rho", "nu")})


def _bilaplacian(f):
    return f[S1111] + 2 * f[S1122] + f[S2222]


#: The left-hand sides of the two governing equations in jet coordinates,
#: as the solutions module states them.
R1 = (
    PLATE.D * _bilaplacian(W) - (W[S11] * PHI[S22] + W[S22] * PHI[S11] - 2 * W[S12] * PHI[S12])
    + PLATE.rho * W[S33]
)
R2 = _bilaplacian(PHI) / PLATE.Eh + (W[S11] * W[S22] - W[S12] * W[S12])


def exact(value: float) -> sp.Rational:
    """A float as the exact rational it holds."""
    return sp.Rational(float(value))


def symbol_jet() -> FieldJet:
    """A batch of one point whose point is (x1, x2, x3) and whose slot q of
    w and of phi is W[q] and PHI[q]; a fresh jet, so that no row built
    from another jet is shared with it."""

    def row(symbols):
        return np.array([symbols], dtype=object)

    return FieldJet._unchecked(row(X), row(W), row(PHI))


def expr(value) -> sp.Expr:
    """A formula's value at symbol_jet() as one sympy expression, its
    float constants (0.5, 2.0, ...) taken exactly."""
    e = sp.sympify(np.asarray(value, dtype=object).reshape(-1)[0])
    return e.xreplace({f: sp.Rational(f) for f in e.atoms(sp.Float)})


def total_derivative(e: sp.Expr, a: int) -> sp.Expr:
    """D_a e for a = 1, 2, 3: de/dx_a plus, for each slot symbol of e, de/du_q
    times the slot of d/dx_a u_q (indexing.SHIFT).  An order-4 slot has no
    derivative in a 4-jet: e holding one raises ValueError."""
    free = e.free_symbols
    out = sp.diff(e, X[a - 1])
    for symbols in (W, PHI):
        for q, symbol in enumerate(symbols):
            if symbol not in free:
                continue
            shifted = SHIFT[a - 1][q]
            if shifted == JET_SIZE:
                raise ValueError(f"{symbol} is an order-4 slot; its derivative is not in a 4-jet")
            out += sp.diff(e, symbol) * symbols[shifted]
    return out


def euler_operator(lagrangian: sp.Expr, symbols) -> sp.Expr:
    """E(L) = sum over the slots q of one field of (-D)_q dL/du_q, (-D)_q
    the total derivatives along the subscripts of slot q, each negated
    (P. J. Olver, Applications of Lie Groups to Differential Equations,
    1986, chapter 4)."""
    out = sp.Integer(0)
    for q, symbol in enumerate(symbols):
        term = sp.diff(lagrangian, symbol)
        if term == 0:
            continue
        for a in MULTI_INDICES[q]:
            term = -total_derivative(term, a)
        out += term
    return out


def closed_form(field) -> tuple[sp.Expr, sp.Expr]:
    """(w, phi) of an InvariantSolution or a PolynomialField in X, with the
    field's float constants taken exactly.  A traveling profile uses the
    solution's own omega, not c sqrt(rho / D) formed anew."""
    if isinstance(field, PolynomialField):
        def poly(terms):
            return sum(
                (exact(c) * X[0] ** i * X[1] ** j * X[2] ** k for (i, j, k), c in terms.items()),
                sp.Integer(0),
            )

        return poly(field.w), poly(field.phi)
    u, f = [exact(v) for v in field.u], [exact(v) for v in field.phi]
    xi = X[0] - exact(field.wave_speed) * X[2]
    phase = exact(field.omega) * xi
    w = u[0] + u[1] * xi + u[2] * sp.sin(phase) + u[3] * sp.cos(phase)
    return w, f[0] + f[1] * xi + f[2] * xi**2 + f[3] * xi**3


def wave_branches(wave: AccelerationWave) -> dict:
    """The closed forms of an acceleration wave's branches by side: ahead
    its profile, behind that profile plus c1 (1 - cos omega xi) in w and
    c2 xi^2 in phi, the perturbation the wave is defined by."""
    w, phi = closed_form(wave.ahead)
    xi = X[0] - exact(wave.wave_speed) * X[2]
    c1, c2 = exact(wave.c1), exact(wave.c2)
    behind = (w + c1 * (1 - sp.cos(exact(wave.omega) * xi)), phi + c2 * xi**2)
    return {Side.AHEAD: (w, phi), Side.BEHIND: behind}


class ExactJets:
    """The exact 4-jets of a closed form (w, phi) at points."""

    def __init__(self, w: sp.Expr, phi: sp.Expr) -> None:
        slots = []
        for f in (w, phi):
            # each slot the derivative of the slot without its last subscript
            jet = [f]
            for m in MULTI_INDICES[1:]:
                jet.append(sp.diff(jet[idx(*m[:-1])], X[m[-1] - 1]))
            slots += jet
        # no docstring: printing the slots for it cost more than the code
        self._slots = sp.lambdify(X, slots, modules="mpmath", cse=True, docstring_limit=0)

    def __call__(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(w, phi) jets of shape (..., 35) at points of shape (..., 3)."""
        pts = np.asarray(points, dtype=np.float64)
        with mpmath.workdps(40):
            values = [
                [float(mpmath.mpf(v)) for v in self._slots(*map(mpmath.mpf, point.tolist()))]
                for point in pts.reshape(-1, 3)
            ]
        out = np.array(values).reshape(pts.shape[:-1] + (2, JET_SIZE))
        return out[..., 0, :], out[..., 1, :]


def ulps_from_exact(jet: FieldJet, reference: tuple[np.ndarray, np.ndarray]) -> float:
    """The largest error of a full jet's slots from the exact (w, phi), in
    units of the spacing of the field's largest exact slot at its point."""
    worst = 0.0
    for got, want in zip((jet.w, jet.phi), reference):
        scale = np.spacing(np.max(np.abs(want), axis=-1, keepdims=True))
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    return worst

"""Exact solution families and piecewise fields glued along a front.

The governing system for the transverse deflection w and Airy stress
function phi (x3 = time, Delta = in-plane Laplacian) is

    D Delta^2 w - eps^{am} eps^{bn} w_{,ab} phi_{,mn} + rho w_{,33} = 0
    (1/Eh) Delta^2 phi + (1/2) eps^{am} eps^{bn} w_{,ab} w_{,mn} = 0.

Traveling profiles in xi = x1 - c x3 with omega = c sqrt(rho/D),

    w = u0 + u1 xi + u2 sin(omega xi) + u3 cos(omega xi)
    phi = p0 + p1 xi + p2 xi^2 + p3 xi^3,

satisfy both equations identically for any coefficients, which makes
them ideal carriers for discontinuity constructions: gluing two members
of the family along the moving line xi = 0 yields a field solving the
system on each side, with all jump content concentrated on the front.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._kernels import traveling_jet_fill
from .errors import SideRequiredError, ValidationError, _is_real, _real
from .indexing import EXPONENTS, JET_SIZE, S11, S12, S22, S33, S1111, S1122, S2222
from .jets import FieldJet
from .params import PlateParams
from .wavefront import Front, LineFront


class Side(enum.Enum):
    """Branch selector for piecewise fields."""

    AHEAD = "ahead"
    BEHIND = "behind"
    AUTO = "auto"


def _as_points(point) -> tuple[np.ndarray, np.ndarray, bool]:
    pts = np.asarray(point, dtype=np.float64)
    if pts.ndim == 0 or pts.shape[-1] != 3:
        raise ValidationError(f"point must have shape (..., 3), got {pts.shape}")
    single = pts.ndim == 1
    flat = np.ascontiguousarray(pts.reshape(-1, 3))
    return pts, flat, single


def _check_params(params) -> None:
    if not isinstance(params, PlateParams):
        raise ValidationError(f"params must be a PlateParams, got {type(params).__name__}")


def _coeff4(name: str, values) -> tuple[float, float, float, float]:
    vals = tuple(values)
    if len(vals) != 4:
        raise ValidationError(f"{name} must have exactly 4 coefficients, got {len(vals)}")
    if not all(_is_real(v) for v in vals):
        raise ValidationError(f"{name} coefficients must be real numbers, got {vals!r}")
    vals = tuple(float(v) for v in vals)
    if not all(math.isfinite(v) for v in vals):
        raise ValidationError(f"{name} coefficients must be finite, got {vals}")
    return vals


@dataclass(frozen=True, eq=False)
class InvariantSolution:
    """One traveling-profile solution; exact jets of every order <= 4.

    Requires a finite nonzero speed c; omega = c sqrt(rho/D) is derived
    from it and the plate.
    """

    u: tuple[float, float, float, float]
    phi: tuple[float, float, float, float]
    wave_speed: float
    params: PlateParams
    omega: float = field(init=False)

    front = None

    def __post_init__(self) -> None:
        c = self.wave_speed
        if not _is_real(c):
            raise ValidationError(f"wave speed c must be a real number, got {c!r}")
        c = float(c)
        if not math.isfinite(c) or c == 0.0:
            raise ValidationError(f"wave speed c must be finite and nonzero, got {c}")
        _check_params(self.params)
        omega = c * math.sqrt(self.params.rho / self.params.D)
        object.__setattr__(self, "u", _coeff4("u", self.u))
        object.__setattr__(self, "phi", _coeff4("phi", self.phi))
        object.__setattr__(self, "wave_speed", c)
        object.__setattr__(self, "omega", omega)

    def jet(self, point, side: Side = Side.AUTO, slots=None) -> FieldJet:
        pts, flat, single = _as_points(point)
        return _field_jet(pts, single, *self._jet_values(flat, slots), slots)

    def _jet_values(self, flat: np.ndarray, slots):
        """The w and phi arrays of the jets at ``flat``, as _jet_arrays
        lays them out."""
        out_w, out_phi = _jet_arrays(flat.shape[0], slots)
        traveling_jet_fill(
            np.asarray(self.u), np.asarray(self.phi), self.omega, self.wave_speed,
            flat, out_w, out_phi, slots,
        )
        return out_w, out_phi


#: The validating constructor under its historical name.
invariant_solution = InvariantSolution


@dataclass(frozen=True, eq=False)
class PolynomialField:
    """Polynomial (w, phi) in (x1, x2, x3) from {(i, j, k): coefficient}
    monomial maps, the key meaning coefficient * x1^i * x2^j * x3^k;
    exact jets by falling factorials.

    Keeps a read-only copy of each map, and derives from it the exponent
    and coefficient arrays of its terms.  Not generally a solution of the
    governing system; used to build synthetic fields with prescribed
    derivative content in tests and scenarios (the degree <= 1 w /
    harmonic phi subfamily is exact).
    """

    w: Mapping[tuple[int, int, int], float] | None
    phi: Mapping[tuple[int, int, int], float] | None
    params: PlateParams
    w_exponents: np.ndarray = field(init=False, repr=False)
    w_coefficients: np.ndarray = field(init=False, repr=False)
    phi_exponents: np.ndarray = field(init=False, repr=False)
    phi_coefficients: np.ndarray = field(init=False, repr=False)

    front = None

    def __post_init__(self) -> None:
        for name in ("w", "phi"):
            terms = _poly_terms(name, getattr(self, name))
            object.__setattr__(self, name, MappingProxyType(terms))
            exps = np.array(list(terms), dtype=np.int64).reshape(-1, 3)
            object.__setattr__(self, f"{name}_exponents", exps)
            coefs = np.array(list(terms.values()), dtype=np.float64)
            object.__setattr__(self, f"{name}_coefficients", coefs)
        _check_params(self.params)

    @functools.cached_property
    def _w_terms(self):
        return _slot_terms(self.w_exponents, self.w_coefficients)

    @functools.cached_property
    def _phi_terms(self):
        return _slot_terms(self.phi_exponents, self.phi_coefficients)

    def jet(self, point, side: Side = Side.AUTO, slots=None) -> FieldJet:
        pts, flat, single = _as_points(point)
        return _field_jet(pts, single, *self._jet_values(flat, slots), slots)

    def _jet_values(self, flat: np.ndarray, slots):
        """The w and phi arrays of the jets at ``flat``, laid out as
        _jet_arrays lays them out."""
        out_w, out_phi = _jet_arrays(flat.shape[0], slots)
        _eval_terms(self._w_terms, flat, out_w, slots)
        _eval_terms(self._phi_terms, flat, out_phi, slots)
        return out_w, out_phi


#: The validating constructor under its historical name.
polynomial_field = PolynomialField


def _jet_arrays(n: int, slots):
    """Uninitialised w and phi jet arrays of shape (n, len(slots)) for n
    points, column i for slot ``slots[i]``, or (n, 35) for every slot
    when ``slots`` is None.  The two are views of one slot-major
    (2, len(slots), n) block, row i of each holding slot ``slots[i]``, so
    that each slot is one contiguous run and both share one allocation:
    two separate blocks of a batch were each handed back to the system
    when freed and faulted in again for the next batch, which cost more
    than the fill."""
    return np.empty((2, JET_SIZE if slots is None else len(slots), n)).transpose(0, 2, 1)


def _field_jet(pts, single: bool, out_w, out_phi, slots) -> FieldJet:
    """The FieldJet of the arrays of _jet_arrays at ``pts``, reshaped to
    its batch shape: a full jet, or with ``slots`` one that holds those
    slots only."""
    if single:
        w, phi = out_w[0], out_phi[0]
    else:
        shape = pts.shape[:-1] + out_w.shape[-1:]
        w, phi = out_w.reshape(shape), out_phi.reshape(shape)
    return FieldJet._filled(pts, w, phi, slots)


def _slot_terms(exps: np.ndarray, coefs: np.ndarray):
    """By jet slot, for each slot with any nonzero term: each term's
    coefficient times its falling factorials, and each term's remaining
    powers as (axis, power) pairs."""
    terms = {}
    for q in range(JET_SIZE):
        slot = EXPONENTS[q]
        sel = np.all(exps >= slot, axis=1)
        if not sel.any():
            continue
        e = exps[sel]
        factors = coefs[sel].astype(np.float64).copy()
        powers = [[] for _ in range(e.shape[0])]
        for ax in range(3):
            s = int(slot[ax])
            for col, n in enumerate(e[:, ax]):
                n = int(n)
                factors[col] *= math.perm(n, s)
                if n - s > 0:
                    powers[col].append((ax, n - s))
        terms[q] = (factors, powers)
    return terms


def _eval_terms(terms, flat: np.ndarray, out: np.ndarray, slots) -> None:
    """Fill ``out`` (an array of _jet_arrays) with the jet slots of one
    polynomial at points of shape (N, 3): column i gets slot ``slots[i]``,
    every slot in order when ``slots`` is None."""
    # one fill for the slots with no term: a write per slot cost more
    # than the whole fill on a polynomial with few terms
    out.fill(0.0)
    for i, q in enumerate(range(JET_SIZE) if slots is None else slots):
        if q not in terms:
            continue
        acc = None
        factors, powers = terms[q]
        for factor, pw in zip(factors, powers):
            # monomial evaluation: the term's powers multiplied in axis order
            vals = np.ones(flat.shape[0])
            for ax, n in pw:
                vals *= flat[:, ax] ** n
            # term by term in a fixed order: a matrix-vector product rounds
            # differently with the number of points, and a point's jet must
            # not depend on the batch it is evaluated in
            acc = vals * factor if acc is None else acc + vals * factor
        out[:, i] = acc


def _poly_terms(name: str, terms: Mapping[tuple[int, int, int], float] | None) -> dict:
    """The monomial map ``terms`` with exponent triples of ints and float
    coefficients; raises for a key that is not 3 nonnegative integers and
    for a coefficient that is not a finite real number."""
    out = {}
    for key, value in (terms or {}).items():
        k = key if isinstance(key, tuple) else ()
        exponents = all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in k)
        if len(k) != 3 or not exponents or any(i < 0 for i in k):
            raise ValidationError(
                f"{name} monomial keys must be 3 nonnegative exponents, got {key!r}"
            )
        out[tuple(int(i) for i in k)] = _real(f"{name}[{key!r}]", value)
    return out


@dataclass(frozen=True, eq=False)
class PiecewiseField:
    """Two branch fields glued along a front: ahead where gamma > 0,
    behind where gamma < 0."""

    ahead: object
    behind: object
    front: Front
    params: PlateParams

    def __post_init__(self) -> None:
        if not isinstance(self.front, Front):
            raise ValidationError(f"front must be a Front, got {type(self.front).__name__}")
        _check_params(self.params)
        for name, branch in (("ahead", self.ahead), ("behind", self.behind)):
            if getattr(branch, "params", None) != self.params:
                raise ValidationError(f"{name} branch has different plate constants")

    def jet(self, point, side: Side = Side.AUTO, slots=None) -> FieldJet:
        """Jets of the ahead or behind branch, or with ``Side.AUTO`` of the
        branch the sign of gamma picks at each point; with ``slots``, jets
        filled in those slots only, as a branch's ``jet`` fills them.

        An AUTO batch of two traveling profiles with the same speed, and so
        the same omega (an acceleration wave, or one solution on both
        sides), takes one fill, with each point's coefficients chosen by
        its side; other branches fill their points separately.  Both give
        each point the jet its branch gives it.  Raises SideRequiredError
        where gamma is 0 and ValidationError where it is NaN.
        """
        if side is Side.AHEAD:
            return self.ahead.jet(point, slots=slots)
        if side is Side.BEHIND:
            return self.behind.jet(point, slots=slots)

        pts, flat, single = _as_points(point)
        g = np.asarray(self.front.value(flat), dtype=np.float64)
        if np.any(g == 0.0):
            raise SideRequiredError(
                "point lies exactly on the front; pass side=Side.AHEAD or Side.BEHIND"
            )
        undefined = np.flatnonzero(np.isnan(g))
        if undefined.size:
            raise ValidationError(
                f"front value is NaN at {tuple(flat[undefined[0]].tolist())}; "
                "the point has no side"
            )
        ahead_mask = g > 0
        out_w, out_phi = _jet_arrays(flat.shape[0], slots)
        a, b = self.ahead, self.behind
        if (
            isinstance(a, InvariantSolution)
            and isinstance(b, InvariantSolution)
            and a.wave_speed == b.wave_speed
        ):
            # a coefficient both branches hold to the bit stays one value;
            # the others are one value per point, its own branch's, all
            # gathered in one take of a (k, 2) table, column 1 ahead
            pairs = list(zip(b.u + b.phi, a.u + a.phi))
            coef = [x for _, x in pairs]
            differ = [i for i, (y, x) in enumerate(pairs) if float(y).hex() != float(x).hex()]
            if differ:
                table = np.array([pairs[i] for i in differ], dtype=np.float64)
                for i, row in zip(differ, table.take(ahead_mask.astype(np.intp), axis=1)):
                    coef[i] = row
            traveling_jet_fill(
                coef[:4], coef[4:], a.omega, a.wave_speed, flat, out_w, out_phi, slots
            )
        else:
            for branch, mask in ((a, ahead_mask), (b, ~ahead_mask)):
                if mask.any():
                    out_w[mask], out_phi[mask] = branch._jet_values(flat[mask], slots)
        return _field_jet(pts, single, out_w, out_phi, slots)


@dataclass(frozen=True, eq=False)
class AccelerationWave(PiecewiseField):
    """Traveling acceleration wave: ahead profile plus the perturbation

        u_behind = u_ahead + c1 (1 - cos omega xi),   xi < 0
        phi_behind = phi_ahead + c2 xi^2,             xi < 0

    glued along the moving line xi = x1 - c x3 = 0.  Both branches solve
    the governing system; across the front the field and its first
    derivatives are continuous while second derivatives jump with
    normal-normal amplitudes lambda = c1 omega^2 and mu = 2 c2.

    The behind branch, the front and the plate are derived from ``ahead``,
    c1 and c2; c1 must be nonzero so that the second time derivative of w
    actually jumps.
    """

    ahead: InvariantSolution
    c1: float
    c2: float
    behind: InvariantSolution = field(init=False)
    front: Front = field(init=False)
    params: PlateParams = field(init=False)

    def __post_init__(self) -> None:
        for name, value in (("c1", self.c1), ("c2", self.c2)):
            if not _is_real(value):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        c1, c2 = float(self.c1), float(self.c2)
        if not (math.isfinite(c1) and math.isfinite(c2)):
            raise ValidationError(f"c1 and c2 must be finite, got ({c1}, {c2})")
        if c1 == 0.0:
            raise ValidationError("c1 must be nonzero: [w_{,33}] = c1 omega^2 c^2 would vanish")
        ahead = self.ahead
        if not isinstance(ahead, InvariantSolution):
            raise ValidationError("ahead branch must be an InvariantSolution")
        u, p = ahead.u, ahead.phi
        behind = InvariantSolution(
            (u[0] + c1, u[1], u[2], u[3] - c1), (p[0], p[1], p[2] + c2, p[3]),
            ahead.wave_speed, ahead.params,
        )
        derived = {
            "c1": c1, "c2": c2, "behind": behind, "params": ahead.params,
            "front": LineFront(1.0, 0.0, -ahead.wave_speed, 0.0),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        super().__post_init__()

    @property
    def wave_speed(self) -> float:
        return self.ahead.wave_speed

    @property
    def omega(self) -> float:
        return self.ahead.omega

    @property
    def lambda_amplitude(self) -> float:
        return self.c1 * self.omega**2

    @property
    def mu_amplitude(self) -> float:
        return 2.0 * self.c2


#: The validating constructor under its historical name.
acceleration_wave = AccelerationWave


#: Points per jet call of full jets.  A full jet takes 560 bytes a point,
#: so a batch holds about 1 MB of jets; a jet filled in some slots only
#: stores those slots alone, and its batches take as many more points as
#: keep them at about 1 MB: 5,513 for a balance flux integral's 13 row
#: slots, 10,240 for a balance density integral's 7 density slots and for
#: a pde_residual check's 7.  A balance slice has thousands of
#: points; a sampled pde_residual check draws its points a batch at a
#: time, so it holds one batch whatever its sample count.
_BATCH_POINTS = 2048


def _batch_size(slots=None) -> int:
    """Points per jet batch: _BATCH_POINTS for full jets, or as many
    points of jets filled in ``slots`` only as hold _BATCH_POINTS * 35
    jet values per field."""
    return _BATCH_POINTS * JET_SIZE // (JET_SIZE if slots is None else len(slots))


def _jet_batches(field, points: np.ndarray, side: Side = Side.AUTO, slots=None):
    """Jets of ``points`` (shape (n, 3)) in consecutive batches of
    _batch_size(slots) points.  Yields (rows, jet), ``rows`` the slice of
    ``points`` the jet holds.  A caller deletes each jet before it asks
    for the next, so that one batch of jets is held at a time.  A sampled
    pde_residual check takes batches of the same size but draws each
    batch's points just before its jets, so that it never holds them all."""
    size = _batch_size(slots)
    for start in range(0, len(points), size):
        rows = slice(start, start + size)
        yield rows, field.jet(points[rows], side, slots)


#: The jet slots _pde_terms reads, the same for w and phi: a pde_residual
#: check fills only these.
_PDE_SLOTS = (S11, S12, S22, S33, S1111, S1122, S2222)


def _bilaplacian(f, out: np.ndarray) -> np.ndarray:
    """f_1111 + 2 f_1122 + f_2222 of one field's jet, formed in ``out``."""
    np.multiply(2.0, f[..., S1122], out=out)
    np.add(f[..., S1111], out, out=out)
    return np.add(out, f[..., S2222], out=out)


def _pde_terms(jet: FieldJet, p: PlateParams):
    """Residuals (r1, r2) and term scales (s1, s2) of the two governing
    equations at a jet, each term formed once for both:

        r1 = D bilap(w) - (w11 p22 + w22 p11 - 2 w12 p12) + rho w_33
        r2 = bilap(phi) / Eh + (w11 w22 - w12 w12)

    and s1, s2 the sums of the magnitudes of those terms.  Each is formed
    by the same operations in the same order as the plain expressions, but
    in ten arrays allocated here and rewritten in place, never in the jet,
    so that a batch makes ten arrays where the expressions made 37.  No two
    results share memory, nor any with the jet, so a caller may overwrite
    them; at a one-point jet they are numpy scalars."""
    w, phi = jet.w, jet.phi
    w11, w12, w22 = w[..., S11], w[..., S12], w[..., S22]
    p11, p12, p22 = phi[..., S11], phi[..., S12], phi[..., S22]
    shape = np.shape(w11)

    bending = _bilaplacian(w, np.empty(shape))
    np.multiply(p.D, bending, out=bending)
    w11_p22 = np.multiply(w11, p22, out=np.empty(shape))
    w22_p11 = np.multiply(w22, p11, out=np.empty(shape))
    inertia = np.multiply(p.rho, w[..., S33], out=np.empty(shape))
    membrane = _bilaplacian(phi, np.empty(shape))
    np.divide(membrane, p.Eh, out=membrane)
    w11_w22 = np.multiply(w11, w22, out=np.empty(shape))
    w12_w12 = np.multiply(w12, w12, out=np.empty(shape))

    # r1 = bending - (w11_p22 + w22_p11 - 2.0 * w12 * p12) + inertia
    r1 = np.add(w11_p22, w22_p11, out=np.empty(shape))
    w12_p12 = np.multiply(2.0, w12, out=np.empty(shape))
    np.subtract(r1, np.multiply(w12_p12, p12, out=w12_p12), out=r1)
    np.subtract(bending, r1, out=r1)
    np.add(r1, inertia, out=r1)
    # r2 = membrane + (w11_w22 - w12_w12)
    r2 = np.subtract(w11_w22, w12_w12, out=np.empty(shape))
    np.add(membrane, r2, out=r2)
    # s1 = |bending| + |w11_p22| + |w22_p11| + 2.0 * |w12 * p12| + |inertia|
    s1 = np.abs(bending, out=bending)
    np.add(s1, np.abs(w11_p22, out=w11_p22), out=s1)
    np.add(s1, np.abs(w22_p11, out=w22_p11), out=s1)
    np.abs(np.multiply(w12, p12, out=w12_p12), out=w12_p12)
    np.add(s1, np.multiply(2.0, w12_p12, out=w12_p12), out=s1)
    np.add(s1, np.abs(inertia, out=inertia), out=s1)
    # s2 = |membrane| + |w11_w22| + |w12_w12|
    s2 = np.abs(membrane, out=membrane)
    np.add(s2, np.abs(w11_w22, out=w11_w22), out=s2)
    np.add(s2, np.abs(w12_w12, out=w12_w12), out=s2)
    # [()] views a batch's whole array, and turns a 0-d one into its scalar
    return r1[()], r2[()], s1[()], s2[()]


def pde_residual(jet: FieldJet, p: PlateParams):
    """Left-hand sides of the two governing equations at a jet.

    Returns (r1, r2); both vanish identically on exact solutions.
    """
    return _pde_terms(jet, p)[:2]


def pde_term_scales(jet: FieldJet, p: PlateParams):
    """Sum of absolute term magnitudes for each equation, for relative
    residual comparisons."""
    return _pde_terms(jet, p)[2:]

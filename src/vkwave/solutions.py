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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._kernels import ZERO_SLOTS, read_coefficients, traveling_jet_fill
from .errors import SideRequiredError, ValidationError, _is_integer, _is_real, _real
from .indexing import EXPONENTS, JET_SIZE, S11, S12, S22, S33, S1111, S1122, S2222
from .jets import FieldJet, _as_point
from .params import PlateParams
from .wavefront import Front, LineFront


class Side(enum.Enum):
    """Branch selector for piecewise fields."""

    AHEAD = "ahead"
    BEHIND = "behind"
    AUTO = "auto"


def _as_points(point) -> tuple[np.ndarray, np.ndarray]:
    pts = _as_point(point)
    return pts, np.ascontiguousarray(pts.reshape(-1, 3))


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

    #: The slots that every profile makes identically zero, (w's, phi's):
    #: those with an x2 subscript, and for phi's cubic also those of order
    #: 4 in (x1, x3), as the fill defines them.
    _zero_slots = ZERO_SLOTS

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

    def jet(self, point, side: Side = Side.AUTO, slots=None, *, _block=None) -> FieldJet:
        pts, flat = _as_points(point)
        return FieldJet._filled(pts, *self._jet_values(flat, slots, _block), slots)

    def _jet_values(self, flat: np.ndarray, slots, block=None):
        """The w and phi arrays of the jets at ``flat``, as _jet_arrays
        lays them out, in ``block`` if given."""
        out_w, out_phi = _jet_arrays(flat.shape[0], slots, block)
        traveling_jet_fill(
            np.asarray(self.u), np.asarray(self.phi), self.omega, self.wave_speed,
            flat, out_w, out_phi, slots,
        )
        return out_w, out_phi

    def _write_rows(self, flat: np.ndarray, rows_w, rows_phi, slots, at) -> None:
        """Write the jets at ``flat`` into columns ``at`` of the slot-major
        rows of a block, (len(w's), n) and (len(phi's), n) for ``slots``
        (w's, phi's), slot row by slot row."""
        own_w, own_phi = self._jet_values(flat, slots)
        for rows, own in ((rows_w, own_w.T), (rows_phi, own_phi.T)):
            for row, values in zip(rows, own):
                row[at] = values


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

    @functools.cached_property
    def _zero_slots(self):
        """The slots of w and of phi that no term reaches, and so are zero."""
        return tuple(
            frozenset(range(JET_SIZE)).difference(terms) for terms in (self._w_terms, self._phi_terms)
        )

    def jet(self, point, side: Side = Side.AUTO, slots=None, *, _block=None) -> FieldJet:
        pts, flat = _as_points(point)
        return FieldJet._filled(pts, *self._jet_values(flat, slots, _block), slots)

    def _jet_values(self, flat: np.ndarray, slots, block=None):
        """The w and phi arrays of the jets at ``flat``, laid out as
        _jet_arrays lays them out, in ``block`` if given."""
        # one zeroed block for the slots with no term: a write per slot
        # cost more than the whole fill on a polynomial with few terms
        out_w, out_phi = _jet_arrays(flat.shape[0], slots, block, zeroed=True)
        self._write_rows(flat, out_w.T, out_phi.T, slots, slice(None))
        return out_w, out_phi

    def _write_rows(self, flat: np.ndarray, rows_w, rows_phi, slots, at) -> None:
        """Write the jets at ``flat`` into columns ``at`` of the slot-major
        rows of a zeroed block, as InvariantSolution._write_rows lays them
        out, only in the slots that have terms."""
        w_slots, phi_slots = (None, None) if slots is None else slots
        _eval_terms(self._w_terms, flat, rows_w, w_slots, at)
        _eval_terms(self._phi_terms, flat, rows_phi, phi_slots, at)


#: The validating constructor under its historical name.
polynomial_field = PolynomialField


def _jet_arrays(n: int, slots, block=None, zeroed: bool = False):
    """w and phi jet arrays for n points: with ``slots`` a pair (w's,
    phi's), w of shape (n, len(w's)), column i for slot ``w's[i]``, and
    phi likewise; (n, 35) each for every slot when ``slots`` is None.
    They are uninitialised, or zeros when ``zeroed``.  The two are views
    of one slot-major block of len(w's) + len(phi's) rows of n values,
    w's rows first, row i of each field holding its slot i, so that each
    slot is one contiguous run (a field's ``.T``) and both share one
    allocation: two separate blocks of a batch were each handed back to
    the system when freed and faulted in again for the next batch, which
    cost more than the fill.

    That block is a new array, or with ``block`` (a flat float64 array of
    at least (len(w's) + len(phi's)) n values) its leading values, so
    that a caller that fills batch after batch keeps one allocation;
    every jet of the earlier batch then holds the new batch's values, so
    such a caller reads each batch's jets before it fills the next."""
    k = JET_SIZE if slots is None else len(slots[0])
    shape = (2 * JET_SIZE if slots is None else k + len(slots[1]), n)
    if block is None:
        out = (np.zeros if zeroed else np.empty)(shape)
    else:
        out = block[: math.prod(shape)].reshape(shape)
        if zeroed:
            out.fill(0.0)
    return out[:k].T, out[k:].T


def _slot_terms(exps: np.ndarray, coefs: np.ndarray):
    """By jet slot, for each slot with any nonzero term: for each term the
    factors that the product of its remaining powers is multiplied by in
    turn, and those powers as (axis, power) pairs.  A term's one factor is
    its coefficient times its falling factorials; where that product
    overflows, though the term's value need not, its factors are the
    coefficient and then the falling factorials."""
    terms = {}
    for q in range(JET_SIZE):
        slot = EXPONENTS[q].tolist()
        factors, powers = [], []
        for e, coef in zip(exps.tolist(), coefs.tolist()):
            if any(n < s for n, s in zip(e, slot)):
                continue
            factor, falling = coef, 1
            for n, s in zip(e, slot):
                perm = math.perm(n, s)
                factor *= perm
                falling *= perm
            factors.append((factor,) if math.isfinite(factor) else (coef, float(falling)))
            powers.append([(ax, n - s) for ax, (n, s) in enumerate(zip(e, slot)) if n > s])
        if factors:
            terms[q] = (factors, powers)
    return terms


def _eval_terms(terms, flat: np.ndarray, rows: np.ndarray, slots, at) -> None:
    """Write the jet slots of one polynomial at points of shape (m, 3) into
    columns ``at`` (a slice or m indices) of the slot-major ``rows``: row i
    gets slot ``slots[i]`` of this field, every slot in order when
    ``slots`` is None.
    Only the slots with terms are written; the others keep their zeros."""
    for i, q in enumerate(range(JET_SIZE) if slots is None else slots):
        if q not in terms:
            continue
        acc = None
        for factors, pw in zip(*terms[q]):
            # monomial evaluation: the term's powers multiplied in axis order
            vals = np.ones(flat.shape[0])
            for ax, n in pw:
                vals *= flat[:, ax] ** n
            term = vals * factors[0]
            for factor in factors[1:]:
                term *= factor
            # term by term in a fixed order: a matrix-vector product rounds
            # differently with the number of points, and a point's jet must
            # not depend on the batch it is evaluated in
            acc = term if acc is None else acc + term
        rows[i, at] = acc


def _poly_terms(name: str, terms: Mapping[tuple[int, int, int], float] | None) -> dict:
    """The monomial map ``terms`` with exponent triples of ints and float
    coefficients; raises for a key that is not 3 nonnegative integers and
    for a coefficient that is not a finite real number."""
    out = {}
    for key, value in (terms or {}).items():
        k = key if isinstance(key, tuple) else ()
        if len(k) != 3 or not all(_is_integer(i) and i >= 0 for i in k):
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

    @functools.cached_property
    def _zero_slots(self):
        """The slots of w and of phi that both branches make identically
        zero; a branch that declares none has none."""
        a, b = (getattr(f, "_zero_slots", _NO_ZERO_SLOTS) for f in (self.ahead, self.behind))
        return (a[0] & b[0], a[1] & b[1])

    @functools.cached_property
    def _traveling_pair(self):
        """For two traveling branches of one speed, and so one omega, which
        one fill serves: the ahead branch's eight coefficients, u's and
        then phi's, the indices of those the behind branch does not hold
        to the bit, and a (8, 2) table of each coefficient's behind and
        ahead values.  None for other branches."""
        a, b = self.ahead, self.behind
        if not (
            isinstance(a, InvariantSolution)
            and isinstance(b, InvariantSolution)
            and a.wave_speed == b.wave_speed
        ):
            return None
        pairs = list(zip(b.u + b.phi, a.u + a.phi))
        differ = frozenset(i for i, (y, x) in enumerate(pairs) if float(y).hex() != float(x).hex())
        return a.u + a.phi, differ, np.array(pairs, dtype=np.float64)

    def jet(
        self, point, side: Side | np.ndarray = Side.AUTO, slots=None, *, _block=None
    ) -> FieldJet:
        """Jets of the ahead or behind branch, or of each point's own
        branch: with ``Side.AUTO`` the one the sign of gamma picks, and
        with a boolean array of the batch's shape for ``side`` the ahead
        branch where it is True and the behind branch elsewhere.  With
        ``slots``, jets filled in those slots only, as a branch's ``jet``
        fills them.  With ``_block``, a fill of each point's own branch
        goes into that block, as _jet_arrays lays a batch out in one; a
        one-branch ``side`` is that branch's ``jet`` as it is.

        A mixed batch of two traveling profiles with the same speed, and
        so the same omega (an acceleration wave, or one solution on both
        sides), takes one fill, with each point's coefficients chosen by
        its side: those the requested columns read and the branches do
        not hold to the bit are gathered per point.  Other branches write
        their own points into one zeroed slot-major block.  Both give each
        point the jet its branch gives it, but that the one fill may
        differ in the sign of a zero where a column is zero
        (traveling_jet_fill's trig rule).  With ``Side.AUTO``, raises
        SideRequiredError where gamma is 0 at some point, or else
        ValidationError where it is NaN, naming the first such point;
        raises ValidationError for a ``side`` array of another shape or
        dtype.
        """
        if side is Side.AHEAD:
            return self.ahead.jet(point, slots=slots)
        if side is Side.BEHIND:
            return self.behind.jet(point, slots=slots)

        pts, flat = _as_points(point)
        if side is Side.AUTO:
            g = np.asarray(self.front.value(flat), dtype=np.float64)
            ahead_mask = g > 0
            # a point of neither sign is on the front or at a NaN: look for
            # them only when the two counts miss a point
            if np.count_nonzero(ahead_mask) + np.count_nonzero(g < 0) < g.size:
                if np.any(g == 0.0):
                    raise SideRequiredError(
                        "point lies exactly on the front; pass side=Side.AHEAD or Side.BEHIND"
                    )
                undefined = np.flatnonzero(np.isnan(g))
                raise ValidationError(
                    f"front value is NaN at {tuple(flat[undefined[0]].tolist())}; "
                    "the point has no side"
                )
        else:
            mask = np.asarray(side)
            if mask.dtype != np.bool_ or mask.shape != pts.shape[:-1]:
                raise ValidationError(
                    "side must be a Side or a boolean array of the batch shape "
                    f"{pts.shape[:-1]}, got {mask.dtype} of shape {mask.shape}"
                )
            ahead_mask = mask.reshape(-1)
        if self._traveling_pair is not None:
            coef, differ, table = self._traveling_pair
            out_w, out_phi = _jet_arrays(flat.shape[0], slots, _block)
            # a coefficient both branches hold to the bit, or that no
            # requested column reads, stays one value; the others are one
            # value per point, its own branch's, all gathered in one take
            # of the table's rows, column 1 ahead
            gather = sorted(differ & read_coefficients(slots))
            if gather:
                coef = list(coef)
                for i, row in zip(gather, table[gather].take(ahead_mask.astype(np.intp), axis=1)):
                    coef[i] = row
            a = self.ahead
            traveling_jet_fill(
                coef[:4], coef[4:], a.omega, a.wave_speed, flat, out_w, out_phi, slots
            )
        else:
            # each branch writes its own points, slot row by slot row: a
            # masked write through the (n, k) views cost more than the fill
            out_w, out_phi = _jet_arrays(flat.shape[0], slots, _block, zeroed=True)
            for branch, mask in ((self.ahead, ahead_mask), (self.behind, ~ahead_mask)):
                at = np.flatnonzero(mask)
                if at.size:
                    branch._write_rows(flat[at], out_w.T, out_phi.T, slots, at)
        return FieldJet._filled(pts, out_w, out_phi, slots)


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
#: hold as many jet values (_batch_size).  A pde_residual check takes
#: batches of 10,240 points, the size for all 7 _PDE_SLOTS of both fields,
#: whatever it fills (_pde_batches says why).
_BATCH_POINTS = 2048


def _batch_size(slots=None) -> int:
    """Points per jet batch: _BATCH_POINTS for full jets, or as many
    points of jets filled in ``slots`` (w's, phi's) only as hold
    _BATCH_POINTS * 70 jet values of the two fields."""
    per_point = 2 * JET_SIZE if slots is None else len(slots[0]) + len(slots[1])
    return _BATCH_POINTS * 2 * JET_SIZE // per_point


def _jet_batches(field, points: np.ndarray, side: Side = Side.AUTO):
    """Full jets of ``points`` (shape (n, 3)) in consecutive batches of
    _BATCH_POINTS points.  Yields (rows, jet), ``rows`` the slice of
    ``points`` the jet holds.  A caller deletes each jet before it asks
    for the next, so that one batch of jets is held at a time."""
    for start in range(0, len(points), _BATCH_POINTS):
        rows = slice(start, start + _BATCH_POINTS)
        yield rows, field.jet(points[rows], side)


def _pde_batches(field, n: int, take):
    """The batches a pde_residual check reads at n points, as (rows, jet,
    zero) triples: ``rows`` the slice of the n points the jet holds, and
    ``zero`` the field's ``_zero_slots``, none for a field that declares
    none.  Each jet is filled in _pde_plan(zero)'s slots only (w_33 and
    w_1111 alone on the example wave), at the points take(start, stop)
    gives just before its fill, so that one batch is held at a time
    whatever n is; on an error the rest are taken and discarded, so that
    a take that draws from a generator leaves it where one draw of all n
    points would.

    Batches hold _batch_size of all 7 _PDE_SLOTS of both fields, 10,240
    points, whatever they fill, and every batch is filled into the front
    of one block allocated here with room for all of them: a new block for
    each batch was handed back to the system when freed and faulted in
    again for the next, and a block of the filled slots alone left glibc's
    trim threshold (twice the largest block it has mapped and then freed)
    below what a batch's temporaries free, which were then faulted in
    again on every batch.  The next batch overwrites the jets of the one
    before, so a caller reads each batch before it asks for the next and
    keeps nothing of it."""
    zero = getattr(field, "_zero_slots", _NO_ZERO_SLOTS)
    slots, size = _pde_plan(zero)[0], _batch_size((_PDE_SLOTS, _PDE_SLOTS))
    block = np.empty(2 * len(_PDE_SLOTS) * min(size, n))
    for start in range(0, n, size):
        pts = take(start, min(start + size, n))
        try:
            jet = field.jet(pts, Side.AUTO, slots, _block=block)
        except Exception:
            for rest in range(start + size, n, size):
                take(rest, min(rest + size, n))
            raise
        yield slice(start, start + len(pts)), jet, zero
        del pts, jet  # hold nothing of this batch while the next is taken


def _pde_scaled(_, batch, p):
    """The scaled residual |r| / max(1, s) of a batch of _pde_batches at
    each point, the larger of the two equations', formed in the rows
    _pde_rows returns: those of the equations with a term left, as an
    equation with none has zero scaled residuals, which change no
    maximum."""
    r, s = _pde_rows(batch[1], p, batch[2])
    np.divide(np.abs(r, out=r), np.maximum(1.0, s, out=s), out=r)
    return r[0] if len(r) == 1 else np.maximum(r[0], r[1], out=r[0])


#: The jet slots _pde_rows reads, the same for w and phi: a pde_residual
#: check fills at most these, and only those of them _pde_plan gives.
_PDE_SLOTS = (S11, S12, S22, S33, S1111, S1122, S2222)

#: The zero slots of a field that declares none: no slot of w or of phi is
#: taken to be identically zero.
_NO_ZERO_SLOTS = (frozenset(), frozenset())

#: The terms of the two governing equations, r1's and then r2's, each
#: equation's in the order its scale adds their magnitudes, and each term
#: a sum of products of (field, slot) factors, field 0 for w and 1 for
#: phi: a bilaplacian is one term of three products.
_PDE_EQUATIONS = (
    (
        (((0, S1111),), ((0, S1122),), ((0, S2222),)),
        (((0, S11), (1, S22)),),
        (((0, S22), (1, S11)),),
        (((0, S12), (1, S12)),),
        (((0, S33),),),
    ),
    (
        (((1, S1111),), ((1, S1122),), ((1, S2222),)),
        (((0, S11), (0, S22)),),
        (((0, S12), (0, S12)),),
    ),
)


@functools.lru_cache(maxsize=64)
def _pde_plan(zero):
    """What the pde terms of a field whose identically zero slots are
    ``zero``, a pair of frozensets, read and form: the fill's pair (w's,
    phi's), each field's slots in _PDE_SLOTS order, and the number of
    terms left in each equation.  A product is left when none of its
    factors is such a slot, a term when any of its products is, and the
    fill holds every factor of the products left: so w11 only when it is
    not zero and phi22 or w22 is not either, and phi33 never."""
    kept = [
        [[pr for pr in term if all(q not in zero[f] for f, q in pr)] for term in terms]
        for terms in _PDE_EQUATIONS
    ]
    read = {factor for terms in kept for term in terms for pr in term for factor in pr}
    slots = tuple(tuple(q for q in _PDE_SLOTS if (f, q) in read) for f in (0, 1))
    return slots, tuple(sum(map(bool, terms)) for terms in kept)


def _add(x, y, out: np.ndarray):
    """x + y formed in ``out``, None standing for an identically zero term:
    the other term itself when one is None, and None when both are."""
    if x is None or y is None:
        return y if x is None else x
    return np.add(x, y, out=out)


def _subtract(x, y, out: np.ndarray):
    """x - y as _add forms x + y, and -y formed in ``out`` when x is None."""
    if y is None:
        return x
    if x is None:
        return np.negative(y, out=out)
    return np.subtract(x, y, out=out)


def _hold(x, out: np.ndarray) -> None:
    """Make ``out`` hold x, a sum of _add and _subtract: zeros for None,
    and a copy of a term that is its own row."""
    if x is None:
        out.fill(0.0)
    elif x is not out:
        np.copyto(out, x)


def _product(x, y, rows):
    """x * y formed in the next of ``rows``; None, taking no row, when
    either factor is None."""
    if x is None or y is None:
        return None
    return np.multiply(x, y, out=next(rows))


def _bilaplacian(f1111, f1122, f2222, scale, by, rows):
    """scale(f_1111 + 2 f_1122 + f_2222, by) of one field's jet, its None
    slots left out of the sum, formed in the next of ``rows``; None, taking
    no row, when all three are None."""
    if f1111 is None and f1122 is None and f2222 is None:
        return None
    out = next(rows)
    # x + x is 2.0 * x to the bit, without the call converting a float
    twice = None if f1122 is None else np.add(f1122, f1122, out=out)
    return scale(_add(_add(f1111, twice, out), f2222, out), by, out=out)


def _pde_rows(jet: FieldJet, p: PlateParams, zero=_NO_ZERO_SLOTS):
    """The results of pde_residual and pde_term_scales as the rows of two
    arrays, residuals and term scales, of shape (k,) + the batch shape, or
    (k, 1) at one point, for the k equations that have a term left: (r1,
    r2) and (s1, s2), or one of each, or r1's and s1's zeros when neither
    has a term left.

    ``zero`` holds the slots of w and of phi that the field makes
    identically zero (its ``_zero_slots``).  Every product with such a
    slot as a factor is left out of its sum, and a sum with no term left
    is zeros; only the slots of _pde_plan's fill are read.  An exact zero
    added or subtracted leaves a sum's value as it is, so the results are
    the numbers of the full sums, though a zero may differ in sign."""
    ((rw, rp), left), w, phi = _pde_plan(zero), jet.w, jet.phi
    w11, w12, w22, w33, w1111, w1122, w2222 = (w[..., q] if q in rw else None for q in _PDE_SLOTS)
    p11, p12, p22, p1111, p1122, p2222 = (
        phi[..., q] if q in rp else None for q in (S11, S12, S22, S1111, S1122, S2222)
    )
    # one array: the four results, then a row for each term left, in the
    # order the scales add them, s1's and then s2's
    block = np.empty((4 + left[0] + left[1],) + (jet.point.shape[:-1] or (1,)))
    r1, r2, s1, s2, *rows = block
    rows = iter(rows)

    bending = _bilaplacian(w1111, w1122, w2222, np.multiply, p.D, rows)
    w11_p22 = _product(w11, p22, rows)
    w22_p11 = _product(w22, p11, rows)
    w12_p12 = None
    if w12 is not None and p12 is not None:
        # (2.0 * w12) * p12, as the expression groups it
        w12_p12 = np.add(w12, w12, out=next(rows))
        np.multiply(w12_p12, p12, out=w12_p12)
    inertia = _product(p.rho, w33, rows)
    membrane = _bilaplacian(p1111, p1122, p2222, np.divide, p.Eh, rows)
    w11_w22 = _product(w11, w22, rows)
    w12_w12 = _product(w12, w12, rows)

    # r1 = bending - (w11_p22 + w22_p11 - 2.0 * w12 * p12) + inertia
    coupling = _subtract(_add(w11_p22, w22_p11, r1), w12_p12, r1)
    _hold(_add(_subtract(bending, coupling, r1), inertia, r1), r1)
    # r2 = membrane + (w11_w22 - w12_w12)
    _hold(_add(membrane, _subtract(w11_w22, w12_w12, r2), r2), r2)
    # s1 = |bending| + |w11_p22| + |w22_p11| + 2.0 * |w12 * p12| + |inertia|
    # s2 = |membrane| + |w11_w22| + |w12_w12|
    if w12_p12 is not None:
        # 2.0 * (w12 * p12), whose magnitude is 2.0 * |w12 * p12| exactly
        np.multiply(w12, p12, out=w12_p12)
        np.add(w12_p12, w12_p12, out=w12_p12)
    terms = block[4:]
    np.abs(terms, out=terms)
    # numpy reduces fewer than eight rows over the first axis by adding
    # them in order, one after another, as the sums are written; no rows
    # give zeros
    np.add.reduce(terms[: left[0]], axis=0, out=s1)
    np.add.reduce(terms[left[0] :], axis=0, out=s2)
    # r1 and r2, or the one with a term left, or r1's zeros for neither
    live = slice(0 if left[0] or not left[1] else 1, 2 if left[1] else 1)
    return block[live], block[2:4][live]


def pde_residual(jet: FieldJet, p: PlateParams):
    """Left-hand sides (r1, r2) of the two governing equations at a jet:

        r1 = D bilap(w) - (w11 p22 + w22 p11 - 2 w12 p12) + rho w_33
        r2 = bilap(phi) / Eh + (w11 w22 - w12 w12)

    Both vanish identically on exact solutions.  They are the residual
    rows of _pde_rows, formed by the same operations in the same order as
    the plain expressions, in one array allocated per call and never in
    the jet, so a caller may overwrite them; at a one-point jet they are
    numpy scalars.
    """
    r1, r2 = _pde_rows(jet, p)[0].reshape((2,) + jet.point.shape[:-1])
    return r1, r2


def pde_term_scales(jet: FieldJet, p: PlateParams):
    """Sum of absolute term magnitudes (s1, s2) for each equation of
    pde_residual, for relative residual comparisons: the scale rows of
    _pde_rows, shaped and owned as pde_residual's are."""
    s1, s2 = _pde_rows(jet, p)[1].reshape((2,) + jet.point.shape[:-1])
    return s1, s2

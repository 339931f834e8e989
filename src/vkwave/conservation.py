"""The fourteen conservation laws of the dynamic von Karman plate.

Each law is a pair (density Psi, flux P = (P1, P2)) built from a field
jet such that d Psi/dx3 + dP1/dx1 + dP2/dx2 = 0 on smooth solutions.
The rows correspond to the variational symmetries of the system: shifts
of w and phi, space and time translations, rotation, scaling, rigid
rotations of the deflection, Galilean boosts, and their moments.

Each row has two halves, the density and the flux, built apart: the
densities read 7 jet slots per field (_DENSITY_SLOTS) and no flux
tensor, the fluxes 13 (_ROW_SLOTS).  Composite rows (scaling, rotation
moment, boost moments) are assembled half by half from the halves of
the constituent rows, so the structural identities between rows hold
exactly by construction.  A jet keeps every half and shared tensor
built from it, so each is built once per jet however many laws use it,
and density_flux returns a view that builds a half only when it is read.

The conservation check takes the divergence d3 Psi + d1 P1 + d2 P2
exactly, from the jets it already fills: the rows read no slot above
order 3, so d/dx_a of a row is a complex step through the unchanged row
code, on a complex jet built from the 4-jet (_exact_divergence).  Every
law shares one complex jet per jet batch, and its rows.  The
finite-difference conservation_divergence, at one point, is the
reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrontProximityError, ValidationError
from .fdtools import _check_step, richardson
from .indexing import (
    JET_SIZE, S0, S1, S2, S3, S11, S12, S13, S22, S23, S111, S112, S122, S222, SHIFT,
)
from .jets import FieldJet
from .params import PlateParams
from .tensors import (
    Vector2,
    f_vector,
    g_tensor,
    kinetic_energy_density,
    lagrangian_density,
    moment_tensor,
    shear_force,
    strain_energy_density,
)
from .wavefront import _front_distance


@dataclass(frozen=True)
class LawId:
    """One row of the conservation-law table: stable index and name."""

    index: int
    name: str


LAWS: tuple[LawId, ...] = (
    LawId(1, "transversal_linear_momentum"),
    LawId(2, "wave_momentum_x1"),
    LawId(3, "wave_momentum_x2"),
    LawId(4, "energy"),
    LawId(5, "scaling"),
    LawId(6, "moment_of_wave_momentum"),
    LawId(7, "angular_momentum_x1"),
    LawId(8, "angular_momentum_x2"),
    LawId(9, "center_of_mass"),
    LawId(10, "galilean_moment_x1"),
    LawId(11, "galilean_moment_x2"),
    LawId(12, "phi_linear_x1"),
    LawId(13, "phi_linear_x2"),
    LawId(14, "compatibility"),
)

_BY_INDEX = {law.index: law for law in LAWS}
_BY_NAME = {law.name: law for law in LAWS}


def law(key) -> LawId:
    """Resolve an index, name, or LawId to the registry entry."""
    if isinstance(key, LawId):
        if _BY_INDEX.get(key.index) != key:
            raise ValidationError(f"unknown law {key!r}")
        return key
    if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
        try:
            return _BY_INDEX[int(key)]
        except KeyError:
            raise ValidationError(
                f"law index must be 1..14, got {key}"
            ) from None
    if isinstance(key, str):
        try:
            return _BY_NAME[key]
        except KeyError:
            raise ValidationError(
                f"unknown law name {key!r}; valid names: {', '.join(sorted(_BY_NAME))}"
            ) from None
    raise ValidationError(f"law must be an index, name, or LawId, got {key!r}")


class DensityFlux:
    """Density and in-plane flux of one law at a jet (or jet batch).

    A view of the law's two halves: each is built the first time it is
    read, once per jet and plate constants, so a pass that reads only
    densities builds no flux and none of the tensors only fluxes share.
    The view holds its jet, and so keeps the jet's arrays alive.
    """

    __slots__ = ("_index", "_jet", "_p")

    def __init__(self, index: int, jet: FieldJet, p: PlateParams) -> None:
        self._index, self._jet, self._p = index, jet, p

    @property
    def density(self) -> float | np.ndarray:
        """Psi."""
        return _density(self._index, self._jet, self._p)

    @property
    def flux(self) -> Vector2:
        """P = (P1, P2)."""
        return _flux(self._index, self._jet, self._p)


def _tensor(fn, jet: FieldJet, p: PlateParams):
    """fn(jet, p) for a formula of the tensors module, built once per jet."""
    return jet._derived(fn.__name__, fn, p)


def _density(index: int, jet: FieldJet, p: PlateParams):
    """Psi of law ``index``, built once per jet, so that a composite law
    reuses the densities of the laws it is built from."""
    return jet._derived(("density", index), _DENSITIES[index], p)


def _flux(index: int, jet: FieldJet, p: PlateParams) -> Vector2:
    """P of law ``index``, built once per jet, so that a composite law
    reuses the fluxes of the laws it is built from."""
    return jet._derived(("flux", index), _FLUXES[index], p)


#: Slots of f_{,b}, f_{,b1} and f_{,b2} for the in-plane direction b.
_BETA_SLOTS = {1: (S1, S11, S12), 2: (S2, S12, S22)}


def _no_density(jet: FieldJet, p: PlateParams):
    """The zero density of laws 12 to 14."""
    x3 = jet.point[..., 2]
    return np.zeros_like(x3) if isinstance(x3, np.ndarray) else 0.0


#: Psi of each law.  Law 5 combines the densities of laws 2 to 4, law 6
#: those of laws 2 and 3, and laws 10 and 11 that of law 9.
_DENSITIES = {
    1: lambda jet, p: p.rho * jet.w[..., S3],
    2: lambda jet, p: -p.rho * jet.w[..., S1] * jet.w[..., S3],
    3: lambda jet, p: -p.rho * jet.w[..., S2] * jet.w[..., S3],
    4: lambda jet, p: _tensor(kinetic_energy_density, jet, p) + _tensor(strain_energy_density, jet, p),
    5: lambda jet, p: (
        jet.point[..., 0] * _density(2, jet, p) + jet.point[..., 1] * _density(3, jet, p)
        - 2.0 * jet.point[..., 2] * _density(4, jet, p)
    ),
    6: lambda jet, p: jet.point[..., 1] * _density(2, jet, p) - jet.point[..., 0] * _density(3, jet, p),
    7: lambda jet, p: p.rho * jet.point[..., 0] * jet.w[..., S3],
    8: lambda jet, p: p.rho * jet.point[..., 1] * jet.w[..., S3],
    9: lambda jet, p: p.rho * (jet.point[..., 2] * jet.w[..., S3] - jet.w[..., S0]),
    10: lambda jet, p: jet.point[..., 0] * _density(9, jet, p),
    11: lambda jet, p: jet.point[..., 1] * _density(9, jet, p),
    12: _no_density,
    13: _no_density,
    14: _no_density,
}

#: The jet slots the densities and the tensors they share read, the same
#: for w and phi: a balance's density integrals fill only these.
_DENSITY_SLOTS = (S0, S1, S2, S3, S11, S12, S22)


def _flux_1(jet: FieldJet, p: PlateParams) -> Vector2:
    q = _tensor(shear_force, jet, p)
    return Vector2(-q.x1, -q.x2)


def _flux_translation(beta: int, jet: FieldJet, p: PlateParams) -> Vector2:
    """Laws 2 and 3: in-plane translation along x^beta."""
    lag = _tensor(lagrangian_density, jet, p)
    q = _tensor(shear_force, jet, p)
    f = _tensor(f_vector, jet, p)
    m = _tensor(moment_tensor, jet, p)
    g = _tensor(g_tensor, jet, p)
    sb, sb1, sb2 = _BETA_SLOTS[beta]
    wb, phib = jet.w[..., sb], jet.phi[..., sb]
    wb1, wb2 = jet.w[..., sb1], jet.w[..., sb2]
    phib1, phib2 = jet.phi[..., sb1], jet.phi[..., sb2]

    p1 = (lag if beta == 1 else 0.0) + wb * q.x1 + phib * f.x1 \
        - (wb1 * m.c11 + wb2 * m.c12) - (phib1 * g.c11 + phib2 * g.c12)
    p2 = (lag if beta == 2 else 0.0) + wb * q.x2 + phib * f.x2 \
        - (wb1 * m.c12 + wb2 * m.c22) - (phib1 * g.c12 + phib2 * g.c22)
    return Vector2(p1, p2)


def _flux_4(jet: FieldJet, p: PlateParams) -> Vector2:
    q = _tensor(shear_force, jet, p)
    f = _tensor(f_vector, jet, p)
    m = _tensor(moment_tensor, jet, p)
    g = _tensor(g_tensor, jet, p)
    w3, phi3 = jet.w[..., S3], jet.phi[..., S3]
    w31, w32 = jet.w[..., S13], jet.w[..., S23]
    phi31, phi32 = jet.phi[..., S13], jet.phi[..., S23]

    p1 = -w3 * q.x1 - phi3 * f.x1 + w31 * m.c11 + w32 * m.c12 \
        + phi31 * g.c11 + phi32 * g.c12
    p2 = -w3 * q.x2 - phi3 * f.x2 + w31 * m.c12 + w32 * m.c22 \
        + phi31 * g.c12 + phi32 * g.c22
    return Vector2(p1, p2)


def _flux_5(jet: FieldJet, p: PlateParams) -> Vector2:
    x1, x2, x3 = (jet.point[..., i] for i in range(3))
    flux2, flux3, flux4 = (_flux(k, jet, p) for k in (2, 3, 4))
    m = _tensor(moment_tensor, jet, p)
    g = _tensor(g_tensor, jet, p)
    w1, w2 = jet.w[..., S1], jet.w[..., S2]
    phi1, phi2 = jet.phi[..., S1], jet.phi[..., S2]

    p1 = x1 * flux2.x1 + x2 * flux3.x1 - 2.0 * x3 * flux4.x1 \
        - (w1 * m.c11 + w2 * m.c12) - (phi1 * g.c11 + phi2 * g.c12)
    p2 = x1 * flux2.x2 + x2 * flux3.x2 - 2.0 * x3 * flux4.x2 \
        - (w1 * m.c12 + w2 * m.c22) - (phi1 * g.c12 + phi2 * g.c22)
    return Vector2(p1, p2)


def _flux_6(jet: FieldJet, p: PlateParams) -> Vector2:
    x1, x2 = jet.point[..., 0], jet.point[..., 1]
    flux2, flux3 = _flux(2, jet, p), _flux(3, jet, p)
    m = _tensor(moment_tensor, jet, p)
    g = _tensor(g_tensor, jet, p)
    w1, w2 = jet.w[..., S1], jet.w[..., S2]
    phi1, phi2 = jet.phi[..., S1], jet.phi[..., S2]

    # eps_n^{ m} w_{,m} M^{an} expands to w_2 M^{a1} - w_1 M^{a2}
    return Vector2(
        x2 * flux2.x1 - x1 * flux3.x1 + w2 * m.c11 - w1 * m.c12 + phi2 * g.c11 - phi1 * g.c12,
        x2 * flux2.x2 - x1 * flux3.x2 + w2 * m.c12 - w1 * m.c22 + phi2 * g.c12 - phi1 * g.c22,
    )


def _flux_7(jet: FieldJet, p: PlateParams) -> Vector2:
    x1 = jet.point[..., 0]
    q = _tensor(shear_force, jet, p)
    m = _tensor(moment_tensor, jet, p)
    w = jet.w[..., S0]
    return Vector2(
        m.c11 - x1 * q.x1 + w * jet.phi[..., S22],
        m.c12 - x1 * q.x2 - w * jet.phi[..., S12],
    )


def _flux_8(jet: FieldJet, p: PlateParams) -> Vector2:
    x2 = jet.point[..., 1]
    q = _tensor(shear_force, jet, p)
    m = _tensor(moment_tensor, jet, p)
    w = jet.w[..., S0]
    return Vector2(
        m.c12 - x2 * q.x1 - w * jet.phi[..., S12],
        m.c22 - x2 * q.x2 + w * jet.phi[..., S11],
    )


def _flux_9(jet: FieldJet, p: PlateParams) -> Vector2:
    x3 = jet.point[..., 2]
    q = _tensor(shear_force, jet, p)
    return Vector2(-x3 * q.x1, -x3 * q.x2)


def _flux_boost_moment(beta: int, jet: FieldJet, p: PlateParams) -> Vector2:
    """Laws 10 and 11: x^beta-weighted boost moments."""
    x3 = jet.point[..., 2]
    pa = _flux(6 + beta, jet, p)
    return Vector2(x3 * pa.x1, x3 * pa.x2)


def _flux_phi_linear(beta: int, jet: FieldJet, p: PlateParams) -> Vector2:
    """Laws 12 and 13: phi shifts linear in x^beta."""
    xb = jet.point[..., beta - 1]
    f = _tensor(f_vector, jet, p)
    g = _tensor(g_tensor, jet, p)
    g_col = (g.c11, g.c12) if beta == 1 else (g.c12, g.c22)
    return Vector2(xb * f.x1 - g_col[0], xb * f.x2 - g_col[1])


#: P of each law.  Law 5 combines the fluxes of laws 2 to 4, law 6 those
#: of laws 2 and 3, and laws 10 and 11 those of laws 7 and 8.
_FLUXES = {
    1: _flux_1,
    2: lambda jet, p: _flux_translation(1, jet, p),
    3: lambda jet, p: _flux_translation(2, jet, p),
    4: _flux_4,
    5: _flux_5,
    6: _flux_6,
    7: _flux_7,
    8: _flux_8,
    9: _flux_9,
    10: lambda jet, p: _flux_boost_moment(1, jet, p),
    11: lambda jet, p: _flux_boost_moment(2, jet, p),
    12: lambda jet, p: _flux_phi_linear(1, jet, p),
    13: lambda jet, p: _flux_phi_linear(2, jet, p),
    14: lambda jet, p: _tensor(f_vector, jet, p),
}

#: The jet slots the fluxes and the tensors they share read, the same for
#: w and phi (a superset of _DENSITY_SLOTS): a balance's flux integrals
#: fill only these.
_ROW_SLOTS = (S0, S1, S2, S3, S11, S12, S13, S22, S23, S111, S112, S122, S222)


def density_flux(law_key, jet: FieldJet, p: PlateParams) -> DensityFlux:
    """Density and flux of one law at a jet; broadcasts over jet batches.

    The law is resolved here, so an unknown one raises ValidationError at
    the call.  The density and the flux are each built when first read,
    once per jet and plate constants, together with the tensors they
    share, so a pass over all fourteen laws builds each of them once and
    a pass that reads only densities builds no flux; a jet slot that the
    half being read needs and the jet does not hold raises
    UnfilledSlotError then.  The arrays read are shared with later calls
    and must not be modified.
    """
    return DensityFlux(law(law_key).index, jet, p)


@dataclass(frozen=True)
class DivergenceEstimate:
    """The divergence terms of one law at a point, or arrays of them."""

    d_density_dt: float | np.ndarray
    d_flux1_dx1: float | np.ndarray
    d_flux2_dx2: float | np.ndarray

    @property
    def residual(self) -> float | np.ndarray:
        return self.d_density_dt + self.d_flux1_dx1 + self.d_flux2_dx2

    @property
    def scale(self) -> float | np.ndarray:
        return abs(self.d_density_dt) + abs(self.d_flux1_dx1) + abs(self.d_flux2_dx2)


#: The imaginary step of the exact divergence.  A complex step subtracts
#: nothing, so it can lie far below the round-off of the point.
_COMPLEX_STEP = 1e-30


def _complex_step_jet(jet: FieldJet, p: PlateParams) -> FieldJet:
    """The jet J + i h d_a J at x + i h e_a of each of the N points of a
    jet batch, for a = 1, 2, 3 in turn: a batch of 3N points, axis by
    axis.  d_a J is J shifted by indexing.SHIFT; an order-4 slot has no
    derivative in a 4-jet and gets a NaN imaginary part."""
    n = len(jet.point)
    h = _COMPLEX_STEP
    point = np.tile(jet.point, (3, 1)).astype(complex)
    point.imag = h * np.repeat(np.eye(3), n, axis=0)

    def stepped(d: np.ndarray) -> np.ndarray:
        padded = np.concatenate((d, np.full((n, 1), np.nan)), axis=1)
        out = np.tile(d, (3, 1)).astype(complex)
        out.imag = h * padded[:, SHIFT].transpose(1, 0, 2).reshape(3 * n, JET_SIZE)
        return out

    return FieldJet._unchecked(point, stepped(jet.w), stepped(jet.phi))


def _exact_divergence(law_key, jet: FieldJet, p: PlateParams) -> DivergenceEstimate:
    """(d3 Psi, d1 P1, d2 P2) of one law at every point of a jet batch,
    exact to round-off.

    Each term is a complex step (Squire & Trapp 1998) through the unchanged
    row code: the imaginary part of a row at the complex-step jet, over h.
    It holds because the rows read no slot above order 3 and are
    complex-analytic (no abs, maximum or comparison).  The complex-step
    jet and its rows are built once per jet, for every law.
    """
    df = density_flux(law_key, jet._derived("complex_step", _complex_step_jet, p), p)
    n = len(jet.point)
    return DivergenceEstimate(
        d_density_dt=df.density[2 * n:].imag / _COMPLEX_STEP,
        d_flux1_dx1=df.flux.x1[:n].imag / _COMPLEX_STEP,
        d_flux2_dx2=df.flux.x2[n:2 * n].imag / _COMPLEX_STEP,
    )


def conservation_divergence(
    field, law_key, point, h: float = 1e-3, use_richardson: bool = True
) -> DivergenceEstimate:
    """FD estimate of (d3 Psi, d1 P1, d2 P2) at an off-front point: the
    reference for the exact divergence.

    Differentiates the assembled density and flux through the field's
    analytic jets, by central differences at step h and, for one
    Richardson level (the default), h/2; the stencil points of every
    step take one jet call.  Raises FrontProximityError when the point is
    within 4 h of the front.
    """
    _check_step(h)
    entry = law(law_key)
    base = np.asarray(point, dtype=np.float64)
    if base.shape != (3,):
        raise ValidationError(f"point must be a 3-vector, got shape {base.shape}")
    distance = float(_front_distance(getattr(field, "front", None), base))
    if distance <= 4.0 * h:
        raise FrontProximityError(
            f"point {tuple(base.tolist())} is {distance:.3e} from the front; "
            f"the stencil needs clearance > {4.0 * h:.3e}"
        )
    steps = np.array((h, h / 2.0) if use_richardson else (h,))
    # stencils of shape (step, axis, -/+, 3): the point moved by -step and
    # +step along the axis; advanced indexing puts the axis first
    stencils = np.tile(base, (len(steps), 3, 2, 1))
    axis = np.arange(3)
    stencils[:, axis, :, axis] += steps[:, None] * np.array((-1.0, 1.0))
    df = density_flux(entry, field.jet(stencils.reshape(-1, 3)), field.params)
    # the component a stencil differentiates along its axis: P1 along x1,
    # P2 along x2, Psi along x3, as (axis, step, -/+)
    components = np.stack((df.flux.x1, df.flux.x2, df.density)).reshape(3, len(steps), 3, 2)
    vals = components[axis, :, axis]
    est = (vals[..., 1] - vals[..., 0]) / (2.0 * steps)
    est = richardson(est[:, 0], est[:, 1]) if use_richardson else est[:, 0]
    return DivergenceEstimate(float(est[2]), float(est[0]), float(est[1]))


def conservation_residual(
    field, law_key, point, h: float = 1e-3, use_richardson: bool = True
) -> float:
    """FD estimate of d3 Psi + d1 P1 + d2 P2; vanishes on smooth solutions."""
    return conservation_divergence(field, law_key, point, h, use_richardson).residual

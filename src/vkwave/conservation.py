"""The fourteen conservation laws of the dynamic von Karman plate.

Each law is a pair (density Psi, flux P = (P1, P2)) built from a field
jet such that d Psi/dx3 + dP1/dx1 + dP2/dx2 = 0 on smooth solutions.
The rows correspond to the variational symmetries of the system: shifts
of w and phi, space and time translations, rotation, scaling, rigid
rotations of the deflection, Galilean boosts, and their moments.  The
table of law ids (LawId, LAWS, law) is kept in params, so that a scenario
names laws without loading this module; it is re-exported here.

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
law shares one complex jet per jet batch, and its rows.
conservation_divergence is the same divergence at one point, a batch of
one; the tests hold it to the symbolic total derivative of the rows.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import ValidationError
from .indexing import (
    JET_SIZE, S0, S1, S2, S3, S11, S12, S13, S22, S23, S111, S112, S122, S222, SHIFT,
)
from .jets import FieldJet
from .params import LAWS, LawId, PlateParams, law  # LAWS and LawId re-exported
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


def conservation_divergence(field, law_key, point) -> DivergenceEstimate:
    """(d3 Psi, d1 P1, d2 P2) of one law at one point, exact to round-off:
    _exact_divergence on the one-point batch of the point's jet, on the
    branch the sign of gamma picks (Side.AUTO), as floats.  A point
    exactly on a front raises SideRequiredError.
    """
    entry = law(law_key)
    base = np.asarray(point, dtype=np.float64)
    if base.shape != (3,):
        raise ValidationError(f"point must be a 3-vector, got shape {base.shape}")
    est = _exact_divergence(entry, field.jet(base[None]), field.params)
    return DivergenceEstimate(*(term.item() for term in astuple(est)))

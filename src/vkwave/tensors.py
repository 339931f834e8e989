"""Stress, strain, and energy fields of the dynamic von Karman plate.

All operations take a :class:`~vkwave.jets.FieldJet` plus plate constants
and return plain scalars or small container types.  Components may be
numpy arrays when the jet is a batch; every formula below is written to
broadcast.

Conventions: Greek indices run over the in-plane coordinates 1, 2; the
subscript 3 is time.  ``eps`` denotes the two-dimensional alternating
symbol (eps^{12} = 1).  The summation convention from the governing
equations is expanded by hand here, once, so each component reads as a
closed formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indexing import S1, S2, S3, S11, S12, S22, S111, S112, S122, S222
from .jets import FieldJet
from .params import PlateParams


@dataclass(frozen=True)
class Vector2:
    """In-plane vector; components may be scalars or broadcastable arrays."""

    x1: float | np.ndarray
    x2: float | np.ndarray

    def __getitem__(self, alpha: int):
        if alpha == 1:
            return self.x1
        if alpha == 2:
            return self.x2
        raise IndexError(f"in-plane index must be 1 or 2, got {alpha}")

    def dot(self, other: "Vector2" | np.ndarray):
        o1, o2 = (other.x1, other.x2) if isinstance(other, Vector2) else (other[0], other[1])
        return self.x1 * o1 + self.x2 * o2


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric in-plane 2-tensor stored by independent components."""

    c11: float | np.ndarray
    c12: float | np.ndarray
    c22: float | np.ndarray

    def component(self, alpha: int, beta: int):
        pair = (alpha, beta) if alpha <= beta else (beta, alpha)
        try:
            return {(1, 1): self.c11, (1, 2): self.c12, (2, 2): self.c22}[pair]
        except KeyError:
            raise IndexError(f"in-plane indices must be 1 or 2, got {(alpha, beta)}") from None

    def bilinear(self, u, v):
        """Contraction t_{ab} u^a v^b for 2-vectors u, v (index 0 <-> 1)."""
        return (
            self.c11 * u[0] * v[0]
            + self.c12 * (u[0] * v[1] + u[1] * v[0])
            + self.c22 * u[1] * v[1]
        )


def membrane_stress(jet: FieldJet) -> SymTensor2:
    """Membrane stress N^{ab} = eps^{am} eps^{bn} phi_{,mn}."""
    return SymTensor2(c11=jet.phi[..., S22], c12=-jet.phi[..., S12], c22=jet.phi[..., S11])


def moment_tensor(jet: FieldJet, p: PlateParams) -> SymTensor2:
    """Bending moment M^{ab} = -D{(1-nu) w_{,ab} + nu delta^{ab} (Delta w)}."""
    d, nu = p.D, p.nu
    w11, w22 = jet.w[..., S11], jet.w[..., S22]
    return SymTensor2(
        c11=-d * (w11 + nu * w22),
        c12=-d * (1.0 - nu) * jet.w[..., S12],
        c22=-d * (w22 + nu * w11),
    )


def shear_force(jet: FieldJet, p: PlateParams) -> Vector2:
    """Transverse force Q^a = M^{am}_{,m} + N^{am} w_{,m} = -D (Delta w)_{,a} + N^{am} w_{,m}."""
    d = p.D
    n = membrane_stress(jet)
    w1, w2 = jet.w[..., S1], jet.w[..., S2]
    return Vector2(
        x1=-d * (jet.w[..., S111] + jet.w[..., S122]) + n.c11 * w1 + n.c12 * w2,
        x2=-d * (jet.w[..., S112] + jet.w[..., S222]) + n.c12 * w1 + n.c22 * w2,
    )


def membrane_strain(jet: FieldJet, p: PlateParams) -> SymTensor2:
    """Midplane strain E_{ab} = (1/Eh){(1+nu) eps_{am} eps_{bn} - nu delta_{ab} delta_{mn}} phi_{,mn}."""
    eh, nu = p.Eh, p.nu
    p11, p12, p22 = jet.phi[..., S11], jet.phi[..., S12], jet.phi[..., S22]
    return SymTensor2(
        c11=(p22 - nu * p11) / eh,
        c12=-(1.0 + nu) * p12 / eh,
        c22=(p11 - nu * p22) / eh,
    )


def bending_tensor(jet: FieldJet) -> SymTensor2:
    """Curvature change K_{ab} = w_{,ab}."""
    return SymTensor2(c11=jet.w[..., S11], c12=jet.w[..., S12], c22=jet.w[..., S22])


def g_tensor(jet: FieldJet, p: PlateParams) -> SymTensor2:
    """G^{ab} = (1/Eh){(1+nu) phi_{,ab} - nu delta^{ab} (Delta phi)} - (1/2) eps^{am} eps^{bn} w_{,m} w_{,n}."""
    eh, nu = p.Eh, p.nu
    p11, p12, p22 = jet.phi[..., S11], jet.phi[..., S12], jet.phi[..., S22]
    w1, w2 = jet.w[..., S1], jet.w[..., S2]
    return SymTensor2(
        c11=(p11 - nu * p22) / eh - 0.5 * w2 * w2,
        c12=(1.0 + nu) * p12 / eh + 0.5 * w1 * w2,
        c22=(p22 - nu * p11) / eh - 0.5 * w1 * w1,
    )


def f_vector(jet: FieldJet, p: PlateParams) -> Vector2:
    """F^a = G^{an}_{,n} = (1/Eh)(Delta phi)_{,a} + coupling in first and second w-derivatives."""
    eh = p.Eh
    w1, w2 = jet.w[..., S1], jet.w[..., S2]
    w11, w12, w22 = jet.w[..., S11], jet.w[..., S12], jet.w[..., S22]
    return Vector2(
        x1=(jet.phi[..., S111] + jet.phi[..., S122]) / eh + 0.5 * (w1 * w22 - w2 * w12),
        x2=(jet.phi[..., S112] + jet.phi[..., S222]) / eh + 0.5 * (w2 * w11 - w1 * w12),
    )


def _det_like(a11, a12, a22, b11, b12, b22):
    """eps^{am} eps^{bn} A_{ab} B_{mn} = A11 B22 + A22 B11 - 2 A12 B12."""
    return a11 * b22 + a22 * b11 - 2.0 * a12 * b12


def strain_energy_density(jet: FieldJet, p: PlateParams):
    """Strain energy per unit midplane area.

    Pi = (D/2){(Delta w)^2 - (1-nu) eps eps w,, w,,}
       - (1/2Eh){(Delta phi)^2 - (1+nu) eps eps phi,, phi,,}
       + (1/2) eps^{am} eps^{bn} phi_{,ab} w_{,m} w_{,n}
    """
    d, eh, nu = p.D, p.Eh, p.nu
    w11, w12, w22 = jet.w[..., S11], jet.w[..., S12], jet.w[..., S22]
    p11, p12, p22 = jet.phi[..., S11], jet.phi[..., S12], jet.phi[..., S22]
    w1, w2 = jet.w[..., S1], jet.w[..., S2]

    lap_w = w11 + w22
    lap_phi = p11 + p22
    bend = lap_w**2 - (1.0 - nu) * _det_like(w11, w12, w22, w11, w12, w22)
    membrane = lap_phi**2 - (1.0 + nu) * _det_like(p11, p12, p22, p11, p12, p22)
    coupling = p11 * w2 * w2 + p22 * w1 * w1 - 2.0 * p12 * w1 * w2
    return 0.5 * d * bend - membrane / (2.0 * eh) + 0.5 * coupling


def kinetic_energy_density(jet: FieldJet, p: PlateParams):
    """Kinetic energy per unit midplane area, T = (rho/2) w_{,3}^2."""
    return 0.5 * p.rho * jet.w[..., S3] ** 2


def lagrangian_density(jet: FieldJet, p: PlateParams):
    """L = T - Pi."""
    return kinetic_energy_density(jet, p) - strain_energy_density(jet, p)

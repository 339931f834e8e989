"""Pointwise jump conditions at the front of a piecewise field.

Everything here works on a JumpRecord: the two one-sided jets at a front
point together with the front geometry and the extracted normal-normal
amplitudes lambda (deflection) and mu (stress function).  On top of the
record we evaluate, in increasing order of structure:

* the admissibility test for acceleration waves (field and first
  derivatives continuous, second time derivative of w jumping);
* the dynamic conditions coming from the two governing equations,
  C [rho w_{,3}] + [Q^a] n_a = 0  and  [F^a] n_a = 0;
* the generic balance jump condition C [Psi] - [P^a] n_a = 0 for any
  conservation-law row;
* closed forms of that condition for the energy, translation, rotation,
  and scaling rows, written in terms of lambda, mu, and ahead-side
  derivatives only (each equals minus the generic residual);
* the two scalar relations among traveling-wave constants that the
  closed forms reduce to for the exact wave family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conservation import density_flux, law
from .errors import NonAdmissibleRecordError, NotOnFrontError, ValidationError
from .jets import FieldJet
from .params import PlateParams
from .solutions import AccelerationWave, PiecewiseField, Side
from .tensors import f_vector, shear_force
from .wavefront import FrontGeometry, front_geometry


@dataclass(frozen=True)
class JumpRecord:
    """One-sided jets and jump data at a single front point."""

    point: np.ndarray
    geometry: FrontGeometry
    ahead: FieldJet
    behind: FieldJet
    jump: FieldJet
    lambda_: float
    mu: float


def _nn_contraction(jump: FieldJet, field: str, n: np.ndarray) -> float:
    d = jump.dw if field == "w" else jump.dphi
    return float(
        d(1, 1) * n[0] * n[0] + 2.0 * d(1, 2) * n[0] * n[1] + d(2, 2) * n[1] * n[1]
    )


def extract_jumps(field: PiecewiseField, point) -> JumpRecord:
    """Evaluate both one-sided jets at a front point and extract amplitudes."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise ValidationError(f"point must be a 3-vector, got shape {p.shape}")
    front = getattr(field, "front", None)
    if front is None:
        raise ValidationError("field has no front; jumps are undefined")

    g_val = float(front.value(p))
    grad = np.asarray(front.spatial_gradient(p), dtype=np.float64)
    slope = float(np.hypot(grad[0], grad[1])) + abs(float(front.time_derivative(p)))
    scale = max(slope, 1e-300) * (1.0 + float(np.abs(p).max()))
    if abs(g_val) > 1e-9 * scale:
        raise NotOnFrontError(
            f"gamma(point) = {g_val:.3e} exceeds the on-front tolerance {1e-9 * scale:.3e}"
        )

    geo = front_geometry(front, p)
    ahead = field.jet(p, Side.AHEAD)
    behind = field.jet(p, Side.BEHIND)
    jump = behind - ahead
    return JumpRecord(
        point=p,
        geometry=geo,
        ahead=ahead,
        behind=behind,
        jump=jump,
        lambda_=_nn_contraction(jump, "w", geo.normal),
        mu=_nn_contraction(jump, "phi", geo.normal),
    )


@dataclass(frozen=True)
class WaveVerdict:
    """Outcome of the acceleration-wave admissibility test."""

    passed: bool
    reasons: tuple[str, ...]


_CONTINUITY_SLOTS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("[w]", ()),
    ("[w,1]", (1,)),
    ("[w,2]", (2,)),
    ("[w,3]", (3,)),
    ("[phi]", ()),
    ("[phi,1]", (1,)),
    ("[phi,2]", (2,)),
    ("[phi,3]", (3,)),
)


def check_acceleration_wave(rec: JumpRecord, tol: float = 1e-9) -> WaveVerdict:
    """Test the defining structure: value and first-derivative jumps vanish
    while [w_{,33}] does not.  Each comparison is relative to the larger
    one-sided magnitude (floored at 1)."""
    reasons = []
    for name, subs in _CONTINUITY_SLOTS:
        ahead_d = rec.ahead.dw if name.startswith("[w") else rec.ahead.dphi
        behind_d = rec.behind.dw if name.startswith("[w") else rec.behind.dphi
        jump_d = rec.jump.dw if name.startswith("[w") else rec.jump.dphi
        scale = max(1.0, abs(float(ahead_d(*subs))), abs(float(behind_d(*subs))))
        value = float(jump_d(*subs))
        if abs(value) > tol * scale:
            reasons.append(f"{name} != 0 (jumps by {value:.3e})")

    w33 = float(rec.jump.dw(3, 3))
    w33_scale = max(1.0, abs(float(rec.ahead.dw(3, 3))), abs(float(rec.behind.dw(3, 3))))
    if abs(w33) <= tol * w33_scale:
        reasons.append("[w,33] = 0 (second time derivative does not jump)")

    return WaveVerdict(passed=not reasons, reasons=tuple(reasons))


def dynamic_jump_residuals(rec: JumpRecord, p: PlateParams) -> tuple[float, float]:
    """The two dynamic conditions: (C [rho w_{,3}] + [Q^a] n_a, [F^a] n_a)."""
    n = rec.geometry.normal
    c = rec.geometry.speed
    q_b = shear_force(rec.behind, p)
    q_a = shear_force(rec.ahead, p)
    f_b = f_vector(rec.behind, p)
    f_a = f_vector(rec.ahead, p)

    r_w = c * p.rho * float(rec.jump.dw(3)) + float(
        (q_b.x1 - q_a.x1) * n[0] + (q_b.x2 - q_a.x2) * n[1]
    )
    r_phi = float((f_b.x1 - f_a.x1) * n[0] + (f_b.x2 - f_a.x2) * n[1])
    return r_w, r_phi


def dynamic_jump_scales(rec: JumpRecord, p: PlateParams) -> tuple[float, float]:
    """Magnitude scales for the two dynamic residuals (one-sided term sums)."""
    n = rec.geometry.normal
    c = rec.geometry.speed
    s_w = 0.0
    s_phi = 0.0
    for jet in (rec.ahead, rec.behind):
        q = shear_force(jet, p)
        f = f_vector(jet, p)
        s_w += abs(c * p.rho * float(jet.dw(3))) + abs(float(q.x1 * n[0] + q.x2 * n[1]))
        s_phi += abs(float(f.x1 * n[0] + f.x2 * n[1]))
    return s_w, s_phi


def _balance_jump_terms(law_key, rec: JumpRecord, p: PlateParams) -> tuple[float, float]:
    """balance_jump_residual and balance_jump_scale from one density_flux
    per side."""
    n = rec.geometry.normal
    c = rec.geometry.speed
    df_a = density_flux(law_key, rec.ahead, p)
    df_b = density_flux(law_key, rec.behind, p)
    jump_density = float(df_b.density) - float(df_a.density)
    jump_flux_n = float(
        (df_b.flux.x1 - df_a.flux.x1) * n[0] + (df_b.flux.x2 - df_a.flux.x2) * n[1]
    )
    s = 0.0
    for df in (df_a, df_b):
        s += abs(c * float(df.density)) + abs(float(df.flux.x1 * n[0] + df.flux.x2 * n[1]))
    return c * jump_density - jump_flux_n, s


def balance_jump_residual(law_key, rec: JumpRecord, p: PlateParams) -> float:
    """Generic balance jump condition C [Psi] - [P^a] n_a for one law."""
    return _balance_jump_terms(law_key, rec, p)[0]


def balance_jump_scale(law_key, rec: JumpRecord, p: PlateParams) -> float:
    """One-sided magnitude scale for the generic balance jump residual."""
    return _balance_jump_terms(law_key, rec, p)[1]


_CLOSED_FORM_LAWS = (2, 3, 4, 5, 6)


def _generator_applied(jet: FieldJet, field: str, beta: int, law_index: int) -> float:
    """Apply the law's symmetry generator to f_{,beta} at the jet's point."""
    d = jet.dw if field == "w" else jet.dphi
    x1, x2, x3 = (float(jet.point[i]) for i in range(3))
    if law_index == 4:
        return float(d(beta, 3))
    if law_index == 2:
        return float(d(beta, 1))
    if law_index == 3:
        return float(d(beta, 2))
    if law_index == 6:
        return x2 * float(d(beta, 1)) - x1 * float(d(beta, 2))
    if law_index == 5:
        return x1 * float(d(beta, 1)) + x2 * float(d(beta, 2)) + 2.0 * x3 * float(d(beta, 3))
    raise ValidationError(f"no closed-form row for law index {law_index}")


def closed_form_jump_residual(
    law_key, rec: JumpRecord, p: PlateParams, admissibility_tol: float = 1e-9
) -> float:
    """Closed-form balance jump residual (printed LHS minus RHS) in terms of
    the amplitudes and ahead-side derivatives.

    Available for the wave-momentum (2, 3), energy (4), scaling (5), and
    rotation-moment (6) rows.  The record must pass the acceleration-wave
    test first: the closed forms assume rank-one jump structure.  Each
    value equals minus the generic balance_jump_residual of the same law.
    """
    entry = law(law_key)
    if entry.index not in _CLOSED_FORM_LAWS:
        raise ValidationError(
            f"closed form exists only for laws {_CLOSED_FORM_LAWS}, got {entry.index}"
        )
    verdict = check_acceleration_wave(rec, admissibility_tol)
    if not verdict.passed:
        raise NonAdmissibleRecordError(
            "record is not an acceleration wave ("
            + "; ".join(verdict.reasons)
            + "); run check_acceleration_wave for details"
        )

    lam, mu = rec.lambda_, rec.mu
    d, eh = p.D, p.Eh
    n = rec.geometry.normal
    c = rec.geometry.speed
    x1, x2, x3 = (float(rec.point[i]) for i in range(3))
    quad = d * lam * lam - mu * mu / eh

    def gen_dot_n(field: str) -> float:
        return sum(
            _generator_applied(rec.ahead, field, beta, entry.index) * n[beta - 1]
            for beta in (1, 2)
        )

    if entry.index == 4:
        return 0.5 * c * quad - (d * lam * gen_dot_n("w") - (mu / eh) * gen_dot_n("phi"))

    if entry.index in (2, 3):
        n_comp = n[0] if entry.index == 2 else n[1]
        return 0.5 * quad * n_comp + d * lam * gen_dot_n("w") - (mu / eh) * gen_dot_n("phi")

    w1, w2 = float(rec.ahead.dw(1)), float(rec.ahead.dw(2))
    f1, f2 = float(rec.ahead.dphi(1)), float(rec.ahead.dphi(2))

    if entry.index == 6:
        # eps^a_{ b} v_a n^b = v1 n2 - v2 n1
        lhs = 0.5 * (n[0] * x2 - n[1] * x1) * quad
        w_part = (w1 * n[1] - w2 * n[0]) + gen_dot_n("w")
        phi_part = (f1 * n[1] - f2 * n[0]) + gen_dot_n("phi")
        return lhs + d * lam * w_part - (mu / eh) * phi_part

    # scaling row
    lhs = 0.5 * (x1 * n[0] + x2 * n[1] - 2.0 * c * x3) * quad
    w_part = (w1 * n[0] + w2 * n[1]) + gen_dot_n("w")
    phi_part = (f1 * n[0] + f2 * n[1]) + gen_dot_n("phi")
    return lhs + d * lam * w_part - (mu / eh) * phi_part


def amplitude_relation_residuals(wave: AccelerationWave) -> tuple[float, float]:
    """The two scalar relations among traveling-wave constants.

    The first vanishes exactly when the energy, wave-momentum, and
    rotation-moment balances hold across the front; the second is the
    extra condition the scaling balance adds.  Returns

        r1 = D Eh w^4 c1 (c1 - 2 u3+) - 4 c2 (c2 + 2 phi2+)
        r2 = D Eh w^2 c1 (u1+ + w u2+) - 2 c2 phi1+

    with w the angular frequency of the wave profiles.
    """
    if not isinstance(wave, AccelerationWave):
        raise ValidationError("amplitude relations are defined for acceleration waves")
    p = wave.params
    omega = wave.omega
    u = wave.ahead.u
    ph = wave.ahead.phi
    deh = p.D * p.Eh
    r1 = deh * omega**4 * wave.c1 * (wave.c1 - 2.0 * u[3]) - 4.0 * wave.c2 * (
        wave.c2 + 2.0 * ph[2]
    )
    r2 = deh * omega**2 * wave.c1 * (u[1] + omega * u[2]) - 2.0 * wave.c2 * ph[1]
    return r1, r2


def amplitude_relation_scales(wave: AccelerationWave) -> tuple[float, float]:
    """Term-magnitude scales matching amplitude_relation_residuals."""
    p = wave.params
    omega = wave.omega
    u = wave.ahead.u
    ph = wave.ahead.phi
    deh = p.D * p.Eh
    s1 = (
        abs(deh * omega**4 * wave.c1 * wave.c1)
        + abs(2.0 * deh * omega**4 * wave.c1 * u[3])
        + abs(4.0 * wave.c2 * wave.c2)
        + abs(8.0 * wave.c2 * ph[2])
    )
    s2 = (
        abs(deh * omega**2 * wave.c1 * u[1])
        + abs(deh * omega**3 * wave.c1 * u[2])
        + abs(2.0 * wave.c2 * ph[1])
    )
    return s1, s2

"""Pointwise jump conditions at the front of a piecewise field.

Everything here works on a JumpRecord: the two one-sided jets at a front
point, or at a batch of front points, together with the front geometry
and the extracted normal-normal amplitudes lambda (deflection) and mu
(stress function).  On top of the record we evaluate, in increasing order
of structure:

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

Each condition is written once, as the public function that evaluates
it, and broadcasts over the record's leading axes.  The report's jump
checks and balance's front integral call it on the record of each jet
batch of their points in turn (_front_jets, one jet fill per side), where
it returns arrays; on the one-point record of extract_jumps it returns
numpy scalars.  A residual and its scale are two functions, each forming
only its own terms; the one-sided tensors and law halves they both read
are built once per jet.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .conservation import _tensor, density_flux
from .errors import NonAdmissibleRecordError, NotOnFrontError, ValidationError
from .indexing import S0, S1, S2, S3, S11, S12, S13, S22, S23, S33
from .jets import FieldJet
from .params import _CLOSED_FORM_LAWS, PlateParams, law
from .solutions import AccelerationWave, PiecewiseField, Side, _jet_batches
from .tensors import f_vector, shear_force
from .wavefront import FrontGeometry, _value_and_slope, front_geometry


@dataclass(frozen=True)
class JumpRecord:
    """One-sided jets and jump data at a front point, or at a batch of N
    front points.

    At one point ``point`` has shape (3,), the jets are one-point jets and
    ``lambda_`` and ``mu`` are floats; on a batch ``point`` has shape
    (N, 3), the jets are N-point batches, ``lambda_`` and ``mu`` have shape
    (N,), and ``geometry`` is the batch's FrontGeometry.  Every jump
    formula broadcasts over the leading axes, so it takes either.

    The jump behind - ahead and its normal-normal amplitudes are derived
    from the two jets and the normal.
    """

    point: np.ndarray
    geometry: FrontGeometry
    ahead: FieldJet
    behind: FieldJet
    jump: FieldJet = field(init=False)
    lambda_: float | np.ndarray = field(init=False)
    mu: float | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        jump = self.behind - self.ahead
        n = self.geometry.normal
        lam, mu = _nn_contraction(jump.w, n), _nn_contraction(jump.phi, n)
        if n.ndim == 1:
            lam, mu = float(lam), float(mu)
        object.__setattr__(self, "jump", jump)
        object.__setattr__(self, "lambda_", lam)
        object.__setattr__(self, "mu", mu)

    @functools.cached_property
    def _wave_conditions(self):
        """_wave_conditions of the record, computed once: a check reads it
        for every closed-form law of a batch."""
        return _wave_conditions(self)


def _nn_contraction(d: np.ndarray, n: np.ndarray) -> np.ndarray:
    """d_{,ab} n_a n_b from the jet array d of one field."""
    n1, n2 = n[..., 0], n[..., 1]
    return d[..., S11] * n1 * n1 + 2.0 * d[..., S12] * n1 * n2 + d[..., S22] * n2 * n2


def _check_on_front(front, points: np.ndarray) -> None:
    """Raise NotOnFrontError for the first of the points (shape (N, 3))
    that is off the front."""
    g_val, slope = _value_and_slope(front, points)
    scale = np.maximum(slope, 1e-300) * (1.0 + np.abs(points).max(axis=-1))
    off = np.flatnonzero(np.abs(g_val) > 1e-9 * scale)
    if off.size:
        k = off[0]
        raise NotOnFrontError(
            f"gamma(point) = {g_val[k]:.3e} exceeds the on-front tolerance {1e-9 * scale[k]:.3e}"
        )


def _front_jets(field: PiecewiseField, points: np.ndarray):
    """Jump data at front points of shape (N, 3): one JumpRecord per jet
    batch of each side (solutions._jet_batches), filled as it is asked
    for.  Raises for the first point that is off the front, or where the
    front has no normal, before the first jet is filled."""
    _check_on_front(field.front, points)
    geometry = front_geometry(field.front, points)
    sides = zip(_jet_batches(field, points, Side.AHEAD), _jet_batches(field, points, Side.BEHIND))
    for (rows, ahead), (_, behind) in sides:
        yield JumpRecord(points[rows], geometry[rows], ahead, behind)
        del ahead, behind  # free this batch's jets before the next is filled


def extract_jumps(field: PiecewiseField, point) -> JumpRecord:
    """Evaluate both one-sided jets at a front point and extract amplitudes."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise ValidationError(f"point must be a 3-vector, got shape {p.shape}")
    if getattr(field, "front", None) is None:
        raise ValidationError("field has no front; jumps are undefined")

    _check_on_front(field.front, p[None])
    geometry = front_geometry(field.front, p)
    return JumpRecord(p, geometry, field.jet(p, Side.AHEAD), field.jet(p, Side.BEHIND))


@dataclass(frozen=True)
class WaveVerdict:
    """Outcome of the acceleration-wave admissibility test: why it fails,
    and whether it passes, which it does when there is no reason."""

    passed: bool = field(init=False)
    reasons: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reasons", tuple(self.reasons))
        object.__setattr__(self, "passed", not self.reasons)


#: (name, field, slot) of each value and first derivative that must not jump.
_CONTINUITY_SLOTS: tuple[tuple[str, str, int], ...] = (
    ("[w]", "w", S0),
    ("[w,1]", "w", S1),
    ("[w,2]", "w", S2),
    ("[w,3]", "w", S3),
    ("[phi]", "phi", S0),
    ("[phi,1]", "phi", S1),
    ("[phi,2]", "phi", S2),
    ("[phi,3]", "phi", S3),
)


#: Relative size below which a jump counts as zero in the acceleration-wave
#: test.
_ADMISSIBILITY_TOL = 1e-9


def _wave_conditions(rec: JumpRecord) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """The acceleration-wave test as (failed, jump, reason) per condition:
    whether each point fails it, each point's jump, and the reason, to be
    formatted with a failing point's jump.  Each comparison is relative to
    the larger one-sided magnitude (floored at 1)."""
    conditions = []
    for name, field, slot in _CONTINUITY_SLOTS:
        ahead = getattr(rec.ahead, field)[..., slot]
        behind = getattr(rec.behind, field)[..., slot]
        jump = getattr(rec.jump, field)[..., slot]
        scale = np.maximum(np.maximum(1.0, np.abs(ahead)), np.abs(behind))
        failed = np.abs(jump) > _ADMISSIBILITY_TOL * scale
        conditions.append((failed, jump, f"{name} != 0 (jumps by {{:.3e}})"))

    w33 = rec.jump.w[..., S33]
    ahead, behind = rec.ahead.w[..., S33], rec.behind.w[..., S33]
    scale = np.maximum(np.maximum(1.0, np.abs(ahead)), np.abs(behind))
    failed = np.abs(w33) <= _ADMISSIBILITY_TOL * scale
    conditions.append((failed, w33, "[w,33] = 0 (second time derivative does not jump)"))
    return conditions


def _wave_reasons(conditions, k: tuple) -> tuple[str, ...]:
    """Why the point at index k (() for a one-point record) fails the
    acceleration-wave test; empty when it passes."""
    return tuple(
        reason.format(float(jump[k])) for failed, jump, reason in conditions if failed[k]
    )


def check_acceleration_wave(rec: JumpRecord) -> WaveVerdict:
    """Test the defining structure: value and first-derivative jumps vanish
    while [w_{,33}] does not.  Each comparison is relative to the larger
    one-sided magnitude (floored at 1)."""
    reasons = _wave_reasons(rec._wave_conditions, ())
    return WaveVerdict(reasons)


def dynamic_jump_residuals(rec: JumpRecord, p: PlateParams):
    """The two dynamic conditions (C [rho w_{,3}] + [Q^a] n_a, [F^a] n_a)
    at every point of the record."""
    n1, n2 = rec.geometry.normal[..., 0], rec.geometry.normal[..., 1]
    c = rec.geometry.speed
    q_b = _tensor(shear_force, rec.behind, p)
    q_a = _tensor(shear_force, rec.ahead, p)
    f_b = _tensor(f_vector, rec.behind, p)
    f_a = _tensor(f_vector, rec.ahead, p)
    r_w = c * p.rho * rec.jump.w[..., S3] + ((q_b.x1 - q_a.x1) * n1 + (q_b.x2 - q_a.x2) * n2)
    r_phi = (f_b.x1 - f_a.x1) * n1 + (f_b.x2 - f_a.x2) * n2
    return r_w, r_phi


def dynamic_jump_scales(rec: JumpRecord, p: PlateParams):
    """Magnitude scales for the two dynamic residuals: the sums of their
    one-sided terms' magnitudes, ahead and then behind."""
    n1, n2 = rec.geometry.normal[..., 0], rec.geometry.normal[..., 1]
    c = rec.geometry.speed
    s_w = 0.0
    s_phi = 0.0
    for jet in (rec.ahead, rec.behind):
        q, f = _tensor(shear_force, jet, p), _tensor(f_vector, jet, p)
        s_w = s_w + (np.abs(c * p.rho * jet.w[..., S3]) + np.abs(q.x1 * n1 + q.x2 * n2))
        s_phi = s_phi + np.abs(f.x1 * n1 + f.x2 * n2)
    return s_w, s_phi


def balance_jump_residual(law_key, rec: JumpRecord, p: PlateParams):
    """Generic balance jump condition C [Psi] - [P^a] n_a for one law, at
    every point of the record."""
    n1, n2 = rec.geometry.normal[..., 0], rec.geometry.normal[..., 1]
    df_a = density_flux(law_key, rec.ahead, p)
    df_b = density_flux(law_key, rec.behind, p)
    flux_a, flux_b = df_a.flux, df_b.flux
    jump_flux_n = (flux_b.x1 - flux_a.x1) * n1 + (flux_b.x2 - flux_a.x2) * n2
    return rec.geometry.speed * (df_b.density - df_a.density) - jump_flux_n


def balance_jump_scale(law_key, rec: JumpRecord, p: PlateParams):
    """One-sided magnitude scale for the generic balance jump residual:
    |C Psi| + |P^a n_a| ahead, plus the same behind."""
    n1, n2 = rec.geometry.normal[..., 0], rec.geometry.normal[..., 1]
    c = rec.geometry.speed
    s = 0.0
    for jet in (rec.ahead, rec.behind):
        df = density_flux(law_key, jet, p)
        flux = df.flux
        s = s + (np.abs(c * df.density) + np.abs(flux.x1 * n1 + flux.x2 * n2))
    return s


#: Slots of f_{,b1}, f_{,b2} and f_{,b3} for the in-plane direction b.
_SECOND_SLOTS = {1: (S11, S12, S13), 2: (S12, S22, S23)}


def _generator_applied(jet: FieldJet, field: str, beta: int, law_index: int) -> np.ndarray:
    """Apply the law's symmetry generator to f_{,beta} at the jet's points."""
    d = jet.w if field == "w" else jet.phi
    s1, s2, s3 = _SECOND_SLOTS[beta]
    x1, x2, x3 = (jet.point[..., i] for i in range(3))
    if law_index == 4:
        return d[..., s3]
    if law_index == 2:
        return d[..., s1]
    if law_index == 3:
        return d[..., s2]
    if law_index == 6:
        return x2 * d[..., s1] - x1 * d[..., s2]
    if law_index == 5:
        return x1 * d[..., s1] + x2 * d[..., s2] + 2.0 * x3 * d[..., s3]
    raise ValidationError(f"no closed-form row for law index {law_index}")


def closed_form_jump_residual(law_key, rec: JumpRecord, p: PlateParams):
    """Closed-form balance jump residual (printed LHS minus RHS) in terms of
    the amplitudes and ahead-side derivatives, at every point of the record.

    Available for the wave-momentum (2, 3), energy (4), scaling (5), and
    rotation-moment (6) rows.  The record must pass the acceleration-wave
    test first, as the closed forms assume rank-one jump structure: the
    error names the first point that does not.  Each value equals minus
    the generic balance_jump_residual of the same law.
    """
    entry = law(law_key)
    if entry.index not in _CLOSED_FORM_LAWS:
        raise ValidationError(
            f"closed form exists only for laws {_CLOSED_FORM_LAWS}, got {entry.index}"
        )
    conditions = rec._wave_conditions
    failing = np.argwhere(np.any([failed for failed, _, _ in conditions], axis=0))
    if len(failing):
        raise NonAdmissibleRecordError(
            "record is not an acceleration wave ("
            + "; ".join(_wave_reasons(conditions, tuple(failing[0])))
            + "); run check_acceleration_wave for details"
        )

    lam, mu = rec.lambda_, rec.mu
    d, eh = p.D, p.Eh
    n = rec.geometry.normal
    c = rec.geometry.speed
    x1, x2, x3 = (rec.point[..., i] for i in range(3))
    quad = d * lam * lam - mu * mu / eh

    def gen_dot_n(field: str) -> np.ndarray:
        return sum(
            _generator_applied(rec.ahead, field, beta, entry.index) * n[..., beta - 1]
            for beta in (1, 2)
        )

    if entry.index == 4:
        return 0.5 * c * quad - (d * lam * gen_dot_n("w") - (mu / eh) * gen_dot_n("phi"))

    if entry.index in (2, 3):
        n_comp = n[..., entry.index - 2]
        return 0.5 * quad * n_comp + d * lam * gen_dot_n("w") - (mu / eh) * gen_dot_n("phi")

    w1, w2 = rec.ahead.w[..., S1], rec.ahead.w[..., S2]
    f1, f2 = rec.ahead.phi[..., S1], rec.ahead.phi[..., S2]

    if entry.index == 6:
        # eps^a_{ b} v_a n^b = v1 n2 - v2 n1
        lhs = 0.5 * (n[..., 0] * x2 - n[..., 1] * x1) * quad
        w_part = (w1 * n[..., 1] - w2 * n[..., 0]) + gen_dot_n("w")
        phi_part = (f1 * n[..., 1] - f2 * n[..., 0]) + gen_dot_n("phi")
        return lhs + d * lam * w_part - (mu / eh) * phi_part

    # scaling row
    lhs = 0.5 * (x1 * n[..., 0] + x2 * n[..., 1] - 2.0 * c * x3) * quad
    w_part = (w1 * n[..., 0] + w2 * n[..., 1]) + gen_dot_n("w")
    phi_part = (f1 * n[..., 0] + f2 * n[..., 1]) + gen_dot_n("phi")
    return lhs + d * lam * w_part - (mu / eh) * phi_part


def _amplitude_relation_terms(wave: AccelerationWave):
    """The two amplitude relations (r1, r2) and their term-magnitude
    scales (s1, s2)."""
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
    return r1, r2, s1, s2


def amplitude_relation_residuals(wave: AccelerationWave) -> tuple[float, float]:
    """The two scalar relations among traveling-wave constants.

    The first vanishes exactly when the energy, wave-momentum, and
    rotation-moment balances hold across the front; the second is the
    extra condition the scaling balance adds.  Returns

        r1 = D Eh w^4 c1 (c1 - 2 u3+) - 4 c2 (c2 + 2 phi2+)
        r2 = D Eh w^2 c1 (u1+ + w u2+) - 2 c2 phi1+

    with w the angular frequency of the wave profiles.
    """
    r1, r2, _, _ = _amplitude_relation_terms(wave)
    return r1, r2


def amplitude_relation_scales(wave: AccelerationWave) -> tuple[float, float]:
    """Term-magnitude scales matching amplitude_relation_residuals."""
    _, _, s1, s2 = _amplitude_relation_terms(wave)
    return s1, s2

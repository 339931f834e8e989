"""Acceptance gate: eight end-to-end properties of the whole package.

Each test prints exactly one verdict line (PASS or FAIL with the measured
number), so running this file doubles as the acceptance checklist.  The
individual properties are exercised in more detail by the per-module
tests; here they are run at full advertised scale.
"""

import math

import numpy as np
import pytest

from vkwave.balance import Region, balance_residual, front_segment_jump_integral
from vkwave.conservation import LAWS, conservation_divergence, density_flux
from vkwave.indexing import S111
from vkwave.jets import FieldJet
from vkwave.jumps import (
    amplitude_relation_residuals,
    amplitude_relation_scales,
    balance_jump_residual,
    balance_jump_scale,
    closed_form_jump_residual,
    dynamic_jump_residuals,
    dynamic_jump_scales,
    extract_jumps,
)
from vkwave.params import make_plate_params
from vkwave.solutions import (
    Side,
    acceleration_wave,
    invariant_solution,
    pde_residual,
    pde_term_scales,
    polynomial_field,
)
from vkwave.tensors import kinetic_energy_density, strain_energy_density
from vkwave.wavefront import (
    CircleFront,
    front_geometry,
    required_third_amplitude,
    second_jumps,
    third_jumps,
)

from finite_differences import fd_divergence
from symbolic import ExactJets, closed_form, ulps_from_exact, wave_branches

MODERATE = make_plate_params(1.0, 0.3, 1.0, 1.0)


def _verdict(capsys, number: int, name: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance {number} ({name}): {'PASS' if passed else 'FAIL'} [{detail}]")


def _random_params(rng):
    return make_plate_params(
        rng.uniform(0.5, 3.0),
        rng.uniform(-0.4, 0.45),
        rng.uniform(0.5, 2.0),
        rng.uniform(0.5, 2.0),
    )


def test_acceptance_1_exact_solutions(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        p = _random_params(rng)
        sol = invariant_solution(
            rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4),
            rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]), p,
        )
        pts = rng.uniform(-1.5, 1.5, (100, 3))
        jet = sol.jet(pts)
        r1, r2 = pde_residual(jet, p)
        s1, s2 = pde_term_scales(jet, p)
        worst = max(
            worst,
            float(np.max(np.abs(r1) / np.maximum(1.0, s1))),
            float(np.max(np.abs(r2) / np.maximum(1.0, s2))),
        )
    passed = worst < 1e-9
    _verdict(capsys, 1, "traveling solutions solve the field equations", passed,
             f"max scaled residual {worst:.2e} over 100 solutions x 100 points")
    assert passed


def test_acceptance_2_conservation_laws(capsys):
    p = MODERATE
    sol = invariant_solution((0.3, -0.5, 0.6, 0.2), (0.1, -0.4, 0.3, 0.5), 1.2, p)
    point = (0.37, -0.21, 0.13)
    failures = []
    worst_res = 0.0
    for entry in LAWS:
        est = conservation_divergence(sol, entry.index, point)
        scaled = abs(est.residual) / max(1.0, est.scale)
        worst_res = max(worst_res, scaled)
        if scaled > 1e-6:
            failures.append(f"{entry.name} residual {scaled:.1e}")

        plain = fd_divergence(sol, entry.index, point, h=0.02, richardson=False)
        halved = fd_divergence(sol, entry.index, point, h=0.01, richardson=False)
        floor = 1e-12 * max(1.0, plain.scale)
        if max(abs(plain.residual), abs(halved.residual)) < floor:
            continue  # conserved to roundoff at finite h; no error to halve
        ratio = plain.residual / halved.residual
        if not 3.0 <= ratio <= 5.0:
            failures.append(f"{entry.name} step-halving ratio {ratio:.2f}")

    # structural identities at a random (non-solution) jet
    rng = np.random.default_rng(202)
    jet = FieldJet(np.array([0.7, -0.4, 0.9]), rng.uniform(-1, 1, 35), rng.uniform(-1, 1, 35))
    x1, x2, x3 = jet.point
    rows = {entry.index: density_flux(entry.index, jet, p) for entry in LAWS}
    energy = kinetic_energy_density(jet, p) + strain_energy_density(jet, p)
    checks = [
        ("energy density", rows[4].density, energy),
        ("scaling density", rows[5].density,
         x1 * rows[2].density + x2 * rows[3].density - 2 * x3 * rows[4].density),
        ("rotation density", rows[6].density, x2 * rows[2].density - x1 * rows[3].density),
        ("boost density x1", rows[10].density, x1 * rows[9].density),
        ("boost density x2", rows[11].density, x2 * rows[9].density),
        ("boost flux x1", rows[10].flux.x1, x3 * rows[7].flux.x1),
        ("boost flux x2", rows[11].flux.x2, x3 * rows[8].flux.x2),
    ]
    for name, got, want in checks:
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            failures.append(f"identity {name} off by {abs(got - want):.1e}")

    passed = not failures
    _verdict(capsys, 2, "all 14 laws conserved exactly, stencils second order", passed,
             "; ".join(failures) if failures else
             f"max scaled residual {worst_res:.2e}, ratios in [3, 5], identities at roundoff")
    assert passed, failures


def test_acceptance_3_jump_compatibility(capsys):
    failures = []

    ahead = invariant_solution((0.2, 0.1, 0.4, -0.3), (0.0, 0.5, 0.3, 0.1), 1.1, MODERATE)
    wave = acceleration_wave(ahead, c1=0.7, c2=-0.4)
    t = 0.45
    point = np.array([1.1 * t, 0.3, t])
    geo = front_geometry(wave.front, point)
    n = geo.normal

    for name, amplitude in (("w", 1.7), ("phi", -0.8)):
        spatial, mixed, temporal = second_jumps(amplitude, n, geo.speed)
        if float(n @ spatial @ n) != amplitude:
            failures.append(f"{name} normal-normal contraction is inexact")
        if not np.array_equal(mixed, -geo.speed * (spatial @ n)):
            failures.append(f"{name} mixed jump breaks time consistency")
        if float(temporal) != float(-geo.speed * (mixed @ n)):
            failures.append(f"{name} temporal jump breaks time consistency")

    third = third_jumps(0.9, 1.7, -0.4, n, geo.arc_rate)
    if third @ n @ n @ n != 0.9:
        failures.append("third-order normal contraction is inexact")
    if third @ geo.tangent @ geo.tangent @ geo.tangent != 0.0:
        failures.append("third-order tangential contraction should vanish")

    circle_geo = front_geometry(CircleFront(0.0, 0.0, 2.0, radial_speed=1.0), (2.0, 0.0, 0.0))
    want = -1.7 / 2.0
    got = required_third_amplitude(1.7, circle_geo)
    if abs(got - want) > 1e-15 * abs(want):
        failures.append(f"curved-front third amplitude {got!r} != {want!r}")
    if required_third_amplitude(1.7, geo) != 0.0:
        failures.append("straight-front third amplitude must be exactly zero")

    rec = extract_jumps(wave, point)
    lam_want = wave.c1 * wave.omega**2
    if abs(rec.lambda_ - lam_want) > 1e-12 * abs(lam_want):
        failures.append(f"extracted lambda {rec.lambda_:.15e} != c1 omega^2")
    if abs(rec.mu - 2 * wave.c2) > 1e-12 * abs(2 * wave.c2):
        failures.append(f"extracted mu {rec.mu:.15e} != 2 c2")
    if float(rec.jump.w[..., S111]) != 0.0:
        failures.append("traveling wave carries a spurious third-order normal jump")

    passed = not failures
    _verdict(capsys, 3, "rank-one jump kernels and extracted amplitudes", passed,
             "; ".join(failures) if failures else
             "contraction and time-consistency exact, lambda and mu within 1e-12")
    assert passed, failures


def test_acceptance_4_dynamic_and_regional_admissibility(capsys):
    rng = np.random.default_rng(404)
    region = Region(-0.8, 0.9, -0.6, 0.7)
    worst_dyn = 0.0
    worst_bal = 0.0
    for k in range(20):
        c = rng.uniform(0.5, 1.4)
        wave = acceleration_wave(
            invariant_solution(rng.uniform(-0.6, 0.6, 4), rng.uniform(-0.6, 0.6, 4), c, MODERATE),
            c1=rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]),
            c2=rng.uniform(-0.8, 0.8),
        )
        t = rng.uniform(-0.3, 0.5)
        rec = extract_jumps(wave, (c * t, rng.uniform(-1.0, 1.0), t))
        r_w, r_phi = dynamic_jump_residuals(rec, MODERATE)
        s_w, s_phi = dynamic_jump_scales(rec, MODERATE)
        worst_dyn = max(worst_dyn, abs(r_w) / max(1.0, s_w), abs(r_phi) / max(1.0, s_phi))

        if k < 6:
            for key in (1, 14):
                report = balance_residual(wave, key, region, 0.1)
                scale = max(1.0, abs(report.time_derivative), abs(report.flux_integral))
                worst_bal = max(worst_bal, abs(report.residual) / scale)

    passed = worst_dyn < 1e-9 and worst_bal < 1e-5
    _verdict(capsys, 4, "waves satisfy the dynamic conditions and fundamental balances",
             passed, f"worst dynamic {worst_dyn:.2e}, worst straddling balance {worst_bal:.2e}")
    assert passed


def _energy_solved_u3(c1, c2, phi2, omega, p):
    deh = p.D * p.Eh
    return (deh * omega**4 * c1 * c1 - 4 * c2 * c2 - 8 * c2 * phi2) / (2 * deh * omega**4 * c1)


def _scaled_closed(law_key, wave, point, p):
    rec = extract_jumps(wave, point)
    value = closed_form_jump_residual(law_key, rec, p)
    return abs(value) / max(1.0, balance_jump_scale(law_key, rec, p))


def test_acceptance_5_reduction_to_amplitude_relations(capsys):
    p = MODERATE
    rng = np.random.default_rng(505)
    tau, band = 1e-9, 10.0
    failures = []

    for i in range(100):
        c = rng.uniform(0.6, 1.6)
        omega = c * math.sqrt(p.rho / p.D)
        u1, u2 = rng.uniform(-0.8, 0.8, 2)
        phi1, phi2 = rng.uniform(-0.8, 0.8, 2)
        c1 = rng.uniform(0.3, 1.2) * (-1.0 if i % 2 else 1.0)
        c2 = rng.uniform(0.1, 0.9) * (-1.0 if i % 3 else 1.0)
        base_u = (0.2, u1, u2, None)
        base_phi = (0.0, phi1, phi2, -0.1)
        front_pts = ((0.0, 0.4, 0.0), (c, -0.2, 1.0))

        # both relations solved: every closed-form residual sits at roundoff
        u3 = _energy_solved_u3(c1, c2, phi2, omega, p)
        phi1_solved = p.D * p.Eh * omega**2 * c1 * (u1 + omega * u2) / (2 * c2)
        good = acceleration_wave(
            invariant_solution((0.2, u1, u2, u3), (0.0, phi1_solved, phi2, -0.1), c, p), c1, c2
        )
        r1, r2 = amplitude_relation_residuals(good)
        s1, s2 = amplitude_relation_scales(good)
        if abs(r1) > tau * max(1.0, s1) or abs(r2) > 1e-6 * max(1.0, s2):
            failures.append(f"draw {i}: construction failed to solve the relations")
            continue
        if _scaled_closed("energy", good, front_pts[0], p) > band * tau:
            failures.append(f"draw {i}: energy residual does not vanish with r1")
        if max(_scaled_closed("scaling", good, pt, p) for pt in front_pts) > band * tau:
            failures.append(f"draw {i}: scaling residual does not vanish with r1, r2")

        # energy relation violated: the energy residual must move off zero
        bad = acceleration_wave(
            invariant_solution(
                (0.2, u1, u2, u3 + rng.uniform(0.2, 0.8)), (0.0, phi1_solved, phi2, -0.1), c, p
            ),
            c1, c2,
        )
        r1, _ = amplitude_relation_residuals(bad)
        if abs(r1) <= 1e-3 * max(1.0, amplitude_relation_scales(bad)[0]):
            failures.append(f"draw {i}: violating draw landed too close to the relation")
        elif _scaled_closed("energy", bad, front_pts[0], p) <= band * tau:
            failures.append(f"draw {i}: energy residual missed an r1 violation")
        elif max(_scaled_closed("scaling", bad, pt, p) for pt in front_pts) <= band * tau:
            failures.append(f"draw {i}: scaling residual missed an r1 violation")

        # scaling relation violated on its own
        lopsided = acceleration_wave(
            invariant_solution(
                (0.2, u1, u2, u3), (0.0, phi1_solved + rng.uniform(0.3, 0.9), phi2, -0.1), c, p
            ),
            c1, c2,
        )
        if max(_scaled_closed("scaling", lopsided, pt, p) for pt in front_pts) <= band * tau:
            failures.append(f"draw {i}: scaling residual missed an r2 violation")

    # with c2 = 0 the second relation pivots on u1 = -omega u2
    omega = 1.3 * math.sqrt(p.rho / p.D)
    aligned = acceleration_wave(
        invariant_solution((0.2, -omega * 0.7, 0.7, 0.4), (0, 0, 0.3, 0), 1.3, p), 0.9, 0.0
    )
    if amplitude_relation_residuals(aligned)[1] != 0.0:
        failures.append("c2 = 0 with u1 = -omega u2 must zero the second relation")
    skewed = acceleration_wave(
        invariant_solution((0.2, -omega * 0.7 + 0.3, 0.7, 0.4), (0, 0, 0.3, 0), 1.3, p), 0.9, 0.0
    )
    r2 = amplitude_relation_residuals(skewed)[1]
    if abs(r2) <= 1e-6 * max(1.0, amplitude_relation_scales(skewed)[1]):
        failures.append("c2 = 0 with u1 != -omega u2 must violate the second relation")

    passed = not failures
    _verdict(capsys, 5, "closed-form residuals vanish exactly with the amplitude relations",
             passed, failures[0] if failures else "100 draws, bidirectional at band 10 x 1e-9")
    assert passed, failures


def test_acceptance_6_selection_rules(capsys):
    p = MODERATE
    rng = np.random.default_rng(606)
    worst_forced = math.inf
    worst_com = 0.0
    for _ in range(100):
        c = rng.uniform(0.5, 1.6)
        wave = acceleration_wave(
            invariant_solution(rng.uniform(-0.8, 0.8, 4), rng.uniform(-0.8, 0.8, 4), c, p),
            c1=rng.uniform(0.2, 1.2) * rng.choice([-1.0, 1.0]),
            c2=rng.uniform(-0.9, 0.9),
        )
        t = rng.uniform(0.2, 1.0)
        rec = extract_jumps(wave, (c * t, rng.uniform(-1.0, 1.0), t))

        forced = max(
            abs(balance_jump_residual(key, rec, p)) / max(1.0, balance_jump_scale(key, rec, p))
            for key in (7, 8, 10, 11)
        )
        worst_forced = min(worst_forced, forced)

        com = abs(balance_jump_residual(9, rec, p)) / max(1.0, balance_jump_scale(9, rec, p))
        worst_com = max(worst_com, com)

    passed = worst_forced > 1e-6 and worst_com < 1e-12
    _verdict(capsys, 6, "angular and boost balances always break, center of mass never does",
             passed, f"min forced residual {worst_forced:.2e}, max center-of-mass {worst_com:.2e}")
    assert passed


def test_acceptance_7_transport_cross_validation(capsys):
    p = MODERATE
    region = Region(-0.8, 0.9, -0.6, 0.7)
    deh = p.D * p.Eh
    c, c1, c2, phi2 = 1.1, 0.8, 0.45, 0.25
    omega = c * math.sqrt(p.rho / p.D)
    waves = {
        "satisfying": acceleration_wave(
            invariant_solution(
                (0.1, 0.05, -0.2, _energy_solved_u3(c1, c2, phi2, omega, p)),
                (0.0, 0.2, phi2, -0.1), c, p,
            ), c1, c2,
        ),
        "violating": acceleration_wave(
            invariant_solution((0.1, 0.05, -0.2, 0.31), (0.0, 0.2, phi2, -0.1), c, p), c1, c2
        ),
    }
    worst = 0.0
    nonzero_seen = False
    for wave in waves.values():
        for key in (1, 4, 2, 14):
            report = balance_residual(wave, key, region, 0.12)
            line = front_segment_jump_integral(wave, key, region, 0.12)
            rel = abs(report.residual - line) / max(1.0, abs(report.residual), abs(line))
            worst = max(worst, rel)
            nonzero_seen = nonzero_seen or abs(line) > 1e-2
    passed = worst < 1e-5 and nonzero_seen
    _verdict(capsys, 7, "regional balances equal the independent front-line quadrature",
             passed, f"worst relative mismatch {worst:.2e} over laws 1, 2, 4, 14")
    assert passed


def test_acceptance_8_jet_oracle(capsys):
    # every slot of each family's fill against its exact sympy jet, in
    # units of the spacing of the field's largest slot at the point
    p = MODERATE
    rng = np.random.default_rng(808)
    worst = 0.0

    for _ in range(3):
        sol = invariant_solution(
            rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), rng.uniform(0.5, 1.2), p
        )
        point = rng.uniform(-0.8, 0.8, 3)
        worst = max(worst, ulps_from_exact(sol.jet(point), ExactJets(*closed_form(sol))(point)))

    poly = polynomial_field(
        {(3, 0, 0): 1.0, (1, 1, 1): -2.0, (0, 0, 2): 0.7},
        {(2, 2, 0): 0.5, (0, 4, 0): -0.3},
        p,
    )
    points = rng.uniform(-0.8, 0.8, (3, 3))
    worst = max(worst, ulps_from_exact(poly.jet(points), ExactJets(*closed_form(poly))(points)))

    wave = acceleration_wave(
        invariant_solution((0.2, 0.1, 0.4, -0.3), (0.0, 0.5, 0.3, 0.1), 0.8, p), 0.6, 0.2
    )
    branches = {side: ExactJets(*form) for side, form in wave_branches(wave).items()}
    t = 0.5
    front_point = (0.8 * t, 0.0, t)
    for side, exact_jets in branches.items():
        worst = max(worst, ulps_from_exact(wave.jet(front_point, side), exact_jets(front_point)))
    # a batch on both sides of the front takes the mixed fill
    points = rng.uniform(-1.0, 1.0, (40, 3))
    ahead = wave.front.value(points) > 0.0
    assert 0 < np.count_nonzero(ahead) < 40
    reference = np.empty((2, 40, 35))
    for side, at in ((Side.AHEAD, ahead), (Side.BEHIND, ~ahead)):
        reference[:, at] = branches[side](points[at])
    worst = max(worst, ulps_from_exact(wave.jet(points), reference))

    passed = worst <= 32.0
    _verdict(capsys, 8, "analytic jets match the exact symbolic jets", passed,
             f"worst error {worst:.1f} ulps of each field's largest slot across all three families")
    assert passed

"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them among the dots)."""

import math
import time

import numpy as np
import pytest

from spinsense import (
    CodeSpace,
    ErrorSet,
    EstimationConfig,
    ProjectorBasis,
    RotationAxis,
    SpinJ,
    SpinOperator,
    SpinState,
    SupportSpec,
    ae_codewords,
    anticoherence_report,
    axis_generator,
    build_spin_operators,
    construct_anticoherent,
    crb_report,
    detection_check,
    distinguishability,
    error_of_state,
    error_small_theta,
    expectation_and_variance,
    fisher_matrix,
    generator_unitary,
    kl_check,
    max_error_over_code,
    measurement_distribution,
    min_shell_gap,
    noon_state,
    qfi,
    qfi_finite_difference,
    rotation_qfi,
    statistical_distance,
    we_expectation,
)
from spinsense.wigner import dense_expectation
from helpers import random_hermitian, random_state, random_symmetric_state, random_unitary


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_qfi_identity():
    rng = np.random.default_rng(20260809)
    t0 = time.perf_counter()
    worst = 0.0
    for twice_j in (2, 3, 4, 6, 12):
        j = SpinJ(twice_j)
        for _ in range(200):
            psi = random_state(j, rng)
            g = random_hermitian(j, rng, norm=float(rng.uniform(1.0, 6.0)))
            f = qfi(psi, g)
            fd = qfi_finite_difference(psi, g, 1e-4)
            worst = max(worst, abs(fd - f) / f)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "qfi matches the finite-difference oracle at relative 1e-5",
        worst <= 1e-5 and elapsed < 10.0,
        f"worst rel {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_anticoherent_bound():
    rng = np.random.default_rng(11)
    psi3 = construct_anticoherent(SupportSpec(SpinJ(6), (0, 3)))
    worst3 = max(
        abs(rotation_qfi(psi3, RotationAxis.from_vector(rng.normal(size=3))) - 16.0)
        for _ in range(20)
    )
    psi2 = construct_anticoherent(SupportSpec(SpinJ(4), (0, 2)))
    worst2 = max(
        abs(rotation_qfi(psi2, RotationAxis.from_vector(rng.normal(size=3))) - 8.0)
        for _ in range(20)
    )
    _verdict(
        2,
        "constructed sensor states hit 4J(J+1)/3 on every axis (16 at J=3, 8 at J=2)",
        worst3 <= 1e-9 and worst2 <= 1e-9,
        f"max dev {max(worst3, worst2):.2e}",
    )


def test_criterion_3_noon_anisotropy():
    psi = noon_state(SpinJ(10))
    dev = float(np.max(np.abs(fisher_matrix(psi).matrix - np.diag([2.5, 2.5, 25.0]))))
    fz = rotation_qfi(psi, RotationAxis.z())
    _verdict(
        3,
        "extremal J=5 state shows diag(2.5, 2.5, 25) covariances and z-QFI 100",
        dev <= 1e-10 and abs(fz - 100.0) <= 1e-9,
        f"matrix dev {dev:.2e}, Fz {fz:.12g}",
    )


def test_criterion_4_ae_code_validation():
    j = SpinJ(12)
    code = ae_codewords(j, 3, 6)
    ops = build_spin_operators(j)
    ident = SpinOperator(j, np.eye(j.dim, dtype=complex), "I")
    errors = ErrorSet([ident, ops.jplus, ops.jminus, ops.jz])
    det = detection_check(code, errors, 1e-9)
    kl = kl_check(code, errors, 1e-9)
    first_order = all(anticoherence_report(w, 1e-9).order1 for w in code.codewords)
    second_moments = [
        expectation_and_variance(w, ops.jz)[1] + expectation_and_variance(w, ops.jz)[0] ** 2
        for w in code.codewords
    ]
    moments_ok = all(abs(m - 9.0) <= 1e-9 for m in second_moments)
    kl_diag = kl.c_matrix[1, 1]
    diag_ok = abs(kl_diag - 33.0) <= 1e-9
    _verdict(
        4,
        "AE(J=6, m1=3, m2=6) passes detection and KL at 1e-9 with the stated moments",
        det.passed and kl.passed and first_order and moments_ok and diag_ok,
        f"violations {det.violation:.2e}/{kl.violation:.2e}, <J-J+> {kl_diag.real:.6f}",
    )


def test_criterion_5_error_linearization():
    rng = np.random.default_rng(5)
    ok = True
    worst_ratio = 0.0
    for _ in range(100):
        j = SpinJ(int(rng.integers(1, 11)))
        psi = random_state(j, rng)
        norm = float(rng.uniform(0.5, 6.0))
        g = random_hermitian(j, rng, norm=norm)
        for theta in (1e-2, 1e-3):
            gap = abs(error_of_state(psi, generator_unitary(g, theta)) - error_small_theta(psi, g, theta))
            bound = 10.0 * theta**3 * norm**3
            worst_ratio = max(worst_ratio, gap / bound)
            ok = ok and gap <= bound
    _verdict(
        5,
        "error of state matches its quadratic form within 10 theta^3 |G|^3",
        ok,
        f"worst gap/bound {worst_ratio:.2e}",
    )


def test_criterion_6_cramer_rao_saturation():
    t0 = time.perf_counter()
    j = SpinJ(4)
    config = EstimationConfig(
        psi=noon_state(j),
        generator=build_spin_operators(j).jz,
        theta_true=0.05,
        trials_per_run=100_000,
        runs=200,
        seed=42,
    )
    result = crb_report(config)
    elapsed = time.perf_counter() - t0
    crb_ok = abs(result.crb_sigma - 7.905694150420947e-4) <= 1e-12
    _verdict(
        6,
        "empirical sigma over 200 runs sits within 10% of 1/sqrt(N*16)",
        crb_ok and 0.9 <= result.ratio <= 1.1 and elapsed < 10.0,
        f"ratio {result.ratio:.4f}, {elapsed:.2f}s",
    )


def test_criterion_7_wigner_eckart_equivalence():
    rng = np.random.default_rng(7)
    worst_match = 0.0
    worst_q1 = 0.0
    gap2_seen = 0
    for twice_j in (4, 6, 12):
        j = SpinJ(twice_j)
        for trial in range(200):
            min_gap = 2 if trial % 2 else 1
            psi = random_symmetric_state(j, rng, min_gap=min_gap)
            for k in (1, 2):
                for q in range(-k, k + 1):
                    gap_val = abs(we_expectation(psi, k, q) - dense_expectation(psi, k, q))
                    worst_match = max(worst_match, gap_val)
            occupied = sorted(
                int(tm) // 2
                for tm, a in zip(j.twice_m_values(), psi.amplitudes)
                if abs(a) > 0
            )
            gaps = [b - a for a, b in zip(occupied, occupied[1:])]
            if gaps and min(gaps) >= 2:
                gap2_seen += 1
                for k in (1, 2):
                    for q in (-1, 1):
                        worst_q1 = max(worst_q1, abs(we_expectation(psi, k, q)))
    _verdict(
        7,
        "coefficient-sum expectations equal dense algebra; q=+-1 vanish for gap >= 2",
        worst_match <= 1e-10 and worst_q1 <= 1e-12 and gap2_seen >= 200,
        f"worst match {worst_match:.2e}, worst q1 {worst_q1:.2e}, {gap2_seen} gapped states",
    )


def test_criterion_8_distinguishability_maximization():
    rng = np.random.default_rng(8)
    j = SpinJ(4)
    psi = random_state(j, rng)
    phi = random_state(j, rng)
    lam = distinguishability(psi, phi).angle
    exceed = 0.0
    for _ in range(50):
        u = random_unitary(j.dim, rng)
        basis = ProjectorBasis.from_states([SpinState(j, u[:, k]) for k in range(j.dim)])
        omega = statistical_distance(
            measurement_distribution(psi, basis), measurement_distribution(phi, basis)
        ).omega
        exceed = max(exceed, omega - lam)
    p_yes = float(
        np.real(np.vdot(phi.amplitudes, np.outer(psi.amplitudes, psi.amplitudes.conj()) @ phi.amplitudes))
    )
    attained = math.acos(math.sqrt(min(max(p_yes, 0.0), 1.0)))
    _verdict(
        8,
        "no projector basis beats the two-state angle; the two-outcome basis attains it",
        exceed <= 1e-9 and abs(attained - lam) <= 1e-10,
        f"max excess {exceed:.2e}, attainment gap {abs(attained - lam):.2e}",
    )


def test_criterion_9_existence_sweep():
    ok = True
    details = []
    for jphys in range(3, 11):
        target = jphys * (jphys + 1) / 3.0
        shell = max(3, math.ceil(math.sqrt(target)))
        spec = SupportSpec(SpinJ(2 * jphys), (0, shell))
        assert min_shell_gap(spec) >= 3
        rep = anticoherence_report(construct_anticoherent(spec), 1e-9)
        ok = ok and rep.order1 and rep.order2
        details.append(f"J={jphys}:m={shell}")
    _verdict(
        9,
        "a gap >= 3 support works for every integer J in 3..10",
        ok,
        " ".join(details),
    )


def test_criterion_10_correction_and_sensing_are_one_property():
    # Knill-Laflamme for {Jx, Jy, Jz} gives every unit vector of the code the
    # same <J_a J_b> = C_ab, and the AE codewords have zero first moments, so
    # three routes that share no code give one number per axis u: the
    # worst-codeword variance of u.J (the convex dual), u^T Re(C) u (the stacked
    # KL blocks) and u^T M u (the ladder moments of each codeword)
    rng = np.random.default_rng(10)
    theta = 0.1
    worst = 0.0
    codes = 0
    passed = True
    for twice_j in range(12, 41, 2):
        j = SpinJ(twice_j)
        ops = build_spin_operators(j)
        errors = ErrorSet([ops.jx, ops.jy, ops.jz])
        for m1 in range(3, twice_j // 2 - 2):
            for m2 in range(m1 + 3, twice_j // 2 + 1):
                code = ae_codewords(j, m1, m2)
                kl = kl_check(code, errors, 1e-9)
                passed = passed and kl.passed
                moments = [fisher_matrix(w).matrix for w in code.codewords]
                for _ in range(3):
                    axis = RotationAxis.from_vector(rng.normal(size=3))
                    u = axis.u
                    dual = max_error_over_code(code, axis_generator(j, axis), theta)[1] / theta**2
                    routes = [dual, float(u @ kl.c_matrix.real @ u)] + [float(u @ m @ u) for m in moments]
                    worst = max(worst, (max(routes) - min(routes)) / max(routes))
                codes += 1
    _verdict(
        10,
        "worst-codeword variance = u^T Re(C_KL) u = u^T M u on every AE code with 2J = 12..40",
        # (J - 5)(J - 4)/2 codes at each J = 6..20
        passed and worst <= 1e-12 and codes == 680,
        f"{codes} codes x 3 axes, largest relative disagreement {worst:.2e}",
    )


def test_criterion_11_ae_codes_that_sense_every_rotation():
    # C_KL for {Jx, Jy, Jz} on an AE code is diag((J(J+1) - m1^2)/2, same, m1^2),
    # which is J(J+1)/3 times I, the covariance of a 2-anticoherent state, iff
    # m1^2 = J(J+1)/3: the Pell equation (2J + 1)^2 - 12 m1^2 = 1.  Its solutions
    # with m1 >= 3 and 2J <= 4096 are (48, 28) and (675, 390); every valid m2 of
    # both is checked by four routes that share no code
    rng = np.random.default_rng(11)
    theta = 0.1
    t0 = time.perf_counter()
    worst = {"kl": 0.0, "moments": 0.0, "construct": 0.0, "dual": 0.0}
    passed = True
    codes = duals = 0
    for jphys, m1, sampled in ((48, 28, None), (675, 390, 2)):
        assert (2 * jphys + 1) ** 2 - 12 * m1 * m1 == 1
        j = SpinJ(2 * jphys)
        target = jphys * (jphys + 1) / 3.0
        ops = build_spin_operators(j)
        errors = ErrorSet([ops.jx, ops.jy, ops.jz])
        w0 = construct_anticoherent(SupportSpec(j, (m1,)))
        m2s = range(m1 + 3, jphys + 1)
        # the dual on every code at J = 48; at J = 675 on both ends and a seeded sample
        dual_m2s = set(m2s) if sampled is None else {m2s[0], m2s[-1], *rng.choice(m2s, sampled).tolist()}
        for m2 in m2s:
            code = ae_codewords(j, m1, m2)
            kl = kl_check(code, errors, 1e-12 * target)
            passed = passed and kl.passed
            worst["kl"] = max(worst["kl"], float(np.max(np.abs(kl.c_matrix - target * np.eye(3)))) / target)
            for w in code.codewords:
                # anticoherence_report takes an absolute tolerance: state it relative to J(J+1)/3
                rep = anticoherence_report(w, 1e-14 * target)
                passed = passed and rep.order1 and rep.order2
                worst["moments"] = max(worst["moments"], rep.max_first_moment / target,
                                       rep.max_matrix_deviation / target)
            w1 = construct_anticoherent(SupportSpec(j, (0, m2)))
            for word, built in zip(code.codewords, (w0, w1)):
                worst["construct"] = max(worst["construct"],
                                         float(np.max(np.abs(word.amplitudes - built.amplitudes))))
            if m2 in dual_m2s:
                g = axis_generator(j, RotationAxis.from_vector(rng.normal(size=3)))
                variance = max_error_over_code(code, g, theta)[1] / theta**2
                worst["dual"] = max(worst["dual"], abs(variance - target) / target)
                duals += 1
            codes += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        11,
        "AE codes with m1^2 = J(J+1)/3 have C_KL = J(J+1)/3 I and 2-anticoherent codewords",
        passed
        and codes == 18 + 283
        and worst["kl"] <= 1e-14
        and worst["moments"] <= 1e-14
        and worst["construct"] <= 1e-15
        and worst["dual"] <= 1e-12,
        f"{codes} codes, {duals} duals, worst relative KL {worst['kl']:.1e}, moments "
        f"{worst['moments']:.1e}, dual {worst['dual']:.1e}, construct {worst['construct']:.1e}, "
        f"{elapsed:.1f}s",
    )

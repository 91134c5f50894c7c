import itertools
import math

import numpy as np
import pytest

from spinsense import (
    FeasibilityError,
    RotationAxis,
    SpacingError,
    SpinJ,
    SupportSpec,
    ae_codewords,
    anticoherence_report,
    axis_generator,
    basis_state,
    build_spin_operators,
    construct_anticoherent,
    expectation_and_variance,
    fisher_matrix,
    min_shell_gap,
    noon_state,
    qfi,
    rotation_qfi,
)
from helpers import random_state, random_symmetric_state
from spinsense import sensing


def test_fisher_matrix_noon_j5():
    fm = fisher_matrix(noon_state(SpinJ(10)))
    # dividing by the computed norm removes the 1/sqrt2 round-off
    np.testing.assert_array_equal(fm.matrix, np.diag([2.5, 2.5, 25.0]))


def test_fisher_matrix_coherent_top_level():
    fm = fisher_matrix(basis_state(SpinJ(10), 10))
    assert np.allclose(fm.matrix, np.diag([2.5, 2.5, 0.0]), atol=1e-12)


def test_fisher_matrix_anticoherent_isotropic():
    psi = construct_anticoherent(SupportSpec(SpinJ(6), (0, 3)))
    assert np.max(np.abs(fisher_matrix(psi).matrix - 4.0 * np.eye(3))) < 1e-10


def test_fisher_matrix_trace_identity():
    rng = np.random.default_rng(101)
    ops_cache = {}
    for twice_j in (2, 3, 5, 8):
        j = SpinJ(twice_j)
        ops = ops_cache.setdefault(twice_j, build_spin_operators(j))
        for _ in range(20):
            psi = random_state(j, rng)
            means = [expectation_and_variance(psi, op)[0] for op in (ops.jx, ops.jy, ops.jz)]
            expected = j.j * (j.j + 1.0) - sum(m * m for m in means)
            assert fisher_matrix(psi).trace == pytest.approx(expected, abs=1e-10)


def test_fisher_matrix_positive_semidefinite():
    rng = np.random.default_rng(113)
    for twice_j in (1, 4, 9):
        for _ in range(20):
            m = fisher_matrix(random_state(SpinJ(twice_j), rng)).matrix
            assert np.allclose(m, m.T)
            assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_rotation_qfi_noon_j5():
    psi = noon_state(SpinJ(10))
    assert rotation_qfi(psi, RotationAxis.z()) == pytest.approx(100.0, rel=1e-12)
    assert rotation_qfi(psi, RotationAxis.x()) == pytest.approx(10.0, rel=1e-12)


def test_rotation_qfi_matches_generator_route():
    rng = np.random.default_rng(103)
    for twice_j in (2, 5, 8):
        j = SpinJ(twice_j)
        for _ in range(10):
            psi = random_state(j, rng)
            u = RotationAxis.from_vector(rng.normal(size=3))
            assert rotation_qfi(psi, u) == pytest.approx(
                qfi(psi, axis_generator(j, u)), abs=1e-10
            )


def test_anticoherent_state_axis_independent_qfi():
    psi = construct_anticoherent(SupportSpec(SpinJ(6), (0, 3)))
    rng = np.random.default_rng(107)
    for _ in range(20):
        u = RotationAxis.from_vector(rng.normal(size=3))
        assert rotation_qfi(psi, u) == pytest.approx(16.0, abs=1e-9)


def test_anticoherence_report_cases():
    # stretched state: order-1 fails outright
    rep = anticoherence_report(basis_state(SpinJ(12), 12), 1e-10)
    assert not rep.order1
    assert rep.max_first_moment == pytest.approx(6.0, abs=1e-12)
    # AE codeword: first order holds, second order misses (<Jz^2> = 9 != 14)
    w0 = ae_codewords(SpinJ(12), 3, 6).codewords[0]
    rep = anticoherence_report(w0, 1e-9)
    assert rep.order1 and not rep.order2
    assert rep.max_matrix_deviation == pytest.approx(14.0 - 9.0, abs=1e-9)
    # constructed sensor state: both orders hold
    psi = construct_anticoherent(SupportSpec(SpinJ(6), (0, 3)))
    rep = anticoherence_report(psi, 1e-10)
    assert rep.order1 and rep.order2


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9, True, np.True_])
def test_anticoherence_report_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        anticoherence_report(noon_state(SpinJ(4)), tol)


def test_noon_state_properties():
    half = noon_state(SpinJ(1))
    assert np.allclose(np.abs(half.amplitudes), [1 / math.sqrt(2)] * 2)
    j = SpinJ(4)
    _, var = expectation_and_variance(noon_state(j), build_spin_operators(j).jz)
    assert var == pytest.approx(4.0, rel=1e-12)
    rep = anticoherence_report(noon_state(SpinJ(7)), 1e-10)
    assert rep.order1


def test_min_shell_gap_examples():
    j3 = SpinJ(6)
    assert min_shell_gap(SupportSpec(j3, (0, 3))) == 3
    assert min_shell_gap(SupportSpec(j3, (0, 2))) == 2
    assert min_shell_gap(SupportSpec(j3, (3,))) == 6
    assert min_shell_gap(SupportSpec(SpinJ(12), (1, 4, 6))) == 2


def test_construct_j3_two_shell_weights():
    psi = construct_anticoherent(SupportSpec(SpinJ(6), (0, 3)))
    assert abs(psi.amplitude(0)) ** 2 == pytest.approx(5.0 / 9.0, abs=1e-14)
    assert abs(psi.amplitude(6)) ** 2 == pytest.approx(2.0 / 9.0, abs=1e-14)
    assert abs(psi.amplitude(-6)) ** 2 == pytest.approx(2.0 / 9.0, abs=1e-14)
    # real amplitudes for a gap >= 3 support
    assert np.max(np.abs(psi.amplitudes.imag)) == 0.0


def test_construct_j2_gap2_phase_rule():
    psi = construct_anticoherent(SupportSpec(SpinJ(4), (0, 2)))
    assert abs(psi.amplitude(0)) ** 2 == pytest.approx(0.5, abs=1e-14)
    assert abs(psi.amplitude(4)) ** 2 == pytest.approx(0.25, abs=1e-14)
    # alternating rule: m=0 real, m=2 purely imaginary
    assert psi.amplitude(0).imag == 0.0
    assert psi.amplitude(4).real == pytest.approx(0.0, abs=1e-15)
    rep = anticoherence_report(psi, 1e-9)
    assert rep.order1 and rep.order2


def test_construct_infeasible_support():
    with pytest.raises(FeasibilityError):
        construct_anticoherent(SupportSpec(SpinJ(6), (0, 1)))  # 1 < J(J+1)/3 = 4
    with pytest.raises(FeasibilityError):
        construct_anticoherent(SupportSpec(SpinJ(6), (3,)))  # moment pinned at 9 != 4


def test_construct_spacing_errors():
    # feasible targets, so the spacing rules are what reject these
    with pytest.raises(SpacingError):
        construct_anticoherent(SupportSpec(SpinJ(12), (0, 4, 5)))  # gap 1
    with pytest.raises(SpacingError):
        construct_anticoherent(SupportSpec(SpinJ(6), (1, 3)))  # gap 2 with m=1 occupied


def test_construct_maxent_mass_profile():
    # three shells leave one degree of freedom; maximum entropy makes the
    # shell masses log-linear in m^2
    j = SpinJ(12)
    psi = construct_anticoherent(SupportSpec(j, (0, 3, 6)))
    ops = build_spin_operators(j)
    mean_z, var_z = expectation_and_variance(psi, ops.jz)
    assert mean_z == pytest.approx(0.0, abs=1e-13)
    assert var_z == pytest.approx(14.0, abs=1e-10)
    masses = {
        0: abs(psi.amplitude(0)) ** 2,
        3: 2 * abs(psi.amplitude(6)) ** 2,
        6: 2 * abs(psi.amplitude(12)) ** 2,
    }
    assert sum(masses.values()) == pytest.approx(1.0, abs=1e-12)
    logs = {m: math.log(p) for m, p in masses.items()}
    slope_a = (logs[3] - logs[0]) / 9.0
    slope_b = (logs[6] - logs[3]) / (36.0 - 9.0)
    assert slope_a == pytest.approx(slope_b, rel=1e-8)


def test_construct_symmetric_diagonal_invariants():
    rng = np.random.default_rng(109)
    # real symmetric states with signed gap >= 2 have a diagonal matrix
    for _ in range(30):
        psi = random_symmetric_state(SpinJ(12), rng, min_gap=2, real=True)
        m = fisher_matrix(psi).matrix
        assert np.max(np.abs(m - np.diag(np.diag(m)))) < 1e-10
    # with gap >= 3 the two transverse diagonals also agree
    for _ in range(30):
        psi = random_symmetric_state(SpinJ(12), rng, min_gap=3, real=True)
        m = fisher_matrix(psi).matrix
        assert m[0, 0] == pytest.approx(m[1, 1], abs=1e-10)


@pytest.mark.parametrize("jphys", range(3, 11))
def test_existence_sweep_gap3_supports(jphys):
    target = jphys * (jphys + 1) / 3.0
    shell = max(3, math.ceil(math.sqrt(target)))
    assert shell <= jphys
    spec = SupportSpec(SpinJ(2 * jphys), (0, shell))
    assert min_shell_gap(spec) >= 3
    psi = construct_anticoherent(spec)
    rep = anticoherence_report(psi, 1e-9)
    assert rep.order1 and rep.order2


def test_support_spec_validation_and_json():
    with pytest.raises(ValueError):
        SupportSpec(SpinJ(6), (0, 4))  # shell above J
    with pytest.raises(ValueError):
        SupportSpec(SpinJ(6), (2, 2))
    with pytest.raises(ValueError):
        SupportSpec(SpinJ(5), (0, 2))  # half-integer J has no integer shells
    spec = SupportSpec(SpinJ(8), (2, 4), include_zero=True)
    doc = spec.to_json_dict()
    assert doc == {"twice_j": 8, "support": [2, 4], "include_zero": True}
    back = SupportSpec.from_json_dict(doc)
    assert back.shells() == (0, 2, 4)


def test_alignment_angle_diagnostic():
    fm = fisher_matrix(noon_state(SpinJ(10)))
    assert fm.alignment_angle(RotationAxis.z()) == pytest.approx(0.0, abs=1e-12)
    fm_iso = fisher_matrix(construct_anticoherent(SupportSpec(SpinJ(6), (0, 3))))
    u = RotationAxis.from_vector([1.0, 1.0, 1.0])
    assert fm_iso.alignment_angle(u) == pytest.approx(0.0, abs=1e-10)


def test_a_lone_shell_at_the_target_moment():
    # 2J = 6: m^2 = 4 is J(J+1)/3, so the one shell takes all the mass
    psi = construct_anticoherent(SupportSpec(SpinJ(6), (2,)))
    expected = np.zeros(7, dtype=complex)
    expected[[1, 5]] = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(psi.amplitudes, expected, rtol=0.0, atol=1e-15)
    rep = anticoherence_report(psi, 1e-12)
    assert rep.order1 and rep.order2
    with pytest.raises(FeasibilityError):
        construct_anticoherent(SupportSpec(SpinJ(6), (3,)))


def test_j_zero_is_its_own_anticoherent_state():
    spec = SupportSpec(SpinJ(0), (0,))
    assert min_shell_gap(spec) == math.inf
    psi = construct_anticoherent(spec)
    assert psi.amplitudes.tolist() == [1.0 + 0.0j]
    rep = anticoherence_report(psi, 1e-12)
    assert rep.order1 and rep.order2
    assert rep.max_first_moment == 0.0 and rep.max_matrix_deviation == 0.0


def test_every_entropy_solve_is_bracketed_by_minus_one_and_one(monkeypatch):
    # every support of 3 to 7 shells at 2J <= 24 that reaches the solve: the
    # target sits at least 1/3 from both end values, and at lam = -1 (+1) the
    # moment lies within sum 4k e^(-4k) < 0.08 of the top (bottom) end value,
    # so [-1, 1] brackets lam with no search (sensing._solve_shell_masses)
    seen = []
    solve = sensing._solve_shell_masses

    def recorded(values, target):
        seen.append((np.array(values), target))
        return solve(values, target)

    monkeypatch.setattr(sensing, "_solve_shell_masses", recorded)
    for twice_j in range(0, 25, 2):
        for size in range(3, 8):
            for shells in itertools.combinations(range(twice_j // 2 + 1), size):
                before = len(seen)
                try:
                    construct_anticoherent(SupportSpec(SpinJ(twice_j), shells))
                except (FeasibilityError, SpacingError):
                    assert len(seen) == before  # refused before the solve
    # the suspect {0, 1, 2} with its target 4 at 2J = 6 is refused by its spacing
    with pytest.raises(SpacingError):
        construct_anticoherent(SupportSpec(SpinJ(6), (0, 1, 2)))
    solved = [(v, t) for v, t in seen if min(t - v.min(), v.max() - t) > 1e-12 * t]
    assert len(solved) == len(seen) == 854
    for values, target in solved:
        assert min(target - values.min(), values.max() - target) >= 1.0 / 3.0 - 1e-12
        for lam, end in ((-1.0, values.max()), (1.0, values.min())):
            logits = -lam * values
            masses = np.exp(logits - logits.max())
            assert abs(masses @ values / masses.sum() - end) < 0.08

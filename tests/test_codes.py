import math

import numpy as np
import pytest

from spinsense import (
    CodeSpace,
    ErrorSet,
    RecoverySet,
    SpinJ,
    SpinOperator,
    SpinState,
    ae_codewords,
    basis_state,
    build_spin_operators,
    detection_check,
    dfs_check,
    distinguishability,
    error_of_state,
    error_small_theta,
    error_with_recovery,
    expectation_and_variance,
    fisher_matrix,
    generator_unitary,
    kl_check,
    max_error_over_code,
    noon_state,
    rotation_unitary,
    RotationAxis,
)
from helpers import random_hermitian, random_state, random_unitary

J6 = SpinJ(12)


def _identity(j):
    return SpinOperator(j, np.eye(j.dim, dtype=complex), "I")


def _ae_code():
    return ae_codewords(J6, 3, 6)


def test_detection_identity_error_is_clean():
    code = _ae_code()
    rep = detection_check(code, ErrorSet([_identity(J6)]), 1e-12)
    assert rep.passed
    assert rep.violation == pytest.approx(0.0, abs=1e-14)
    assert rep.c_matrix[0] == pytest.approx(1.0, abs=1e-14)


def test_detection_ae_code_passes_ladder_errors():
    ops = build_spin_operators(J6)
    rep = detection_check(_ae_code(), ErrorSet([ops.jz, ops.jplus, ops.jminus]), 1e-10)
    assert rep.passed


def test_detection_catches_ladder_shuffle():
    j = SpinJ(4)
    code = CodeSpace(j, [basis_state(j, 2), basis_state(j, 4)])
    rep = detection_check(code, ErrorSet([build_spin_operators(j).jplus]), 1e-10)
    assert not rep.passed
    # <2,2|J+|2,1> = sqrt(6 - 2) = 2 shows up as the shuffle magnitude
    assert rep.max_off_diagonal == pytest.approx(2.0, abs=1e-12)
    assert rep.violation == pytest.approx(2.0, abs=1e-12)


def test_kl_identity_error_is_clean():
    rep = kl_check(_ae_code(), ErrorSet([_identity(J6)]), 1e-12)
    assert rep.passed
    assert rep.c_matrix[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_kl_ae_code_with_ladder_set():
    ops = build_spin_operators(J6)
    errors = ErrorSet([_identity(J6), ops.jplus, ops.jminus, ops.jz])
    rep = kl_check(_ae_code(), errors, 1e-9)
    assert rep.passed
    # both codewords see <J- J+> = 33: (30+36)/2 and 0.75*42 + 0.125*12
    assert rep.c_matrix[1, 1].real == pytest.approx(33.0, abs=1e-9)
    assert abs(rep.c_matrix[1, 1].imag) < 1e-12


def test_kl_rejects_neighbouring_levels():
    code = CodeSpace(J6, [basis_state(J6, 6), basis_state(J6, 8)])
    ops = build_spin_operators(J6)
    rep = kl_check(code, ErrorSet([ops.jplus, ops.jminus]), 1e-9)
    assert not rep.passed
    # <3|J-J+|3> = 30 vs <4|J-J+|4> = 22: spread 4 around the mean 26
    assert rep.max_diagonal_spread == pytest.approx(4.0, abs=1e-12)


def test_empty_sets_rejected():
    with pytest.raises(ValueError):
        ErrorSet([])
    with pytest.raises(ValueError):
        CodeSpace(J6, [])
    with pytest.raises(ValueError):
        RecoverySet([])


def test_non_orthonormal_codewords_rejected():
    j = SpinJ(2)
    v = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError):
        CodeSpace(j, [SpinState(j, v), basis_state(j, 2)])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_checks_reject_bad_tolerance(tol):
    errors = ErrorSet([_identity(J6)])
    with pytest.raises(ValueError, match="tolerance"):
        detection_check(_ae_code(), errors, tol)
    with pytest.raises(ValueError, match="tolerance"):
        kl_check(_ae_code(), errors, tol)
    with pytest.raises(ValueError, match="tolerance"):
        dfs_check(_ae_code(), build_spin_operators(J6).jz, tol)


def test_error_of_state_identity_and_eigenstate():
    j = SpinJ(4)
    psi = basis_state(j, 2)
    assert error_of_state(psi, _identity(j)) == pytest.approx(0.0, abs=1e-12)
    u = rotation_unitary(j, 0.3, RotationAxis.z())
    assert error_of_state(psi, u) == pytest.approx(0.0, abs=1e-12)


def test_error_of_state_noon_frozen_value():
    j = SpinJ(4)
    u = rotation_unitary(j, 0.1, RotationAxis.z())
    # closed-form overlap cos(J theta): 1 - cos^2(0.2)
    assert error_of_state(noon_state(j), u) == pytest.approx(0.039469502998557459, abs=1e-12)


def test_error_of_state_requires_unitary():
    j = SpinJ(2)
    with pytest.raises(ValueError):
        error_of_state(basis_state(j, 2), build_spin_operators(j).jplus)


def test_error_of_state_equals_sin_squared_distinguishability():
    rng = np.random.default_rng(71)
    j = SpinJ(5)
    for _ in range(25):
        psi = random_state(j, rng)
        u = SpinOperator(j, random_unitary(j.dim, rng), "U")
        phi = SpinState(j, u.matrix @ psi.amplitudes)
        rep = distinguishability(psi, phi)
        assert error_of_state(psi, u) == pytest.approx(rep.sin_angle**2, abs=1e-12)


def test_error_small_theta_basics():
    j = SpinJ(4)
    ops = build_spin_operators(j)
    assert error_small_theta(noon_state(j), ops.jz, 0.0) == 0.0
    assert error_small_theta(noon_state(j), ops.jz, 1e-3) == pytest.approx(4e-6, rel=1e-12)
    assert error_small_theta(basis_state(j, 2), ops.jz, 0.05) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        error_small_theta(noon_state(j), ops.jz, 0.2)


def test_error_linearization_bound():
    rng = np.random.default_rng(73)
    for _ in range(40):
        j = SpinJ(int(rng.integers(1, 11)))
        psi = random_state(j, rng)
        norm = float(rng.uniform(0.5, 6.0))
        g = random_hermitian(j, rng, norm=norm)
        for theta in (1e-2, 1e-3):
            exact = error_of_state(psi, generator_unitary(g, theta))
            approx = error_small_theta(psi, g, theta)
            assert abs(exact - approx) <= 10.0 * theta**3 * norm**3


def test_error_with_recovery_perfect_inverse():
    rng = np.random.default_rng(79)
    j = SpinJ(4)
    psi = random_state(j, rng)
    u = SpinOperator(j, random_unitary(j.dim, rng), "U")
    err = error_with_recovery(psi, ErrorSet([u]), RecoverySet([u.dagger()]))
    assert err == pytest.approx(0.0, abs=1e-12)


def test_error_with_recovery_identity_reduces_to_error_of_state():
    rng = np.random.default_rng(83)
    j = SpinJ(5)
    for _ in range(10):
        psi = random_state(j, rng)
        u = SpinOperator(j, random_unitary(j.dim, rng), "U")
        lhs = error_with_recovery(psi, ErrorSet([u]), RecoverySet([_identity(j)]))
        assert lhs == pytest.approx(error_of_state(psi, u), abs=1e-12)


def test_error_with_recovery_symmetric_pair_dense_value():
    # (|6,3> + |6,-3>)/sqrt2 under exp(-i theta Jz): 1 - cos^2(3 theta)
    amps = np.zeros(13, dtype=complex)
    amps[J6.index_of(6)] = amps[J6.index_of(-6)] = 1.0 / math.sqrt(2.0)
    psi = SpinState(J6, amps)
    theta = 0.05
    u = rotation_unitary(J6, theta, RotationAxis.z())
    err = error_with_recovery(psi, ErrorSet([u]), RecoverySet([_identity(J6)]))
    assert err == pytest.approx(0.022331755437196990, abs=1e-12)
    # quadratic form theta^2 <Jz^2> = 0.0225 agrees to the stated cubic bound
    assert abs(err - 0.0225) <= 10.0 * theta**3 * 6.0**3


def test_recovery_completeness_bound_enforced():
    j = SpinJ(2)
    with pytest.raises(ValueError):
        RecoverySet([SpinOperator(j, 2.0 * np.eye(j.dim, dtype=complex), "2I")])


def test_max_error_degenerate_eigenstates_is_zero():
    # both codewords in the Jz^2 = 4 eigenspace: a decoherence-free pair
    j = SpinJ(4)
    ops = build_spin_operators(j)
    gsq = SpinOperator(j, ops.jz.matrix @ ops.jz.matrix, "Jz^2")
    code = CodeSpace(j, [basis_state(j, 4), basis_state(j, -4)])
    assert dfs_check(code, gsq)
    _, err = max_error_over_code(code, gsq, 0.01)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_max_error_noon_subspace():
    j = SpinJ(4)
    code = CodeSpace(j, [basis_state(j, 4), basis_state(j, -4)])
    g = build_spin_operators(j).jz
    worst, err = max_error_over_code(code, g, 0.01)
    assert err == pytest.approx(4e-4, rel=1e-9)
    # the worst superposition is the balanced one
    assert abs(worst.amplitude(4)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    assert abs(worst.amplitude(-4)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


def test_max_error_single_codeword():
    j = SpinJ(4)
    g = build_spin_operators(j).jz
    code = CodeSpace(j, [noon_state(j)])
    worst, err = max_error_over_code(code, g, 0.01)
    assert err == pytest.approx(1e-4 * 4.0, rel=1e-12)
    assert np.allclose(np.abs(worst.amplitudes), np.abs(noon_state(j).amplitudes))


def test_max_error_deterministic():
    rng = np.random.default_rng(97)
    j = SpinJ(5)
    u = random_unitary(j.dim, rng)
    code = CodeSpace(j, [SpinState(j, u[:, 0]), SpinState(j, u[:, 1])])
    g = random_hermitian(j, rng, norm=2.0)
    worst_a, err_a = max_error_over_code(code, g, 0.01)
    worst_b, err_b = max_error_over_code(code, g, 0.01)
    assert err_a == err_b
    assert np.array_equal(worst_a.amplitudes, worst_b.amplitudes)


def test_max_error_never_below_bare_codewords():
    rng = np.random.default_rng(89)
    j = SpinJ(6)
    for _ in range(5):
        u = random_unitary(j.dim, rng)
        code = CodeSpace(j, [SpinState(j, u[:, 0]), SpinState(j, u[:, 1]), SpinState(j, u[:, 2])])
        g = random_hermitian(j, rng, norm=3.0)
        theta = 0.01
        _, err = max_error_over_code(code, g, theta)
        for w in code.codewords:
            assert err >= error_small_theta(w, g, theta) - 1e-12


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_max_error_matches_state_and_beats_random_superpositions(k):
    rng = np.random.default_rng(200 + k)
    theta = 0.05
    for twice_j in (max(3, k - 1), 7, 12):
        j = SpinJ(twice_j)
        u = random_unitary(j.dim, rng)
        code = CodeSpace(j, [SpinState(j, u[:, i]) for i in range(k)])
        g = random_hermitian(j, rng, norm=twice_j / 2.0)
        worst, err = max_error_over_code(code, g, theta)
        assert error_small_theta(worst, g, theta) == pytest.approx(err, rel=1e-12)
        # plain numpy variance at random unit superpositions of the codewords
        basis = code.basis_matrix()
        for _ in range(200):
            c = rng.normal(size=k) + 1j * rng.normal(size=k)
            v = basis @ (c / np.linalg.norm(c))
            gv = g.matrix @ v
            var = np.vdot(gv, gv).real - np.vdot(v, gv).real ** 2
            assert err >= theta * theta * var * (1.0 - 1e-12)


def test_max_error_exact_crossing():
    # every superposition of the AE codewords has the same variance under Jz
    # and Jx; the basis states m = 6, 0, -2 cross at <Jz> = 2 off the centre
    # of the <Jz> range, where only the balanced |6>, |-2> mix has Var = 16
    theta = 0.05
    ops = build_spin_operators(J6)
    cases = [
        (_ae_code(), ops.jz, 9.0),
        (_ae_code(), ops.jx, (42.0 - 9.0) / 2.0),
        (CodeSpace(J6, [basis_state(J6, 12), basis_state(J6, 0), basis_state(J6, -4)]), ops.jz, 16.0),
    ]
    for code, g, var in cases:
        worst, err = max_error_over_code(code, g, theta)
        assert err == pytest.approx(theta * theta * var, rel=1e-12)
        assert error_small_theta(worst, g, theta) == pytest.approx(err, rel=1e-12)


def test_ae_codeword_amplitudes():
    code = _ae_code()
    w0, w1 = code.codewords
    assert abs(w0.amplitude(6)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert abs(w0.amplitude(-6)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert w1.amplitude(0).real == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
    assert w1.amplitude(12).real == pytest.approx(1.0 / math.sqrt(8.0), abs=1e-15)
    assert w1.amplitude(-12).real == pytest.approx(1.0 / math.sqrt(8.0), abs=1e-15)


@pytest.mark.parametrize(
    "twice_j,m1,m2,fragment",
    [
        (12, 3, 5, "m2 >= m1 + 3"),
        (12, 2, 6, "m1 >= 3"),
        (10, 3, 6, "J >= 6"),
        (12, 3, 7, "m2 <= J"),
        (13, 3, 6, "integer"),
    ],
)
def test_ae_codewords_validation(twice_j, m1, m2, fragment):
    with pytest.raises(ValueError, match=fragment.replace("+", r"\+")):
        ae_codewords(SpinJ(twice_j), m1, m2)


def test_ae_codewords_first_order_anticoherent():
    ops = build_spin_operators(J6)
    for w in _ae_code().codewords:
        for op in (ops.jx, ops.jy, ops.jz):
            mean, _ = expectation_and_variance(w, op)
            assert mean == pytest.approx(0.0, abs=1e-12)
        mean_z, var_z = expectation_and_variance(w, ops.jz)
        assert var_z + mean_z**2 == pytest.approx(9.0, abs=1e-12)


def test_ae_codewords_cross_moments_vanish():
    for w in _ae_code().codewords:
        m = fisher_matrix(w).matrix
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) < 1e-10


def test_code_space_json_round_trip():
    code = _ae_code()
    back = CodeSpace.from_json_dict(code.to_json_dict())
    assert back.j == code.j
    for a, b in zip(back.codewords, code.codewords):
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-15)

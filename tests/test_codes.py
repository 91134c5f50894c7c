import math
import tracemalloc

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
    axis_generator,
    tensor_operator,
)
from spinsense.codes import _DUAL_RTOL
from spinsense.spin import _standard_operator
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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9, True, np.True_])
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


def _golden_dual(code, g):
    """min over lam of lam_max(A2 - 2 lam A1) + lam^2 by golden section on
    the dense matrices: an independent reference for the convex dual."""
    basis = code.basis_matrix()
    gb = g.matrix @ basis
    a1 = basis.conj().T @ gb
    shift = np.trace(a1).real / a1.shape[0]
    gb = gb - shift * basis
    a1, a2 = a1 - shift * np.eye(a1.shape[0]), gb.conj().T @ gb
    lo, hi = np.linalg.eigvalsh(a1)[[0, -1]]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        f1, f2 = (np.linalg.eigvalsh(a2 - 2.0 * x * a1)[-1] + x * x for x in (x1, x2))
        lo, hi = (lo, x2) if f1 <= f2 else (x1, hi)
    lam = 0.5 * (lo + hi)
    return np.linalg.eigvalsh(a2 - 2.0 * lam * a1)[-1] + lam * lam


def _random_axis_codes(seed, count):
    """Seeded codes of k = 2..5 random orthonormal words with a random-axis u.J."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        k = int(rng.integers(2, 6))
        j = SpinJ(int(rng.integers(max(3, k - 1), 41)))
        u = random_unitary(j.dim, rng)
        code = CodeSpace(j, [SpinState(j, u[:, i]) for i in range(k)])
        cases.append((code, axis_generator(j, RotationAxis.from_vector(rng.normal(size=3)))))
    return cases


def _crossing_cases():
    ops = build_spin_operators(J6)
    return [
        (_ae_code(), ops.jz),
        (CodeSpace(J6, [basis_state(J6, 12), basis_state(J6, 0), basis_state(J6, -4)]), ops.jz),
        (CodeSpace(J6, [basis_state(J6, 12), basis_state(J6, 0), basis_state(J6, -4)]), ops.jx),
    ]


def _solves_per_call(monkeypatch, cases):
    """The eigh and eigvalsh calls that max_error_over_code makes on each case."""
    count = [0]

    def counted(solver):
        def call(*args, **kwargs):
            count[0] += 1
            return solver(*args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    solves = []
    for code, g in cases:
        count[0] = 0
        max_error_over_code(code, g, 0.05)
        solves.append(count[0])
    monkeypatch.undo()
    return solves


def test_max_error_equals_a_golden_section_dual():
    for code, g in _random_axis_codes(41, 60):
        theta = 0.05
        err = max_error_over_code(code, g, theta)[1]
        assert err == pytest.approx(theta * theta * _golden_dual(code, g), rel=1e-12, abs=0.0)


def test_max_error_needs_few_eigensolves(monkeypatch):
    # one eigvalsh of A1 for the bracket, then per Newton step one eigh of
    # A2 - 2 lam A1 and one of A1 on its top eigenspace; golden section took 74
    solves = _solves_per_call(monkeypatch, _random_axis_codes(22, 120))
    assert np.median(solves) <= 12


def test_max_error_stays_within_its_step_bound(monkeypatch):
    # the docstring's bound: at most 2 + 2 ceil(log2(2 / rho)) = 98 steps of two solves each
    steps = 2 + 2 * math.ceil(math.log2(2.0 / _DUAL_RTOL))
    assert steps == 98
    random = _solves_per_call(monkeypatch, _random_axis_codes(23, 60))
    crossings = _solves_per_call(monkeypatch, _crossing_cases())
    assert max(random + crossings) <= 1 + 2 * steps
    # the crossing of m = 6, 0, -2 off the centre of the <Jz> range is the
    # slow case: there Newton steps give way to bisection
    assert crossings[1] > max(random)


def test_max_error_rejects_a_generator_whose_square_overflows():
    j = SpinJ(8)
    code = CodeSpace(j, [basis_state(j, 8), basis_state(j, 0)])
    huge = SpinOperator(j, 1e160 * build_spin_operators(j).jz.matrix, "huge")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="'huge' is too large: B'G\\^2B is not finite"):
            max_error_over_code(code, huge, 0.05)


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


def _per_block_fit(block):
    diag = np.diag(block)
    c = complex(diag.mean())
    off = block - np.diag(diag)
    max_off = float(np.max(np.abs(off))) if block.shape[0] > 1 else 0.0
    return c, max_off, float(np.max(np.abs(diag - c)))


def _reference_checks(code, errors):
    """Both checks one block at a time, as fitted before the stacked reduction."""
    basis = code.basis_matrix()
    n = len(errors.ops)
    images = [e.matrix @ basis for e in errors.ops]
    det = [_per_block_fit(basis.conj().T @ image) for image in images]
    kl = [_per_block_fit(images[a].conj().T @ images[b]) for a in range(n) for b in range(n)]
    out = []
    for fits, shape in ((det, (n,)), (kl, (n, n))):
        c = np.array([f[0] for f in fits], dtype=complex).reshape(shape)
        max_off = max(f[1] for f in fits)
        max_spread = max(f[2] for f in fits)
        out.append((c, max(max_off, max_spread), max_off, max_spread))
    return out


def _assert_reports_equal_reference(code, errors, tol=1e-9):
    for rep, (c, violation, max_off, max_spread) in zip(
        (detection_check(code, errors, tol), kl_check(code, errors, tol)),
        _reference_checks(code, errors),
    ):
        assert rep.c_matrix.shape == c.shape
        assert np.array_equal(rep.c_matrix, c)
        assert rep.violation == violation
        assert rep.max_off_diagonal == max_off
        assert rep.max_diagonal_spread == max_spread
        assert rep.passed is (violation <= tol)


def test_stacked_checks_equal_per_block_fits_on_ae_codes():
    for twice_j in range(12, 41, 2):
        j = SpinJ(twice_j)
        ops = build_spin_operators(j)
        errors = ErrorSet([_identity(j), ops.jplus, ops.jminus, ops.jz])
        for m1 in range(3, twice_j // 2 - 2):
            for m2 in range(m1 + 3, twice_j // 2 + 1):
                _assert_reports_equal_reference(ae_codewords(j, m1, m2), errors)


@pytest.mark.parametrize("seed", range(8))
def test_stacked_checks_equal_per_block_fits_on_random_codes(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        dim = int(rng.integers(1, 41))
        k = int(rng.integers(1, min(12, dim) + 1))
        n = int(rng.integers(1, 7))
        j = SpinJ(dim - 1)
        code = CodeSpace(j, [SpinState(j, c) for c in random_unitary(dim, rng)[:, :k].T])
        errors = ErrorSet(
            [
                SpinOperator(j, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
                for _ in range(n)
            ]
        )
        _assert_reports_equal_reference(code, errors)


@pytest.mark.parametrize("n", [1, 3])
def test_one_codeword_has_no_off_diagonal(n):
    j = SpinJ(6)
    ops = build_spin_operators(j)
    code = CodeSpace(j, [basis_state(j, 2)])
    errors = ErrorSet([ops.jplus, ops.jz, ops.jx][:n])
    det = detection_check(code, errors, 1e-9)
    kl = kl_check(code, errors, 1e-9)
    assert det.c_matrix.shape == (n,)
    assert kl.c_matrix.shape == (n, n)
    assert det.max_off_diagonal == 0.0
    assert kl.max_off_diagonal == 0.0
    # a single codeword always meets both conditions
    assert det.passed and kl.passed


def test_single_error_gives_one_entry_per_check():
    ops = build_spin_operators(J6)
    errors = ErrorSet([ops.jz])
    det = detection_check(_ae_code(), errors, 1e-9)
    kl = kl_check(_ae_code(), errors, 1e-9)
    assert det.c_matrix.shape == (1,)
    assert kl.c_matrix.shape == (1, 1)
    assert det.max_off_diagonal == 0.0
    assert kl.max_off_diagonal == 0.0
    assert kl.c_matrix[0, 0].real == pytest.approx(9.0, abs=1e-12)


def test_checks_stack_no_dense_error_matrices():
    j = SpinJ(512)
    ops = build_spin_operators(j)
    errors = ErrorSet([_identity(j), ops.jplus, ops.jminus, ops.jz])
    code = ae_codewords(j, 3, 6)
    for check in (detection_check, kl_check):
        tracemalloc.start()
        try:
            assert check(code, errors, 1e-9).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < j.dim * j.dim * 16  # one d x d complex matrix


def test_recovery_set_checks_the_dense_limit_first():
    # the operator keeps its band; the d x d sum is refused before it is made
    with pytest.raises(ValueError, match="2J <= 4096"):
        RecoverySet([_standard_operator(SpinJ(10**6), "Jz")])


def _band_checks(j, code, errors, g, psi, recoveries):
    """The four checks on band operators, as one tuple of their numbers."""
    det = detection_check(code, errors, 1e-9)
    kl = kl_check(code, errors, 1e-9)
    residual = error_with_recovery(psi, errors, recoveries)
    # the worst state itself is not compared: at a crossing it is one of many
    value = max_error_over_code(code, g, 0.05)[1]
    numbers = []
    for rep in (det, kl):
        numbers += [*rep.c_matrix.ravel(), rep.violation, rep.max_off_diagonal, rep.max_diagonal_spread]
    return np.array([*numbers, residual, value])


def _formless(op):
    return SpinOperator(op.j, op.matrix, op.label)


@pytest.mark.parametrize("twice_j", [12, 21, 40])
def test_checks_on_bands_read_no_matrix_and_equal_the_matrix_route(twice_j):
    j = SpinJ(twice_j)
    rng = np.random.default_rng(twice_j)
    if j.is_integer:
        code = ae_codewords(j, 3, twice_j // 2)
    else:
        code = CodeSpace(j, [SpinState(j, c) for c in random_unitary(j.dim, rng)[:, :3].T])
    basis = code.basis_matrix()
    proj = basis @ basis.conj().T
    recoveries = RecoverySet([SpinOperator(j, proj, "P"), SpinOperator(j, np.eye(j.dim) - proj, "I-P")])
    mix = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
    psi = SpinState(j, basis @ (mix / np.linalg.norm(mix)))
    ops = build_spin_operators(j)
    standard = [getattr(ops, f) for f in ("jx", "jy", "jz", "jplus", "jminus", "jsq")]
    bands = [_standard_operator(j, "I"), *standard, tensor_operator(j, 2, 1).op, tensor_operator(j, 2, 0).op]
    generators = (ops.jx, ops.jsq, axis_generator(j, RotationAxis.from_vector(rng.normal(size=3))))
    got = [_band_checks(j, code, ErrorSet(bands), g, psi, recoveries) for g in generators]
    assert all("matrix" not in vars(op) for op in (*bands, *generators))
    # the same operators built from their matrices take the matrix products
    errors = ErrorSet([_formless(op) for op in bands])
    scale = j.j * (j.j + 1.0)
    for g, numbers in zip(generators, got):
        want = _band_checks(j, code, errors, _formless(g), psi, recoveries)
        np.testing.assert_allclose(numbers, want, rtol=1e-13, atol=1e-15 * scale**2)


def test_an_image_that_overflows_is_rejected():
    code = ae_codewords(J6, 3, 6)
    # the image of the codeword on three levels is 1.7e308 times more than 1
    huge = SpinOperator(J6, np.full((J6.dim, J6.dim), 1.7e308, dtype=complex), "huge")
    with pytest.raises(ValueError, match="'huge' is too large: Knill-Laflamme products would overflow"):
        kl_check(code, ErrorSet([build_spin_operators(J6).jz, huge]), 1e-9)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_the_overflow_bound_sits_at_sqrt_max_over_2_over_d(factor):
    # the largest image entry m is 0.866 s (the |J,0> amplitude of the second
    # codeword); m <= sqrt(max / 2) / d passes with finite blocks, above it fails
    code = _ae_code()
    s = factor * math.sqrt(np.finfo(float).max / 2.0) / J6.dim / math.sqrt(0.75)
    scaled = SpinOperator(J6, s * np.eye(J6.dim, dtype=complex), "sI")
    if factor < 1.0:
        assert np.all(np.isfinite(kl_check(code, ErrorSet([scaled]), 1e-9).c_matrix))
    else:
        with pytest.raises(ValueError, match="would overflow"):
            kl_check(code, ErrorSet([scaled]), 1e-9)


def test_a_nan_image_is_rejected(monkeypatch):
    # NaN compares false with any bound, so the guard must read "not m <= limit"
    def nan_image(op, x):
        return np.full(x.shape, np.nan, dtype=complex)

    monkeypatch.setattr("spinsense.codes._apply_block", nan_image)
    with pytest.raises(ValueError, match="'Jz' is too large: Knill-Laflamme products would overflow"):
        kl_check(_ae_code(), ErrorSet([build_spin_operators(J6).jz]), 1e-9)

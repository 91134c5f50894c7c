import math

import numpy as np
import pytest

from spinsense import (
    RotationAxis,
    SpinJ,
    SpinOperator,
    SpinState,
    apply,
    axis_generator,
    basis_state,
    build_spin_operators,
    expectation_and_variance,
    generator_unitary,
    noon_state,
    overlap,
    rotation_unitary,
    tensor_operator,
)
from helpers import random_hermitian, random_state, random_unitary
from spinsense.spin import MAX_DENSE_TWICE_J


def test_jz_diagonal_spin_half():
    ops = build_spin_operators(SpinJ(1))
    assert np.allclose(ops.jz.matrix, np.diag([0.5, -0.5]))


def test_ladder_formula_j1():
    j = SpinJ(2)
    ops = build_spin_operators(j)
    raised = ops.jplus.matrix @ basis_state(j, 0).amplitudes
    expected = math.sqrt(2.0) * basis_state(j, 2).amplitudes
    assert np.allclose(raised, expected, atol=1e-14)


@pytest.mark.parametrize("twice_j", list(range(1, 14)))
def test_commutation_relations(twice_j):
    ops = build_spin_operators(SpinJ(twice_j))
    mats = [ops.jx.matrix, ops.jy.matrix, ops.jz.matrix]
    for i, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = mats[i] @ mats[k] - mats[k] @ mats[i]
        assert np.max(np.abs(comm - 1j * mats[l])) < 1e-12


@pytest.mark.parametrize("twice_j", list(range(1, 14)))
def test_total_angular_momentum(twice_j):
    j = SpinJ(twice_j)
    ops = build_spin_operators(j)
    expected = j.j * (j.j + 1.0) * np.eye(j.dim)
    assert np.max(np.abs(ops.jsq.matrix - expected)) < 1e-12


def test_commutator_matrix_multiply_oracle_j2():
    # dense multiply both ways at J=2, per the commutator identity
    ops = build_spin_operators(SpinJ(4))
    lhs = ops.jx.matrix @ ops.jy.matrix - ops.jy.matrix @ ops.jx.matrix
    assert np.max(np.abs(lhs - 1j * ops.jz.matrix)) < 1e-12


def test_rotation_zero_angle_is_identity():
    j = SpinJ(5)
    u = rotation_unitary(j, 0.0, RotationAxis.from_vector([1.0, 2.0, -0.5]))
    assert np.allclose(u.matrix, np.eye(j.dim), atol=1e-14)


def test_rotation_2pi_integer_j_is_identity():
    # exp(-i 2 pi m) = 1 for every integer m level
    j = SpinJ(6)
    u = rotation_unitary(j, 2.0 * math.pi, RotationAxis.z())
    assert np.max(np.abs(u.matrix - np.eye(j.dim))) < 1e-10


def test_rotation_unitarity_random():
    rng = np.random.default_rng(7)
    for twice_j in (1, 3, 4, 9):
        j = SpinJ(twice_j)
        for _ in range(5):
            axis = RotationAxis.from_vector(rng.normal(size=3))
            theta = rng.uniform(-math.pi, math.pi)
            u = rotation_unitary(j, theta, axis)
            assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(j.dim))) < 1e-10


def test_rotation_additivity_same_axis():
    rng = np.random.default_rng(11)
    j = SpinJ(5)
    axis = RotationAxis.from_vector(rng.normal(size=3))
    t1, t2 = 0.37, -1.2
    u12 = rotation_unitary(j, t1, axis).matrix @ rotation_unitary(j, t2, axis).matrix
    u = rotation_unitary(j, t1 + t2, axis).matrix
    assert np.max(np.abs(u12 - u)) < 1e-10


def test_non_unit_axis_rejected():
    with pytest.raises(ValueError):
        RotationAxis(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        RotationAxis.from_vector([0.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_axis_rejected(bad):
    with pytest.raises(ValueError):
        RotationAxis(np.array([bad, 0.0, 0.0]))
    with pytest.raises(ValueError):
        RotationAxis.from_vector([bad, 0.0, 1.0])


@pytest.mark.parametrize("scale", [1e200, 1e308, 1e-200, 5e-324])
def test_axis_of_a_huge_or_tiny_vector(scale):
    # the norm of the raw vector overflows or underflows; the direction is fine
    axis = RotationAxis.from_vector([scale, scale, 0.0])
    assert np.max(np.abs(axis.u - RotationAxis.from_vector([1.0, 1.0, 0.0]).u)) <= 2e-16


def test_axis_scaling_keeps_the_bits_of_ordinary_vectors():
    rng = np.random.default_rng(21)
    for _ in range(200):
        vec = rng.normal(size=3) * 10.0 ** rng.uniform(-100, 100)
        assert np.array_equal(RotationAxis.from_vector(vec).u, vec / np.linalg.norm(vec))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_state_rejected(bad):
    with pytest.raises(ValueError):
        SpinState(SpinJ(2), np.array([bad, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_operator_rejected(bad):
    m = np.zeros((3, 3), dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        SpinOperator(SpinJ(2), m, "G")
    doc = {"twice_j": 2, "matrix_re": m.real.tolist(), "matrix_im": m.imag.tolist()}
    with pytest.raises(ValueError, match="finite"):
        SpinOperator.from_json_dict(doc)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, -math.inf, True, np.True_])
def test_operator_checks_reject_a_bad_tolerance(tol):
    # a dense matrix, a banded operator, a rotation that keeps its form and a
    # matrix too large to square: both checks refuse the tolerance on every route
    j = SpinJ(4)
    ops = (
        SpinOperator(j, np.eye(j.dim), "I"),
        build_spin_operators(j).jplus,
        rotation_unitary(j, 0.3, RotationAxis.from_vector([1.0, 2.0, 2.0])),
        SpinOperator(j, np.full((j.dim, j.dim), 1e200), "huge"),
    )
    for op in ops:
        for check in (op.is_hermitian, op.is_unitary):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                check(tol)


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("part", [1.0, 1j])
def test_dense_unitary_check_at_its_tolerance(tol, part):
    # U = 1 (+) V with V a seeded unitary; bending the zero entry U_0k by delta
    # makes (U^dag U)_0k = delta exactly and moves no other entry by more than
    # delta^2 plus the rounding of V^dag V
    rng = np.random.default_rng(29)
    j = SpinJ(6)
    u = np.zeros((j.dim, j.dim), dtype=complex)
    u[0, 0] = 1.0
    u[1:, 1:] = random_unitary(j.dim - 1, rng)
    assert SpinOperator(j, u, "U").is_unitary(tol)
    for scale, unitary in ((1.0 + 1e-3, False), (1.0 - 1e-3, True)):
        bent = u.copy()
        bent[0, 3] += part * tol * scale
        assert SpinOperator(j, bent, "bent").is_unitary(tol) is unitary


def test_dense_unitary_check_keeps_a_gram_overflow_quiet():
    # 1e154^2 passes the |U_ij|^2 <= 1 + tol guard at tol = 1e308, but a sum of
    # nine such products overflows: the verdict is False, with no warning
    j = SpinJ(8)
    assert SpinOperator(j, np.full((j.dim, j.dim), 1e154), "big").is_unitary(1e308) is False


def test_dense_operators_refuse_oversized_spin(monkeypatch):
    # operators above the limit keep their bands and their rotations their
    # phases; the limit is checked where a (2J+1)^2 array would be made, so this is fast
    j = SpinJ(10**6)
    ops = build_spin_operators(j)
    rot = rotation_unitary(j, 0.1, RotationAxis.x())
    tensor = tensor_operator(j, 2, 1).op
    assert axis_generator(j, RotationAxis.z()).is_hermitian()
    for op in (ops.jx, ops.jsq, tensor):
        with pytest.raises(ValueError, match=f"2J <= {MAX_DENSE_TWICE_J}"):
            op.matrix
    # the off-pole rotation needs the d x d Wigner basis, also when it rotates about the standard Jx
    with pytest.raises(ValueError, match=f"2J <= {MAX_DENSE_TWICE_J}"):
        rot.is_unitary()
    with pytest.raises(ValueError, match=f"2J <= {MAX_DENSE_TWICE_J}"):
        generator_unitary(ops.jx, 0.1).is_unitary()
    # the boundary itself, on a lowered limit so that nothing large is built
    monkeypatch.setattr("spinsense.spin.MAX_DENSE_TWICE_J", 8)
    assert build_spin_operators(SpinJ(8)).jz.matrix.shape == (9, 9)
    with pytest.raises(ValueError, match="2J <= 8"):
        build_spin_operators(SpinJ(9)).jz.matrix


def test_expectation_on_eigenstate():
    j = SpinJ(6)
    ops = build_spin_operators(j)
    for twice_m in (-6, 0, 4):
        mean, var = expectation_and_variance(basis_state(j, twice_m), ops.jz)
        assert mean == pytest.approx(twice_m / 2.0, abs=1e-14)
        assert var == pytest.approx(0.0, abs=1e-14)


def test_noon_state_moments():
    # z-variance J^2 and the nontrivial J/2 along x
    j = SpinJ(4)
    ops = build_spin_operators(j)
    psi = noon_state(j)
    mean_z, var_z = expectation_and_variance(psi, ops.jz)
    assert mean_z == pytest.approx(0.0, abs=1e-14)
    assert var_z == pytest.approx(4.0, abs=1e-12)
    _, var_x = expectation_and_variance(psi, ops.jx)
    assert var_x == pytest.approx(1.0, abs=1e-12)


def test_expectation_global_phase_invariant():
    rng = np.random.default_rng(3)
    j = SpinJ(5)
    psi = random_state(j, rng)
    g = random_hermitian(j, rng)
    shifted = SpinState(j, np.exp(1.3j) * psi.amplitudes)
    assert expectation_and_variance(psi, g) == pytest.approx(expectation_and_variance(shifted, g))


def test_non_hermitian_generator_rejected():
    j = SpinJ(2)
    ops = build_spin_operators(j)
    with pytest.raises(ValueError):
        expectation_and_variance(basis_state(j, 2), ops.jplus)


def test_variance_clamped_non_negative():
    rng = np.random.default_rng(5)
    j = SpinJ(3)
    for _ in range(20):
        _, var = expectation_and_variance(random_state(j, rng), random_hermitian(j, rng))
        assert var >= 0.0


def test_apply_identity_and_eigenlevel():
    j = SpinJ(4)
    ops = build_spin_operators(j)
    psi = basis_state(j, 2)
    ident = SpinOperator(j, np.eye(j.dim, dtype=complex), "I")
    assert np.array_equal(apply(ident, psi), psi.amplitudes)
    assert np.allclose(apply(ops.jz, psi), 1.0 * psi.amplitudes)


def test_apply_top_of_ladder_annihilates():
    j = SpinJ(2)
    ops = build_spin_operators(j)
    assert np.allclose(apply(ops.jplus, basis_state(j, 2)), 0.0)


def test_apply_dimension_mismatch():
    ops = build_spin_operators(SpinJ(2))
    with pytest.raises(ValueError):
        apply(ops.jz, basis_state(SpinJ(4), 0))


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        SpinState(SpinJ(2), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        SpinState(SpinJ(2), np.array([1.0, 0.0]))


@pytest.mark.parametrize("big", [1e200, complex(0.0, 1e200), complex(1.7e308, 1.7e308), 1.0 + 1e-9])
def test_state_names_an_amplitude_above_one(big):
    # rejected on |amp|, before the squares of the norm could overflow
    amps = np.array([0.0, big, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="m_times_2=0"):
        SpinState(SpinJ(2), amps)


def test_half_integer_j_uses_integer_twice_j():
    with pytest.raises(TypeError):
        SpinJ(1.5)
    assert SpinJ(3).j == 1.5
    assert SpinJ(3).dim == 4


def test_generator_unitary_matches_expm():
    from scipy.linalg import expm

    rng = np.random.default_rng(17)
    j = SpinJ(5)
    g = random_hermitian(j, rng)
    theta = 0.83
    u = generator_unitary(g, theta)
    assert np.max(np.abs(u.matrix - expm(-1j * theta * g.matrix))) < 1e-10


def test_state_json_round_trip():
    rng = np.random.default_rng(23)
    psi = random_state(SpinJ(5), rng)
    doc = psi.to_json_dict()
    back = SpinState.from_json_dict(doc)
    assert back.j == psi.j
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


def test_state_json_omitted_levels_are_zero():
    doc = {"twice_j": 4, "amplitudes": [{"m_times_2": 4, "re": 1.0, "im": 0.0}]}
    psi = SpinState.from_json_dict(doc)
    assert psi.amplitude(4) == 1.0
    assert psi.amplitude(0) == 0.0
    assert psi.amplitude(-4) == 0.0


def test_state_json_rejects_duplicates_and_bad_levels():
    with pytest.raises(ValueError):
        SpinState.from_json_dict(
            {
                "twice_j": 2,
                "amplitudes": [
                    {"m_times_2": 2, "re": 1.0, "im": 0.0},
                    {"m_times_2": 2, "re": 0.0, "im": 0.0},
                ],
            }
        )
    with pytest.raises(ValueError):
        SpinState.from_json_dict(
            {"twice_j": 2, "amplitudes": [{"m_times_2": 1, "re": 1.0, "im": 0.0}]}
        )
    with pytest.raises(ValueError):
        SpinState.from_json_dict({"twice_j": 2})


@pytest.mark.parametrize("twice_j,twice_m", [(2, 2.0), (1, True), (2, "2"), (2, None)])
def test_state_json_rejects_a_non_integer_level(twice_j, twice_m):
    # 2.0 would index the amplitudes with a float; True would pass for 2m = 1
    doc = {"twice_j": twice_j, "amplitudes": [{"m_times_2": twice_m, "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError, match="m_times_2 must be an integer"):
        SpinState.from_json_dict(doc)


@pytest.mark.parametrize("re,im", [(True, False), (True, 0.0), (1.0, False), (0.0, True)])
def test_state_json_rejects_a_boolean_amplitude(re, im):
    # True would pass for 1.0, as it would for 2m = 1 in a level
    doc = {"twice_j": 1, "amplitudes": [{"m_times_2": 1, "re": re, "im": im}]}
    with pytest.raises(ValueError, match="re and im must be numbers"):
        SpinState.from_json_dict(doc)


@pytest.mark.parametrize(
    "re,im",
    [
        ([[True, False], [False, True]], [[0.0, 0.0], [0.0, 0.0]]),
        ([[True, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
        ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, False]]),
    ],
)
def test_operator_json_rejects_boolean_entries(re, im):
    # the all-boolean identity would load as I and pass is_unitary; one boolean
    # in a row of floats would pass for a number
    doc = {"twice_j": 1, "matrix_re": re, "matrix_im": im}
    with pytest.raises(ValueError, match="entries must be numbers"):
        SpinOperator.from_json_dict(doc)


def test_overlap_requires_matching_dimension():
    with pytest.raises(ValueError):
        overlap(basis_state(SpinJ(2), 0), basis_state(SpinJ(4), 0))


def test_overlap_is_the_inner_product():
    j = SpinJ(5)
    rng = np.random.default_rng(305)
    a, b = random_state(j, rng), random_state(j, rng)
    assert overlap(a, b) == complex(np.vdot(a.amplitudes, b.amplitudes))
    assert overlap(b, a) == overlap(a, b).conjugate()
    assert overlap(a, a) == pytest.approx(1.0, abs=1e-15)
    assert overlap(basis_state(j, 5), basis_state(j, 3)) == 0.0

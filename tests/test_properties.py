"""Property tests over small spins (2J <= 12), drawn deterministically."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian, random_state
from spinsense import (
    CodeSpace,
    ErrorSet,
    RotationAxis,
    SpinJ,
    SpinState,
    axis_generator,
    build_spin_operators,
    distinguishability,
    error_of_state,
    estimate_theta,
    fisher_matrix,
    generator_unitary,
    kl_check,
    qfi,
    qfi_finite_difference,
    rotation_qfi,
    survival_probability,
)
from spinsense.estimation import _invert_monotone
from spinsense.metrics import _SurvivalModel

SMALL = settings(derandomize=True, max_examples=40, deadline=None)
twice_js = st.integers(1, 12)
seeds = st.integers(0, 2**32 - 1)


def _axis(rng):
    return RotationAxis.from_vector(rng.normal(size=3))


def _state_and_generator(twice_j, seed, axis_only):
    rng = np.random.default_rng(seed)
    j = SpinJ(twice_j)
    psi = random_state(j, rng)
    if axis_only or rng.random() < 0.5:
        return psi, axis_generator(j, _axis(rng))
    return psi, random_hermitian(j, rng, norm=float(twice_j))


@SMALL
@given(twice_js, seeds, st.floats(-4.0, 4.0))
def test_survival_is_a_probability_and_even(twice_j, seed, theta):
    psi, g = _state_and_generator(twice_j, seed, axis_only=False)
    p = survival_probability(psi, g, theta)
    assert 0.0 <= p <= 1.0
    assert survival_probability(psi, g, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert survival_probability(psi, g, -theta) == pytest.approx(p, abs=1e-12)


@SMALL
@given(twice_js, seeds, st.lists(st.integers(0, 1000), min_size=1, max_size=20))
def test_batched_inversion_equals_per_count_estimates(twice_j, seed, counts):
    psi, g = _state_and_generator(twice_j, seed, axis_only=False)
    model = _SurvivalModel(psi, g)
    bracket = (0.0, model.first_slope_peak())
    counts = counts + [0, 1000]  # both clipped ends
    batched, _ = _invert_monotone(model, np.array(counts) / 1000, bracket)
    single = [estimate_theta(c, 1000, psi, g, bracket) for c in counts]
    assert batched.tolist() == single


@SMALL
@given(twice_js, seeds)
def test_qfi_finite_difference_is_non_negative_and_near_qfi(twice_j, seed):
    psi, g = _state_and_generator(twice_j, seed, axis_only=True)
    fd = qfi_finite_difference(psi, g, 1e-4)
    assert fd >= 0.0
    assert abs(fd - qfi(psi, g)) <= 1e-5 * max(1.0, qfi(psi, g))


@SMALL
@given(twice_js, seeds)
def test_rotation_qfi_is_the_fisher_quadratic_form(twice_j, seed):
    rng = np.random.default_rng(seed)
    psi = random_state(SpinJ(twice_j), rng)
    u = _axis(rng)
    value = rotation_qfi(psi, u)
    assert value == pytest.approx(4.0 * u.u @ fisher_matrix(psi).matrix @ u.u, rel=1e-12, abs=1e-12)
    # and the dense variance of u.J agrees with the O(d) moments
    assert value == pytest.approx(qfi(psi, axis_generator(psi.j, u)), rel=1e-10, abs=1e-10)


@SMALL
@given(twice_js, seeds)
def test_distinguishability_is_symmetric(twice_j, seed):
    rng = np.random.default_rng(seed)
    a, b = random_state(SpinJ(twice_j), rng), random_state(SpinJ(twice_j), rng)
    assert distinguishability(a, b).angle == pytest.approx(distinguishability(b, a).angle, abs=1e-12)


@SMALL
@given(twice_js, seeds, st.floats(-10.0, 10.0))
def test_error_of_state_is_a_probability(twice_j, seed, theta):
    psi, g = _state_and_generator(twice_j, seed, axis_only=False)
    assert 0.0 <= error_of_state(psi, generator_unitary(g, theta)) <= 1.0


@SMALL
@given(st.integers(2, 12), seeds, st.integers(1, 3))
def test_kl_violation_is_invariant_under_codeword_phases(twice_j, seed, k):
    j = SpinJ(twice_j)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(j.dim, k)) + 1j * rng.normal(size=(j.dim, k)))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=k))
    ops = build_spin_operators(j)
    errors = ErrorSet([ops.jx, ops.jz, ops.jplus])
    plain = CodeSpace(j, [SpinState(j, basis[:, i]) for i in range(k)])
    phased = CodeSpace(j, [SpinState(j, phases[i] * basis[:, i]) for i in range(k)])
    a = kl_check(plain, errors, 1e-9).violation
    b = kl_check(phased, errors, 1e-9).violation
    assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

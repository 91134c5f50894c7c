"""The variance and every leakage come from one kernel, the part of the image
orthogonal to the state, so they keep their relative accuracy when small: the
paper's relation error = theta^2 Var(G) holds to 1e-6 at theta = 1e-8."""

import math

import numpy as np
import pytest

from spinsense import (
    ErrorSet,
    RecoverySet,
    RotationAxis,
    SpinJ,
    SpinOperator,
    SpinState,
    axis_generator,
    build_spin_operators,
    error_of_state,
    error_with_recovery,
    expectation_and_variance,
    generator_unitary,
)
from spinsense.spin import _orthogonal_part
from helpers import random_hermitian, random_state

THETAS = (1e-6, 1e-7, 1e-8)


def _axis_case(twice_j, rng):
    j = SpinJ(twice_j)
    return random_state(j, rng), axis_generator(j, RotationAxis.from_vector(rng.normal(size=3)))


def _dense_case(twice_j, rng):
    j = SpinJ(twice_j)
    return random_state(j, rng), random_hermitian(j, rng)


@pytest.mark.parametrize(
    "case, twice_j", [(_axis_case, 1), (_axis_case, 10), (_axis_case, 101), (_dense_case, 1), (_dense_case, 10)]
)
def test_error_of_state_is_the_small_angle_error_at_tiny_angles(case, twice_j):
    rng = np.random.default_rng(7000 + twice_j)
    for _ in range(3):
        psi, g = case(twice_j, rng)
        _, var = expectation_and_variance(psi, g)
        for theta in THETAS:
            error = error_of_state(psi, generator_unitary(g, theta))
            assert abs(error / (theta * theta * var) - 1.0) <= 1e-6, (theta, error, var)


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-8])
def test_variance_of_a_near_eigenstate_at_large_spin(delta):
    # cos d |J, J> + sin d |J, J-1> under Jz: <Jz> = J - sin^2 d and the
    # variance (cos d sin d)^2 lies up to 32 orders below <Jz>^2 = 2.5e5
    j = SpinJ(1000)
    amps = np.zeros(j.dim, dtype=complex)
    amps[:2] = math.cos(delta), math.sin(delta)
    mean, var = expectation_and_variance(SpinState(j, amps), build_spin_operators(j).jz)
    assert mean == pytest.approx(500.0 - math.sin(delta) ** 2, rel=1e-15)
    assert var == pytest.approx((math.cos(delta) * math.sin(delta)) ** 2, rel=1e-10, abs=0.0)


def test_error_with_recovery_by_the_identity_is_error_of_state():
    rng = np.random.default_rng(7100)
    for twice_j in (1, 10, 101):
        psi, g = _axis_case(twice_j, rng)
        u = generator_unitary(g, 1e-6)
        identity = SpinOperator(psi.j, np.eye(psi.j.dim), "I")
        total = error_with_recovery(psi, ErrorSet([u]), RecoverySet([identity]))
        assert total == pytest.approx(error_of_state(psi, u), rel=1e-12, abs=0.0)


def test_an_overflowing_overlap_is_refused_without_a_warning():
    # G psi = 1.7e308 in every entry, so <psi|G psi> = inf and the subtraction
    # phi - <psi|phi> psi meets inf - inf; filterwarnings turns a warning into a failure
    j = SpinJ(2)
    psi = SpinState(j, np.full(j.dim, 1.0 / math.sqrt(3.0)))
    huge = SpinOperator(j, np.full((j.dim, j.dim), 1e308), "huge")
    with pytest.raises(ValueError) as exc:
        expectation_and_variance(psi, huge)
    assert str(exc.value) == "operator 'huge' is too large: <G> or ||G psi||^2 is not finite"
    ov, orth = _orthogonal_part(psi.amplitudes, np.full(j.dim, np.inf + 0j))
    assert not math.isfinite(orth)


def test_the_orthogonal_part_is_never_negative():
    # an image along the state: the difference ||phi||^2 - |<psi|phi>|^2 can round
    # below zero, the norm of the orthogonal part cannot
    rng = np.random.default_rng(7200)
    for twice_j in (1, 10, 101):
        psi = random_state(SpinJ(twice_j), rng)
        for scale in (1.0, 3.7, 1e5):
            ov, orth = _orthogonal_part(psi.amplitudes, scale * psi.amplitudes)
            assert ov == pytest.approx(scale, rel=1e-14)
            assert 0.0 <= orth <= (1e-15 * scale) ** 2

"""Operators that keep their form: u . J as three bands and its rotations as
one Wigner D-matrix.  Every check reads the form, agrees with the dense check
it stands for, and is still a check."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_state
from spinsense import (
    RotationAxis,
    SpinJ,
    SpinOperator,
    apply,
    axis_generator,
    error_of_state,
    generator_unitary,
    qfi,
    rotation_unitary,
)
from spinsense.spin import (
    _banded,
    _basis_certificate,
    _hermitian_defect,
    _ladder,
    _wigner_basis,
    _wigner_small_d,
)

_NAMED_AXES = {"z": (0.0, 0.0, 1.0), "-z": (0.0, 0.0, -1.0), "x": (1.0, 0.0, 0.0)}


def _dense_generator(j: SpinJ, u: RotationAxis) -> np.ndarray:
    """u . J filled densely, as axis_generator built it before it kept its bands."""
    ux, uy, uz = u.u
    half = _ladder(j.twice_j) / 2.0
    return _banded(j.dim, {0: uz * j.m_values(), 1: complex(ux, -uy) * half, -1: complex(ux, uy) * half})


def _dense_rotation(j: SpinJ, theta: float, u: RotationAxis) -> np.ndarray:
    """exp(-i theta u . J) filled densely, as generator_unitary built it
    before the rotation kept its phases and angle."""
    m = j.m_values()
    if u.u[0] == 0.0 and u.u[1] == 0.0:
        return _banded(j.dim, {0: np.exp(-1j * theta * (u.u[2] * m))})
    ux, uy, uz = u.u
    half_cos, half_sin = math.cos(theta / 2.0), math.sin(theta / 2.0)
    arg_a = math.atan2(-uz * half_sin, half_cos)
    arg_b = math.atan2(-ux * half_sin, uy * half_sin)
    a, c = arg_b - arg_a, -arg_a - arg_b
    b = 2.0 * math.atan2(math.hypot(ux, uy) * abs(half_sin), math.hypot(half_cos, uz * half_sin))
    out = np.multiply(_wigner_small_d(j, b), np.exp(-1j * c * m))
    out *= np.exp(-1j * a * m)[:, None]
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(0, 200),
    st.integers(0, 2**32 - 1),
    st.floats(-4.0, 4.0),
    st.sampled_from(["random", "random", "z", "-z", "x"]),
)
def test_forms_agree_with_their_dense_matrices(twice_j, seed, theta, kind):
    rng = np.random.default_rng(seed)
    j = SpinJ(twice_j)
    axis = RotationAxis.from_vector(rng.normal(size=3) if kind == "random" else _NAMED_AXES[kind])
    g = axis_generator(j, axis)
    u = generator_unitary(g, theta)
    assert "matrix" not in vars(g) and "matrix" not in vars(u)
    # the banded check gives the dense check's two numbers to the bit
    assert g._axis_tag.hermitian_defect() == _hermitian_defect(g.matrix)
    assert u._axis_tag.unitary_bound() <= 1e-10
    x = rng.normal(size=j.dim) + 1j * rng.normal(size=j.dim)
    for op in (g, u):
        assert np.max(np.abs(op._axis_tag.apply(x) - op.matrix @ x)) <= 1e-13 * np.linalg.norm(x)
    # the matrices read lazily are the ones built eagerly before, bit for bit
    assert g.matrix.tobytes() == _dense_generator(j, axis).tobytes()
    assert u.matrix.tobytes() == _dense_rotation(j, theta, axis).tobytes()
    assert not g.matrix.flags.writeable and not u.matrix.flags.writeable


def test_a_corrupted_basis_fails_the_unitary_check():
    twice_j = 40
    j = SpinJ(twice_j)
    psi = random_state(j, np.random.default_rng(4))
    axis = RotationAxis.from_vector([0.3, -0.5, 0.8])
    assert 0.0 < error_of_state(psi, rotation_unitary(j, 0.3, axis)) < 1.0
    _wigner_basis.cache_clear()
    _basis_certificate.cache_clear()
    try:
        basis = _wigner_basis(twice_j)
        basis.setflags(write=True)
        basis[:, 7] *= 1.0 + 1e-9
        basis.setflags(write=False)
        bent = rotation_unitary(j, 0.3, axis)
        with pytest.raises(ValueError, match="not unitary"):
            error_of_state(psi, bent)
        # the dense check on the matrix built from the same basis agrees
        assert not SpinOperator(j, bent.matrix, "bent").is_unitary()
    finally:
        _wigner_basis.cache_clear()
        _basis_certificate.cache_clear()
    assert rotation_unitary(j, 0.3, axis).is_unitary()


@pytest.mark.parametrize("twice_j", [1, 2, 9, 64])
def test_a_corrupted_band_fails_the_hermitian_check(twice_j):
    j = SpinJ(twice_j)
    g = axis_generator(j, RotationAxis.from_vector([0.6, -0.1, 0.3]))
    band = g._axis_tag.lower
    band.setflags(write=True)
    band[-1] += 1e-9j
    assert "matrix" not in vars(g)
    assert g._axis_tag.hermitian_defect() == _hermitian_defect(g.matrix)
    assert g._axis_tag.hermitian_defect()[0] == pytest.approx(1e-9, rel=1e-6)
    assert not g.is_hermitian()
    assert g.is_hermitian(1e-8)


def test_a_matrix_cannot_be_reassigned_and_its_dense_copy_is_checked_densely(monkeypatch):
    j = SpinJ(8)
    psi = random_state(j, np.random.default_rng(8))
    axis = RotationAxis.from_vector([0.2, 0.7, -0.4])
    g = axis_generator(j, axis)
    u = generator_unitary(g, 0.6)
    dense_reads = []

    def counted(m):
        dense_reads.append(m.shape)
        return _hermitian_defect(m)

    monkeypatch.setattr("spinsense.spin._hermitian_defect", counted)
    assert g.is_hermitian() and dense_reads == []
    for op in (g, u):
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.matrix = op.matrix
        with pytest.raises(dataclasses.FrozenInstanceError):
            op._axis_tag = None
    # the forms are kept, and the banded check still runs
    assert g.axis is axis and g.is_hermitian() and dense_reads == []
    # the same matrix given to the constructor: no form, the dense check runs, and still passes
    plain = SpinOperator(j, g.matrix, g.label)
    assert plain._axis_tag is None and plain.axis is None
    assert plain.is_hermitian() and dense_reads == [(j.dim, j.dim)]
    bent = g.matrix.copy()
    bent[5, 2] += 1e-9
    assert not SpinOperator(j, bent, g.label).is_hermitian()

    scaled = SpinOperator(j, u.matrix * (1.0 + 1e-9), u.label)
    assert scaled._axis_tag is None
    assert not scaled.is_unitary()
    assert np.array_equal(apply(scaled, psi), scaled.matrix @ psi.amplitudes)
    with pytest.raises(ValueError, match="not unitary"):
        error_of_state(psi, scaled)


def test_sensor_kernels_allocate_no_square_array():
    j = SpinJ(512)
    psi = random_state(j, np.random.default_rng(512))
    axis = RotationAxis.from_vector([0.3, -0.5, 0.8])
    # the basis and its certificate are cached per 2J; the basis itself is d x d
    error_of_state(psi, rotation_unitary(j, 0.01, axis))
    tracemalloc.start()
    try:
        error = error_of_state(psi, rotation_unitary(j, 0.01, axis))
        value = qfi(psi, axis_generator(j, axis))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < j.dim * j.dim * 8
    assert 0.0 < error < 1.0 and value > 0.0

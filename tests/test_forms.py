"""Operators that keep their form: the standard operators, the tensor
components and u . J as bands, and the rotations of u . J as one Wigner
D-matrix.  Every check reads the form, agrees with the dense check
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
    build_spin_operators,
    error_of_state,
    generator_unitary,
    qfi,
    qfi_finite_difference,
    rotation_unitary,
    tensor_operator,
)
from spinsense.spin import (
    _RotationForm,
    _banded,
    _basis_certificate,
    _cached_spin_table,
    _hermitian_defect,
    _ladder,
    _standard_operator,
    _wigner_basis,
    _wigner_small_d,
)
from spinsense.wigner import _cached_tensor_band

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
    assert g._form.hermitian_defect() == _hermitian_defect(g.matrix)
    assert u._form.unitary_bound() <= 1e-10
    x = rng.normal(size=j.dim) + 1j * rng.normal(size=j.dim)
    for op in (g, u):
        assert np.max(np.abs(op._form.apply(x) - op.matrix @ x)) <= 1e-13 * np.linalg.norm(x)
    # the matrices read lazily are the ones built eagerly before, bit for bit
    assert g.matrix.tobytes() == _dense_generator(j, axis).tobytes()
    assert u.matrix.tobytes() == _dense_rotation(j, theta, axis).tobytes()
    assert not g.matrix.flags.writeable and not u.matrix.flags.writeable


def test_a_corrupted_basis_fails_the_unitary_check():
    # one stored column of the quarter q off by 1e-9, at a small and a large spin
    for twice_j in (40, 400):
        j = SpinJ(twice_j)
        psi = random_state(j, np.random.default_rng(4))
        axis = RotationAxis.from_vector([0.3, -0.5, 0.8])
        assert 0.0 < error_of_state(psi, rotation_unitary(j, 0.3, axis)) < 1.0
        _wigner_basis.cache_clear()
        _basis_certificate.cache_clear()
        try:
            basis = _wigner_basis(twice_j)
            basis.q.setflags(write=True)
            basis.q[0, :, 3] *= 1.0 + 1e-9
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
    band = g._form.bands[-1]
    band.setflags(write=True)
    band[-1] += 1e-9j
    assert "matrix" not in vars(g)
    assert g._form.hermitian_defect() == _hermitian_defect(g.matrix)
    assert g._form.hermitian_defect()[0] == pytest.approx(1e-9, rel=1e-6)
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
            op._form = None
    # the forms are kept, and the banded check still runs
    assert g.axis is axis and g.is_hermitian() and dense_reads == []
    # the same matrix given to the constructor: no form, the dense check runs, and still passes
    plain = SpinOperator(j, g.matrix, g.label)
    assert plain._form is None and plain.axis is None
    assert plain.is_hermitian() and dense_reads == [(j.dim, j.dim)]
    bent = g.matrix.copy()
    bent[5, 2] += 1e-9
    assert not SpinOperator(j, bent, g.label).is_hermitian()

    scaled = SpinOperator(j, u.matrix * (1.0 + 1e-9), u.label)
    assert scaled._form is None
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


def _reference_bands(j: SpinJ) -> dict:
    """The bands of the standard operators and the tensor components, in the
    arithmetic of the dense builds they replace (see _banded)."""
    m = j.m_values()
    # c_k = sqrt(J(J+1) - m(m+1)) at m = m_{k+1}
    c = np.sqrt(j.j * (j.j + 1.0) - m[1:] * (m[1:] + 1.0))
    half = c / 2.0
    bands = {
        "I": {0: 1.0},
        "Jx": {1: half, -1: half},
        "Jy": {1: -1j * half, -1: 1j * half},
        "Jz": {0: m},
        "J+": {1: c},
        "J-": {-1: c},
        "J^2": {0: j.j * (j.j + 1.0)},
    }
    if j.twice_j >= 1:
        bands[(1, 0)] = {0: m}
        for q in (1, -1):
            bands[(1, q)] = {q: -float(q) * c / math.sqrt(2.0)}
    if j.twice_j >= 2:
        bands[(2, 0)] = {0: (3.0 * m * m - j.j * (j.j + 1.0)) / math.sqrt(6.0)}
        for q in (1, -1):
            bands[(2, q)] = {q: -float(q) * 0.5 * c * (m[:-1] + m[1:])}
        for q in (2, -2):
            bands[(2, q)] = {q: 0.5 * c[:-1] * c[1:]}
    return bands


# Jx, Jy and Jz are u . J on the coordinate axes; no other band operator has an axis
_STANDARD_AXES = {"Jx": [1.0, 0.0, 0.0], "Jy": [0.0, 1.0, 0.0], "Jz": [0.0, 0.0, 1.0]}


def _band_operators(j: SpinJ) -> dict:
    """Every operator the library keeps as bands on spin J, keyed as in _reference_bands."""
    ops = {label: _standard_operator(j, label) for label in ("I", "Jx", "Jy", "Jz", "J+", "J-", "J^2")}
    for k in range(1, min(2, j.twice_j) + 1):
        ops.update({(k, q): tensor_operator(j, k, q).op for q in range(-k, k + 1)})
    return ops


@pytest.mark.parametrize("twice_j", [0, 1, 2, 3, 10, 57, 200])
def test_band_operators_keep_the_values_of_their_dense_builds(twice_j):
    j = SpinJ(twice_j)
    reference = _reference_bands(j)
    ops = _band_operators(j)
    assert ops.keys() == reference.keys()
    for key, op in ops.items():
        assert "matrix" not in vars(op)
        assert (None if op.axis is None else op.axis.u.tolist()) == _STANDARD_AXES.get(key), key
        defect = op._form.hermitian_defect()
        assert op.matrix.tobytes() == _banded(j.dim, reference[key]).tobytes(), key
        assert not op.matrix.flags.writeable
        assert defect == _hermitian_defect(op.matrix), key
    # build_spin_operators maps _standard_operator over its six labels
    built = build_spin_operators(j)
    fields = [getattr(built, f.name) for f in dataclasses.fields(built)]
    for label, op in zip(("Jx", "Jy", "Jz", "J+", "J-", "J^2"), fields):
        assert op.label == label and op.matrix.tobytes() == ops[label].matrix.tobytes()


@pytest.mark.parametrize("key", ["Jx", "Jy", "Jz", "J+", "J-", (2, 1)])
def test_a_corrupted_standard_band_keeps_the_dense_check_numbers(key):
    j = SpinJ(9)
    op = _band_operators(j)[key]
    band = next(iter(op._form.bands.values()))
    # the bands of Jz, J+, J- and T(2,1) are the cached read-only arrays of the
    # spin table and the tensor bands: the bent ones are dropped afterwards
    try:
        band.setflags(write=True)
        band[2] += 1e-9
        defect = op._form.hermitian_defect()
        assert defect == _hermitian_defect(op.matrix)
        # the upper band of Jy is its own array: a change there is a defect of 1e-9
        if key == "Jy":
            assert defect[0] == pytest.approx(1e-9, rel=1e-6) and not op.is_hermitian()
    finally:
        _cached_spin_table.cache_clear()
        _cached_tensor_band.cache_clear()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(2, 120), st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-4.0, 4.0))
def test_block_apply_is_the_vector_apply_per_column(twice_j, k, seed, theta):
    rng = np.random.default_rng(seed)
    j = SpinJ(twice_j)
    block = rng.normal(size=(j.dim, k)) + 1j * rng.normal(size=(j.dim, k))
    axis = RotationAxis.from_vector(rng.normal(size=3))
    g = axis_generator(j, axis)
    for op in (*_band_operators(j).values(), g):
        image = op._form.apply(block)
        for i in range(k):
            assert image[:, i].tobytes() == op._form.apply(block[:, i].copy()).tobytes()
    for u in (generator_unitary(g, theta), rotation_unitary(j, theta, RotationAxis.z())):
        gap = np.abs(u._form.apply(block) - u.matrix @ block).max(axis=0)
        assert np.all(gap <= 1e-13 * np.linalg.norm(block, axis=0))


def test_standard_operators_take_the_axis_route():
    j = SpinJ(30)
    psi = random_state(j, np.random.default_rng(30))
    ops = build_spin_operators(j)
    for op, axis in ((ops.jx, RotationAxis.x()), (ops.jy, RotationAxis.y()), (ops.jz, RotationAxis.z())):
        assert np.array_equal(op.axis.u, axis.u)
        generator = axis_generator(j, axis)
        rot = generator_unitary(op, 0.3)
        assert isinstance(rot._form, _RotationForm)
        assert rot.matrix.tobytes() == generator_unitary(generator, 0.3).matrix.tobytes()
        assert qfi_finite_difference(psi, op, 1e-3) == qfi_finite_difference(psi, generator, 1e-3)
        # a formless twin still takes the eigendecomposition, to within 1e-13
        twin = generator_unitary(SpinOperator(j, op.matrix, op.label), 0.3)
        assert twin._form is None and np.abs(rot.matrix - twin.matrix).max() <= 1e-13


@pytest.mark.parametrize("twice_j", [0, 10, 101])
def test_unitary_bound_is_its_formula_and_holds_on_bent_phases(twice_j):
    # D_a and D_c bent by 1 + 1e-6 and 1 + 2e-6, so delta_a and delta_c are
    # about 2e-6 and 4e-6, far above the basis term eps_M.  Bent uniformly, U is
    # the rotation times (1 + 1e-6)(1 + 2e-6), and ||U^dag U - I||_2 is the bound
    # less eps_M terms: a flipped sign in the bound lowers it below the dense
    # defect, by 2 delta_a delta_c or more, far beyond the d eps of round-off allowed
    j = SpinJ(twice_j)
    u = rotation_unitary(j, 0.9, RotationAxis.from_vector([0.4, -0.7, 0.2]))
    form = u._form
    form.outer = form.outer * (1.0 + 1e-6)
    form.inner = form.inner * (1.0 + 2e-6)
    delta_a = float(np.max(np.abs(np.abs(form.outer) ** 2 - 1.0)))
    delta_c = float(np.max(np.abs(np.abs(form.inner) ** 2 - 1.0)))
    e = _basis_certificate(twice_j)
    eps_m = e * (2.0 + e)
    bound = form.unitary_bound()
    assert bound == pytest.approx((1.0 + delta_c) * (eps_m + (1.0 + eps_m) * delta_a) + delta_c, rel=1e-9)
    defect = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(j.dim), 2)
    assert defect >= delta_a + delta_c
    assert bound >= defect - j.dim * np.finfo(float).eps

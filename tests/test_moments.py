"""The per-spin table of m and the ladder, and the O(d) moments that read it.

spin_moments reads its constants from the cached table (_spin_table) and
builds the covariance from Python scalars; every result must keep the bits
of the reference below, which recomputes the constants on each call and
builds the covariance with np.outer.
"""

import numpy as np
import pytest

from helpers import random_state
from spinsense import (
    ErrorSet,
    RotationAxis,
    SpinJ,
    SpinOperator,
    SupportSpec,
    ae_codewords,
    anticoherence_report,
    basis_state,
    build_spin_operators,
    construct_anticoherent,
    detection_check,
    dfs_check,
    fisher_matrix,
    kl_check,
    noon_state,
    rotation_qfi,
    rotation_unitary,
    tensor_operator,
)
from spinsense.sensing import FisherMatrix
from spinsense.spin import MAX_DENSE_TWICE_J, _ladder, _spin_table, spin_moments
from spinsense.wigner import _tensor_band

SIZES = (0, 1, 2, 3, 10, 101, 400, 1000)


def _reference_moments(psi):
    """spin_moments as it was before the table: the constants rebuilt on
    every call, the covariance as second moments minus np.outer of the means."""
    a = psi.amplitudes
    c = _ladder(psi.j.twice_j)
    m = psi.j.m_values()
    prob = np.abs(a) ** 2
    norm = float(np.sum(prob))
    up = c * a[1:]
    jp = np.vdot(a[:-1], up) / norm
    jp2 = np.vdot(a[:-2], c[:-1] * up[1:]) / norm
    jzjp = np.vdot(a[:-1], (m[:-1] - 0.5) * up) / norm
    jz = float(prob @ m) / norm
    jz2 = float(prob @ (m * m)) / norm
    perp = psi.j.j * (psi.j.j + 1.0) - jz2
    sxy = jp2.imag / 2.0
    second = np.array(
        [
            [(perp + jp2.real) / 2.0, sxy, jzjp.real],
            [sxy, (perp - jp2.real) / 2.0, jzjp.imag],
            [jzjp.real, jzjp.imag, jz2],
        ]
    )
    means = np.array([jp.real, jp.imag, jz])
    return means, second - np.outer(means, means)


def _reference_report(psi, tol):
    means, cov = _reference_moments(psi)
    target = psi.j.j * (psi.j.j + 1.0) / 3.0
    max_first = float(np.max(np.abs(means)))
    max_dev = float(np.max(np.abs(cov - target * np.eye(3))))
    return max_first <= tol, max_dev <= tol, max_first, max_dev


def _bits(x) -> bytes:
    """The bytes of a float or a float array: equal bits, signed zeros included."""
    return np.asarray(x, dtype=float).tobytes()


def _states(twice_j: int) -> dict:
    """Random, NOON, constructed anticoherent and basis states of spin J."""
    j = SpinJ(twice_j)
    rng = np.random.default_rng(27 + twice_j)
    states = {f"random{i}": random_state(j, rng) for i in range(3)}
    if twice_j >= 1:
        states["noon"] = noon_state(j)
    # the shells (0, J) reach J(J+1)/3 and keep a gap of at least 2 at J = 0 and from J = 2
    if j.is_integer and twice_j != 2:
        shells = tuple(sorted({0, twice_j // 2}))
        states["constructed"] = construct_anticoherent(SupportSpec(j, shells))
    for tm in {twice_j, -twice_j, twice_j - 2 * (twice_j // 2)}:
        states[f"basis{tm}"] = basis_state(j, tm)
    return states


@pytest.mark.parametrize("twice_j", SIZES)
def test_moments_keep_the_bits_of_the_reference(twice_j):
    axes = [RotationAxis.from_vector(v) for v in ([0.3, 0.4, 0.5], [0.0, 0.0, 1.0], [-1.0, 2.0, 0.1])]
    for name, psi in _states(twice_j).items():
        means, cov = spin_moments(psi)
        ref_means, ref_cov = _reference_moments(psi)
        assert means.shape == (3,) and cov.shape == (3, 3)
        assert np.array_equal(means, ref_means) and _bits(means) == _bits(ref_means), name
        assert np.array_equal(cov, ref_cov) and _bits(cov) == _bits(ref_cov), name
        assert _bits(fisher_matrix(psi).matrix) == _bits(FisherMatrix(ref_cov).matrix), name
        for u in axes:
            assert _bits(rotation_qfi(psi, u)) == _bits(4.0 * float(u.u @ ref_cov @ u.u)), name
        for tol in (1e-12, 1e-9, 1.0):
            rep = anticoherence_report(psi, tol)
            order1, order2, max_first, max_dev = _reference_report(psi, tol)
            assert (rep.order1, rep.order2) == (order1, order2), name
            assert _bits(rep.max_first_moment) == _bits(max_first), name
            assert _bits(rep.max_matrix_deviation) == _bits(max_dev), name


def test_the_states_cover_every_family():
    names = {name.rstrip("0123456789-") for twice_j in SIZES for name in _states(twice_j)}
    assert names == {"random", "noon", "constructed", "basis"}
    assert "constructed" in _states(1000) and "noon" in _states(1)


@pytest.mark.parametrize("twice_j", SIZES)
def test_the_table_is_read_only_and_kept(twice_j):
    j = SpinJ(twice_j)
    table = _spin_table(twice_j)
    m = j.m_values()
    c = _ladder(twice_j)
    assert _bits(table.m) == _bits(m)
    assert _bits(table.m_sq) == _bits(m * m)
    assert _bits(table.c) == _bits(c)
    assert _bits(table.c_head) == _bits(c[:-1])
    assert _bits(table.m_mid) == _bits(m[:-1] - 0.5)
    for array in table:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    again = _spin_table(twice_j)
    assert all(a is b for a, b in zip(again, table))
    # the public m values stay a fresh array of the caller's own
    fresh = j.m_values()
    assert fresh.flags.writeable and fresh is not table.m
    fresh[...] = 7.0
    assert _bits(_spin_table(twice_j).m) == _bits(m)


def test_a_table_above_the_dense_cap_is_not_kept():
    twice_j = MAX_DENSE_TWICE_J + 1
    first, second = _spin_table(twice_j), _spin_table(twice_j)
    assert first.m is not second.m
    assert _bits(first.c) == _bits(second.c) == _bits(_ladder(twice_j))
    assert not first.m.flags.writeable


@pytest.mark.parametrize("twice_j", [2, 9, 24, 400])
def test_tensor_bands_are_read_only_and_kept(twice_j):
    j = SpinJ(twice_j)
    for k in (1, 2):
        for q in range(-k, k + 1):
            band = _tensor_band(twice_j, k, q)
            assert not band.flags.writeable
            assert _tensor_band(twice_j, k, q) is band
            (op_band,) = tensor_operator(j, k, q).op._form.bands.values()
            assert op_band is band
    assert _bits(_tensor_band(twice_j, 1, 0)) == _bits(_spin_table(twice_j).m)


def test_verdicts_are_python_bools_at_a_numpy_tolerance():
    tol = np.float64(1e-9)
    j = SpinJ(12)
    psi = construct_anticoherent(SupportSpec(j, (0, 6)))
    rep = anticoherence_report(psi, tol)
    assert type(rep.order1) is bool and type(rep.order2) is bool
    code = ae_codewords(j, 3, 6)
    ops = build_spin_operators(j)
    errors = ErrorSet([ops.jz, ops.jplus])
    for report in (kl_check(code, errors, tol), detection_check(code, errors, tol)):
        assert type(report.passed) is bool
    assert type(dfs_check(code, ops.jz, tol)) is bool
    u = rotation_unitary(j, 0.3, RotationAxis.from_vector([1.0, 2.0, 2.0]))
    dense = SpinOperator(j, np.eye(j.dim), "I")
    for op in (ops.jx, dense, u):
        assert type(op.is_hermitian(tol)) is bool
        assert type(op.is_unitary(tol)) is bool

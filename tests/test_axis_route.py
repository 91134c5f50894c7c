"""The axis route: rotations about u and survival weights from the cached real
Wigner basis, checked against the eigendecomposition route they replace."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian, random_state
from spinsense import (
    EstimationConfig,
    RotationAxis,
    SpinJ,
    SpinOperator,
    apply,
    axis_generator,
    build_spin_operators,
    crb_report,
    generator_unitary,
    qfi_finite_difference,
    rotation_unitary,
)
from spinsense.metrics import _SurvivalModel
from spinsense.spin import (
    _UNFOLDED_MAX_TWICE_J,
    _axis_spectrum,
    _basis_certificate,
    _hermitian_defect,
    _ladder,
    _unfolded,
    _wigner_basis,
    _wigner_small_d,
    spin_moments,
)


def _untagged(g: SpinOperator) -> SpinOperator:
    """The same matrix without the axis tag: it takes the eigendecomposition route."""
    plain = SpinOperator(g.j, g.matrix, g.label)
    assert plain.axis is None
    return plain


def _unfold(twice_j: int) -> np.ndarray:
    """The d x d basis D' unfolded from the stored quarter by the two symmetries,
    written out entry by entry: row k >= t of column n is R_k R_{d-1-k} sigma_n
    times row d-1-k, and column 2J - n is S = diag((-1)^k) times column n."""
    basis = _wigner_basis(twice_j)
    dim, top = twice_j + 1, twice_j // 2 + 1
    n = np.arange(top)
    sigma = (-1.0) ** (twice_j - n)
    r = (-1.0) ** (np.arange(dim) // 2)
    d = np.empty((dim, dim))
    for c, cols in enumerate((n[sigma > 0], n[sigma < 0])):
        d[:top, cols] = basis.q[c, :, : len(cols)]
    for k in range(top, dim):
        d[k, :top] = r[k] * r[dim - 1 - k] * sigma * d[dim - 1 - k, :top]
    for m in range(top):
        d[:, twice_j - m] = (-1.0) ** np.arange(dim) * d[:, m]
    return d


def _eigh_basis(twice_j: int) -> np.ndarray:
    """The reference D' = R D from a dense eigh of the real tridiagonal Jx."""
    half = _ladder(twice_j) / 2.0
    _, d = np.linalg.eigh(np.diag(half, 1) + np.diag(half, -1))
    return d * ((-1.0) ** (np.arange(twice_j + 1) // 2))[:, None]


def _eigh_spectrum(psi, g):
    evals, evecs = np.linalg.eigh(g.matrix)
    return evals, np.abs(evecs.conj().T @ psi.amplitudes) ** 2


@pytest.mark.parametrize("twice_j", [1, 2, 3, 10, 101, 400])
def test_spectrum_and_weights_match_eigh(twice_j):
    rng = np.random.default_rng(500 + twice_j)
    j = SpinJ(twice_j)
    for _ in range(3):
        psi = random_state(j, rng)
        axis = RotationAxis.from_vector(rng.normal(size=3))
        evals, weights = _axis_spectrum(psi, axis)
        want_evals, want_weights = _eigh_spectrum(psi, axis_generator(j, axis))
        assert np.array_equal(evals, j.m_values()[::-1])
        assert np.max(np.abs(evals - want_evals)) <= 1e-13 * max(1.0, j.j)
        assert np.max(np.abs(weights - want_weights)) <= 1e-13


@pytest.mark.parametrize("u", [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
@pytest.mark.parametrize("twice_j", [1, 4, 9])
def test_poles_are_exact_diagonals(twice_j, u):
    # beta = 0 and beta = pi, where alpha is undefined
    rng = np.random.default_rng(twice_j)
    j = SpinJ(twice_j)
    psi = random_state(j, rng)
    g = axis_generator(j, RotationAxis(np.array(u)))
    evals, weights = _axis_spectrum(psi, g.axis)
    assert np.array_equal(evals, np.sort(u[2] * j.m_values()))
    assert np.array_equal(np.sort(weights), np.sort(np.abs(psi.amplitudes) ** 2))
    rot = generator_unitary(g, 0.3).matrix
    assert np.array_equal(rot, np.diag(np.exp(-0.3j * u[2] * j.m_values())))
    # bit-identical to the eigendecomposition route on the same diagonal matrix
    assert np.array_equal(rot, generator_unitary(_untagged(g), 0.3).matrix)
    want_evals, want_weights = _eigh_spectrum(psi, g)
    assert np.array_equal(evals, want_evals)
    assert np.array_equal(weights, want_weights)


def test_y_axis_rotation_is_the_wigner_d_matrix():
    j = SpinJ(7)
    for beta in (0.0, 0.4, -2.1, math.pi):
        rot = rotation_unitary(j, beta, RotationAxis.y()).matrix
        assert np.max(np.abs(rot - _wigner_small_d(j, beta))) <= 1e-14


@pytest.mark.parametrize("twice_j", list(range(0, 13)))
def test_small_d_matches_expm(twice_j):
    from scipy.linalg import expm

    j = SpinJ(twice_j)
    jy = build_spin_operators(j).jy.matrix
    for beta in (0.0, 0.7, -1.3, math.pi, 2.9):
        d = _wigner_small_d(j, beta)
        assert d.dtype == float
        assert np.max(np.abs(d - expm(-1j * beta * jy))) <= 1e-13


@pytest.mark.parametrize("twice_j", [40, 100, 101])
def test_small_d_matches_expm_at_larger_spins(twice_j):
    from scipy.linalg import expm

    j = SpinJ(twice_j)
    jy = build_spin_operators(j).jy.matrix
    for beta in (0.7, -2.3):
        assert np.max(np.abs(_wigner_small_d(j, beta) - expm(-1j * beta * jy))) <= 1e-13


@pytest.mark.parametrize("twice_j", list(range(0, 14)) + [100, 101, 400])
def test_basis_columns_mirror_to_the_bit(twice_j):
    # the library's unfolded basis is the entry-by-entry unfolding, to the bit,
    # so the mirror (S = diag((-1)^k) takes the eigenvector for lambda to one for
    # -lambda) and the row parity hold exactly; and every column of it, mirrored
    # rows and images included, is an eigenvector of R Jx R for its lambda
    basis = _wigner_basis(twice_j)
    d = _unfold(twice_j)
    assert np.array_equal(_unfolded(twice_j, basis), d)
    assert basis.full is None or np.array_equal(basis.full, d)
    dim, top = twice_j + 1, twice_j // 2 + 1
    sign = (-1.0) ** np.arange(dim)
    for n in range(dim // 2):
        assert np.array_equal(d[:, twice_j - n], sign * d[:, n])
    r = (-1.0) ** (np.arange(dim) // 2)
    half = r[:-1] * r[1:] * _ladder(twice_j) / 2.0
    rjr = np.diag(half, 1) + np.diag(half, -1)
    lam = np.arange(dim) - twice_j / 2.0
    assert np.max(np.abs(rjr @ d - d * lam)) <= 1e-13 * max(1.0, twice_j)
    if dim % 2:
        # the centre entry of a sigma = -1 column is 0, exactly
        assert not np.any(basis.q[1, top - 1])


@pytest.mark.parametrize("twice_j", [1, 2, 3, 10, 11, 100, 101, 400, 1000])
def test_basis_matches_a_dense_eigh_reference(twice_j):
    d = _unfold(twice_j)
    ref = _eigh_basis(twice_j)
    aligned = ref * np.sign(np.sum(ref * d, axis=0))
    assert np.max(np.abs(aligned - d)) <= 1e-13
    assert np.max(np.abs(d.T @ d - np.eye(twice_j + 1))) <= 1e-13


def test_unitary_bound_at_large_spin():
    # one certificate norm e and eps_M <= e (2 + e): about 2.4e-13 here
    rng = np.random.default_rng(1000)
    u = rotation_unitary(SpinJ(1000), 0.7, RotationAxis.from_vector(rng.normal(size=3)))
    assert u._form.inner is not None  # off the poles
    assert 0.0 < u._form.unitary_bound() <= 6e-13


@pytest.mark.parametrize("beta", [0.0, 0.5, -1.1, math.pi / 2, 3.0])
def test_small_d_closed_forms(beta):
    # rows m' and columns m in the order J, ..., -J
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    half = np.array([[c, -s], [s, c]])
    assert np.max(np.abs(_wigner_small_d(SpinJ(1), beta) - half)) <= 1e-15
    cb, sb = math.cos(beta), math.sin(beta) / math.sqrt(2.0)
    one = np.array(
        [
            [(1 + cb) / 2, -sb, (1 - cb) / 2],
            [sb, cb, -sb],
            [(1 - cb) / 2, sb, (1 + cb) / 2],
        ]
    )
    assert np.max(np.abs(_wigner_small_d(SpinJ(2), beta) - one)) <= 1e-15


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(-4.0, 4.0))
def test_axis_route_equals_eigh_route(twice_j, seed, theta):
    rng = np.random.default_rng(seed)
    j = SpinJ(twice_j)
    psi = random_state(j, rng)
    g = axis_generator(j, RotationAxis.from_vector(rng.normal(size=3)))
    plain = _untagged(g)
    tagged, reference = _SurvivalModel(psi, g), _SurvivalModel(psi, plain)
    assert np.max(np.abs(tagged.evals - reference.evals)) <= 1e-13
    assert np.max(np.abs(tagged.weights - reference.weights)) <= 1e-13
    rot = generator_unitary(g, theta).matrix
    assert np.max(np.abs(rot - generator_unitary(plain, theta).matrix)) <= 1e-13


def test_crb_report_off_the_poles_matches_the_eigh_route():
    j = SpinJ(6)
    psi = random_state(j, np.random.default_rng(3))
    g = axis_generator(j, RotationAxis.from_vector([0.3, -0.5, 0.8]))
    peak = _SurvivalModel(psi, g).first_slope_peak()
    results = [
        crb_report(EstimationConfig(psi, gen, 0.5 * peak, trials_per_run=10**5, runs=200, seed=7))
        for gen in (g, _untagged(g))
    ]
    assert np.max(np.abs(results[0].theta_hats - results[1].theta_hats)) <= 1e-12
    assert results[0].clipped_runs == results[1].clipped_runs
    assert qfi_finite_difference(psi, g, 1e-4) == pytest.approx(
        qfi_finite_difference(psi, _untagged(g), 1e-4), rel=1e-10
    )


def test_axis_route_runs_no_complex_eigh(monkeypatch):
    real_eigh = np.linalg.eigh
    seen = []

    def eigh(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        assert not np.iscomplexobj(a), "complex eigh on the axis route"
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    _wigner_basis.cache_clear()
    j = SpinJ(9)
    psi = random_state(j, np.random.default_rng(1))
    g = axis_generator(j, RotationAxis.from_vector([0.2, 0.7, -0.4]))
    generator_unitary(g, 0.3)
    rotation_unitary(j, 0.3, RotationAxis.x())
    qfi_finite_difference(psi, g, 1e-4)
    _SurvivalModel(psi, axis_generator(j, RotationAxis.z())).first_slope_peak()
    assert seen == []  # the basis comes from its recurrence, with no eigh at all
    with pytest.raises(AssertionError, match="complex eigh"):
        generator_unitary(_untagged(g), 0.3)


def test_wigner_basis_is_cached_capped_and_frozen():
    assert _wigner_basis.cache_info().maxsize >= 4
    for twice_j in (6, 401):
        basis = _wigner_basis(twice_j)
        assert _wigner_basis(twice_j) is basis
        stored = [basis.q, basis.fold, basis.twice_lam, basis.weight]
        # the unfolded basis is kept only where the kernel reads it
        assert (basis.full is None) == (twice_j > _UNFOLDED_MAX_TWICE_J)
        for a in stored + ([] if basis.full is None else [basis.full]):
            assert not a.flags.writeable
        # the quarter: top ceil(d/2) rows of the ceil(d/2) columns with lambda <= 0
        assert basis.q.shape == (2, twice_j // 2 + 1, (twice_j // 2 + 2) // 2)
        d = _unfold(twice_j)
        assert np.max(np.abs(d.T @ d - np.eye(twice_j + 1))) <= 1e-14
    # the dense limit is checked before anything is allocated, so this is fast
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2J <= 4096"):
            _wigner_basis(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_wigner_basis_at_the_cap():
    # 2J = 4096: the edge entries of a column are about 2^-J of its largest,
    # so the recurrence rescales; every stored entry stays finite, the
    # certificate stays small and an off-pole rotation passes is_unitary
    j = SpinJ(4096)
    try:
        basis = _wigner_basis(j.twice_j)
        assert np.all(np.isfinite(basis.q))
        assert _basis_certificate(j.twice_j) <= 1e-12
        u = rotation_unitary(j, 0.0001, RotationAxis.from_vector([1.0, 1.0, 1.0]))
        assert u._form.inner is not None and u.is_unitary()
        psi = random_state(j, np.random.default_rng(4096))
        assert abs(np.linalg.norm(apply(u, psi)) - 1.0) <= 1e-12
    finally:
        _wigner_basis.cache_clear()
        _basis_certificate.cache_clear()


def test_axis_tag_is_not_data():
    j = SpinJ(4)
    axis = RotationAxis.from_vector([1.0, 1.0, 0.0])
    g = axis_generator(j, axis)
    assert g.axis is axis
    plain = _untagged(g)
    # a twin without the tag that shares the same matrix object
    twin = SpinOperator.__new__(SpinOperator)
    twin.__dict__.update(j=j, label=g.label, _form=None, matrix=g.matrix)
    assert twin.axis is None and g == twin
    assert repr(g) == repr(plain)
    assert g.to_json_dict() == plain.to_json_dict()
    assert SpinOperator.from_json_dict(g.to_json_dict()).axis is None
    assert dataclasses.replace(g).axis is None
    with pytest.raises(TypeError):
        SpinOperator(j, g.matrix, "G", _form=(axis, g.matrix))
    # neither the matrix nor the tag can be reassigned, so the tag always describes u.J
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.matrix = build_spin_operators(j).jz.matrix
    with pytest.raises(dataclasses.FrozenInstanceError):
        g._form = None
    assert g.axis is axis


def test_rotations_are_not_generators():
    j = SpinJ(5)
    assert rotation_unitary(j, 0.2, RotationAxis.x()).axis is None
    assert generator_unitary(build_spin_operators(j).jz, 0.2).axis is None


def test_is_unitary_sees_an_imaginary_defect():
    j = SpinJ(6)
    rot = rotation_unitary(j, 0.8, RotationAxis.from_vector([0.4, -0.3, 0.5]))
    assert rot.is_unitary(1e-10)
    col_j, col_k = 2, 5
    bent = rot.matrix.copy()
    bent[:, col_j] += 1e-9j * bent[:, col_k]
    gram = bent.conj().T @ bent
    assert abs(gram[col_k, col_j] - 1e-9j) <= 1e-15
    op = SpinOperator(j, bent, "bent")
    assert not op.is_unitary(1e-10)
    assert op.is_unitary(1e-8)


def test_user_matrices_are_copied_and_library_matrices_frozen():
    j = SpinJ(3)
    user = np.eye(j.dim, dtype=complex)
    op = SpinOperator(j, user, "I")
    assert user.flags.writeable
    assert not np.shares_memory(user, op.matrix)
    user[0, 0] = 5.0
    assert op.matrix[0, 0] == 1.0
    library = [
        *vars(build_spin_operators(j)).values(),
        axis_generator(j, RotationAxis.from_vector([1.0, 2.0, 3.0])),
        rotation_unitary(j, 0.4, RotationAxis.y()),
        rotation_unitary(j, 0.4, RotationAxis.z()),
    ]
    for lib in library:
        assert not lib.matrix.flags.writeable
        with pytest.raises(ValueError):
            lib.matrix[0, 0] = 1.0


@pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 7])
def test_off_pole_rotations_keep_the_su2_sign(twice_j):
    # exp(-i 2 pi u.J) = (-1)^(2J): a rotation by 2 pi flips half-integer spins
    rng = np.random.default_rng(80 + twice_j)
    j = SpinJ(twice_j)
    sign = -1.0 if twice_j % 2 else 1.0
    for theta in (0.4, -2.5, 3.9):
        axis = RotationAxis.from_vector(rng.normal(size=3))
        rot = rotation_unitary(j, theta, axis).matrix
        turned = rotation_unitary(j, theta + 2.0 * math.pi, axis).matrix
        assert np.max(np.abs(turned - sign * rot)) <= 1e-13
        assert np.max(np.abs(rotation_unitary(j, theta + 4.0 * math.pi, axis).matrix - rot)) <= 1e-13


@pytest.mark.parametrize("twice_j", [101, 400])
def test_axis_route_matches_eigh_route_at_large_spin(twice_j):
    rng = np.random.default_rng(twice_j)
    j = SpinJ(twice_j)
    g = axis_generator(j, RotationAxis.from_vector(rng.normal(size=3)))
    theta = 0.37
    rot = generator_unitary(g, theta).matrix
    assert np.max(np.abs(rot - generator_unitary(_untagged(g), theta).matrix)) <= 1e-12


@pytest.mark.parametrize("twice_j", [1000, 1001])
def test_axis_route_at_large_spin_matches_the_moments(twice_j):
    # spin_moments reads the amplitudes and the ladder in O(d) and never the
    # Wigner basis; the spectrum takes d(-beta), the rotation d(beta)
    rng = np.random.default_rng(900 + twice_j)
    j = SpinJ(twice_j)
    for _ in range(2):
        psi = random_state(j, rng)
        axis = RotationAxis.from_vector(rng.normal(size=3))
        assert not (axis.u[0] == 0.0 and axis.u[1] == 0.0)
        means, cov = spin_moments(psi)
        evals, weights = _axis_spectrum(psi, axis)
        assert abs(np.sum(weights) - 1.0) <= 1e-12
        assert abs(evals @ weights - axis.u @ means) <= 1e-13 * j.j
        second = axis.u @ (cov + np.outer(means, means)) @ axis.u
        assert (evals * evals) @ weights == pytest.approx(second, rel=1e-12)
        theta = rng.uniform(-3.0, 3.0)
        amp = np.vdot(psi.amplitudes, apply(rotation_unitary(j, theta, axis), psi))
        _, want = _SurvivalModel(psi, axis_generator(j, axis)).amplitude(theta)
        assert abs(amp - want[0]) <= 1e-12


@pytest.mark.parametrize("twice_j", [100, 101, 400, 401])
def test_small_d_matches_one_full_product(twice_j):
    # odd and even d, on both sides of the fold: the mirrored-column form
    # D' W D'^T gives every entry of the independent form
    # D' cos(bL) D'^T + T D' sin(bL) D'^T, with T folded into the rows of D',
    # for the matrix and for a block
    j = SpinJ(twice_j)
    assert (_wigner_basis(twice_j).full is None) == (twice_j > _UNFOLDED_MAX_TWICE_J)
    basis = _unfold(twice_j)
    lam = j.m_values()[::-1]
    odd = np.arange(j.dim) % 2 == 1
    y = np.random.default_rng(twice_j).normal(size=(j.dim, 4))
    for beta in (0.3, -1.7, math.pi):
        d = _wigner_small_d(j, beta)
        assert np.max(np.abs(d.T @ d - np.eye(j.dim))) <= 1e-12
        c, s = np.cos(beta * lam), np.sin(beta * lam)
        full = (basis * np.where(odd[:, None], c + s, c - s)) @ basis.T
        assert np.max(np.abs(d - full)) <= 1e-12
        assert np.max(np.abs(_wigner_small_d(j, beta, y) - full @ y)) <= 1e-12


@pytest.mark.parametrize("dim", [63, 64, 65, 129])
def test_hermitian_check_reads_strips(dim):
    rng = np.random.default_rng(dim)
    j = SpinJ(dim - 1)
    herm = random_hermitian(j, rng).matrix
    for m in (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), herm):
        defect, size = _hermitian_defect(m)
        assert defect == np.max(np.abs(m - m.conj().T))
        assert size == np.max(np.abs(m))
    # a defect only in the lower triangle, at row 100, column 2 where d = 129
    assert SpinOperator(j, herm, "H").is_hermitian()
    bent = herm.copy()
    bent[min(100, dim - 1), 2] += 1e-9
    op = SpinOperator(j, bent, "bent")
    assert _hermitian_defect(op.matrix)[0] == pytest.approx(1e-9, rel=1e-6)
    assert not op.is_hermitian()
    assert op.is_hermitian(1e-8)


def test_hermitian_check_allocates_no_square_temporary():
    j = SpinJ(512)
    g = axis_generator(j, RotationAxis.from_vector([0.3, -0.5, 0.8]))
    tracemalloc.start()
    try:
        assert g.is_hermitian()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < j.dim * j.dim * 8  # a d x d float array; the matrix itself is twice that


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_rejected_before_any_matrix_work(theta, monkeypatch):
    j = SpinJ(6)
    g = axis_generator(j, RotationAxis.from_vector([0.2, 0.7, -0.4]))
    polar = axis_generator(j, RotationAxis.z())

    def no_matrix_work(m):
        raise AssertionError("the Hermitian check ran")

    monkeypatch.setattr("spinsense.spin._hermitian_defect", no_matrix_work)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gen in (g, polar, _untagged(g)):
            with pytest.raises(ValueError, match="theta must be finite"):
                generator_unitary(gen, theta)
        with pytest.raises(ValueError, match="theta must be finite"):
            rotation_unitary(j, theta, RotationAxis.x())

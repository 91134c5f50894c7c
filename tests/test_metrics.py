import math

import numpy as np
import pytest

from spinsense import (
    CodeSpace,
    Distribution,
    ProjectorBasis,
    SpinJ,
    SpinOperator,
    SpinState,
    basis_state,
    build_spin_operators,
    classical_fisher,
    construct_anticoherent,
    distinguishability,
    error_small_theta,
    generator_unitary,
    max_error_over_code,
    measurement_distribution,
    noon_state,
    qfi,
    qfi_finite_difference,
    statistical_distance,
    survival_probability,
)
from spinsense import SupportSpec, axis_generator, RotationAxis
from spinsense.metrics import _SurvivalModel
from helpers import random_hermitian, random_state, random_unitary

HALF = SpinJ(1)


def _qubit(alpha, beta):
    v = np.array([alpha, beta], dtype=complex)
    return SpinState(HALF, v / np.linalg.norm(v))


def _computational_basis():
    return ProjectorBasis.from_states([basis_state(HALF, 1), basis_state(HALF, -1)])


def _plus_minus_basis():
    plus = _qubit(1.0, 1.0)
    minus = _qubit(1.0, -1.0)
    return ProjectorBasis.from_states([plus, minus])


def test_measurement_computational_basis():
    alpha, beta = 0.6, complex(0.0, 0.8)
    psi = _qubit(alpha, beta)
    dist = measurement_distribution(psi, _computational_basis())
    assert dist.probs == pytest.approx([0.36, 0.64], abs=1e-12)


def test_measurement_plus_minus_basis():
    rng = np.random.default_rng(2)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = SpinState(HALF, v / np.linalg.norm(v))
    alpha, beta = psi.amplitudes
    dist = measurement_distribution(psi, _plus_minus_basis())
    expected = [
        (1.0 + 2.0 * np.real(np.conj(alpha) * beta)) / 2.0,
        (1.0 - 2.0 * np.real(np.conj(alpha) * beta)) / 2.0,
    ]
    assert dist.probs == pytest.approx(expected, abs=1e-12)


def test_measurement_of_basis_member_is_deterministic():
    dist = measurement_distribution(basis_state(HALF, 1), _computational_basis())
    assert dist.probs == pytest.approx([1.0, 0.0], abs=1e-14)


def test_incomplete_projector_set_rejected():
    p1 = basis_state(HALF, 1)
    proj = SpinOperator(HALF, np.outer(p1.amplitudes, p1.amplitudes.conj()), "P")
    with pytest.raises(ValueError):
        ProjectorBasis([proj])


def test_statistical_distance_identical_and_disjoint():
    p = Distribution(np.array([0.3, 0.7]))
    assert statistical_distance(p, p).omega == pytest.approx(0.0, abs=1e-12)
    a = Distribution(np.array([1.0, 0.0]))
    b = Distribution(np.array([0.0, 1.0]))
    assert statistical_distance(a, b).omega == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_statistical_distance_frozen_example():
    p = Distribution(np.array([0.5, 0.5]))
    q = Distribution(np.array([0.8, 0.2]))
    omega, bc = statistical_distance(p, q)
    assert bc == pytest.approx(0.94868329805051380, abs=1e-15)
    assert omega == pytest.approx(0.32175055439664219, abs=1e-15)


def test_statistical_distance_symmetric_and_bounded():
    rng = np.random.default_rng(9)
    for _ in range(30):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        dp, dq = Distribution(p), Distribution(q)
        fwd = statistical_distance(dp, dq)
        rev = statistical_distance(dq, dp)
        assert fwd.omega == rev.omega
        assert 0.0 <= fwd.omega <= math.pi / 2.0


def test_statistical_distance_length_mismatch():
    with pytest.raises(ValueError):
        statistical_distance(Distribution(np.array([1.0])), Distribution(np.array([0.5, 0.5])))


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        Distribution(np.array([-0.1, 1.1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distribution_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        Distribution(np.array([bad, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call", ["error_small_theta", "max_error_over_code", "survival_probability", "classical_fisher"]
)
def test_non_finite_angles_and_derivatives_rejected(call, bad):
    # a comparison such as abs(theta) > 0.1 is False for NaN, so each guard
    # must reject non-finite input explicitly instead of returning nan
    j = SpinJ(4)
    psi, jz = noon_state(j), build_spin_operators(j).jz
    code = CodeSpace(j, [basis_state(j, 4), basis_state(j, -4)])
    calls = {
        "error_small_theta": lambda: error_small_theta(psi, jz, bad),
        "max_error_over_code": lambda: max_error_over_code(code, jz, bad),
        "survival_probability": lambda: survival_probability(psi, jz, bad),
        "classical_fisher": lambda: classical_fisher(Distribution([0.5, 0.5]), [bad, -bad]),
    }
    with pytest.raises(ValueError):
        calls[call]()


def test_distinguishability_global_phase_and_orthogonal():
    rng = np.random.default_rng(13)
    psi = random_state(SpinJ(4), rng)
    phi = SpinState(psi.j, np.exp(0.7j) * psi.amplitudes)
    assert distinguishability(psi, phi).angle == pytest.approx(0.0, abs=1e-7)
    a, b = basis_state(SpinJ(2), 2), basis_state(SpinJ(2), 0)
    assert distinguishability(a, b).angle == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_distinguishability_qubit_plus():
    rep = distinguishability(basis_state(HALF, 1), _qubit(1.0, 1.0))
    assert rep.angle == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert rep.sin_angle**2 + rep.cos_angle**2 == pytest.approx(1.0, abs=1e-12)


def test_classical_fisher_zero_derivative():
    assert classical_fisher(Distribution(np.array([0.4, 0.6])), [0.0, 0.0]) == 0.0


@pytest.mark.parametrize("twice_j", (2, 4, 5))
def test_classical_fisher_binomial_survival_model(twice_j):
    # P = (cos^2(J t), sin^2(J t)) gives F = 4 J^2 at any interior angle
    jphys = twice_j / 2.0
    theta = 0.3
    p = Distribution(np.array([math.cos(jphys * theta) ** 2, math.sin(jphys * theta) ** 2]))
    slope = jphys * math.sin(2.0 * jphys * theta)
    f = classical_fisher(p, [-slope, slope])
    assert f == pytest.approx(4.0 * jphys * jphys, rel=1e-12)


def test_classical_fisher_two_term_algebra():
    c = 0.37
    assert classical_fisher(Distribution(np.array([0.5, 0.5])), [c, -c]) == pytest.approx(
        4.0 * c * c, rel=1e-14
    )


def test_classical_fisher_singular_support():
    with pytest.raises(ValueError):
        classical_fisher(Distribution(np.array([1.0, 0.0])), [-0.1, 0.1])
    # zero probability with zero derivative is fine
    assert classical_fisher(Distribution(np.array([1.0, 0.0])), [0.0, 0.0]) == 0.0


def test_classical_fisher_requires_probability_conservation():
    with pytest.raises(ValueError):
        classical_fisher(Distribution(np.array([0.5, 0.5])), [0.1, 0.1])


def test_qfi_eigenstate_zero():
    j = SpinJ(6)
    assert qfi(basis_state(j, 4), build_spin_operators(j).jz) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("twice_j", (2, 4, 10))
def test_qfi_noon(twice_j):
    j = SpinJ(twice_j)
    assert qfi(noon_state(j), build_spin_operators(j).jz) == pytest.approx(
        float(twice_j) ** 2, rel=1e-12
    )


def test_qfi_anticoherent_j3_axis_independent():
    psi = construct_anticoherent(SupportSpec(SpinJ(6), (0, 3)))
    rng = np.random.default_rng(19)
    for _ in range(5):
        u = RotationAxis.from_vector(rng.normal(size=3))
        assert qfi(psi, axis_generator(psi.j, u)) == pytest.approx(16.0, abs=1e-10)


def test_qfi_finite_difference_eigenstate():
    j = SpinJ(4)
    g = build_spin_operators(j).jz
    assert qfi_finite_difference(basis_state(j, 2), g, 1e-4) <= 1e-12


def test_qfi_finite_difference_noon():
    j = SpinJ(4)
    f = qfi_finite_difference(noon_state(j), build_spin_operators(j).jz, 1e-4)
    assert f == pytest.approx(16.0, rel=1e-6)


def test_qfi_finite_difference_matches_qfi_random():
    rng = np.random.default_rng(29)
    j = SpinJ(5)
    for _ in range(20):
        psi = random_state(j, rng)
        g = random_hermitian(j, rng, norm=4.0)
        assert qfi_finite_difference(psi, g, 1e-4) == pytest.approx(qfi(psi, g), rel=1e-5)


@pytest.mark.parametrize("twice_j", [1, 2, 5, 40, 100])
def test_qfi_finite_difference_matches_dense_rotation(twice_j):
    # reference: rotate psi with the dense exp(-i step G), then the overlap angle
    rng = np.random.default_rng(100 + twice_j)
    j = SpinJ(twice_j)
    for step in (1e-4, 1e-3 / twice_j):
        psi = random_state(j, rng)
        g = axis_generator(j, RotationAxis.from_vector(rng.normal(size=3)))
        phi = generator_unitary(g, step).matrix @ psi.amplitudes
        ov = np.vdot(psi.amplitudes, phi)
        lam = math.atan2(np.linalg.norm(phi - ov * psi.amplitudes), abs(ov))
        dense = 4.0 * (lam / step) ** 2
        assert qfi_finite_difference(psi, g, step) == pytest.approx(dense, rel=1e-10)


def test_qfi_finite_difference_step_validation():
    j = SpinJ(2)
    g = build_spin_operators(j).jz
    with pytest.raises(ValueError):
        qfi_finite_difference(basis_state(j, 2), g, 0.5)
    with pytest.raises(ValueError):
        qfi_finite_difference(basis_state(j, 2), g, 0.0)


def test_optimal_two_outcome_basis_attains_distinguishability():
    rng = np.random.default_rng(47)
    j = SpinJ(4)
    for _ in range(10):
        psi = random_state(j, rng)
        g = random_hermitian(j, rng, norm=2.0)
        phi = SpinState(j, generator_unitary(g, 0.4).matrix @ psi.amplitudes)
        lam = distinguishability(psi, phi).angle
        basis = ProjectorBasis.two_outcome(psi)
        p_phi = measurement_distribution(phi, basis)
        # arccos(sqrt(P_yes)) of the induced binomial equals the angle
        assert math.acos(math.sqrt(p_phi.probs[0])) == pytest.approx(lam, abs=1e-10)
        # the full two-distribution route carries sqrt(eps)-amplified noise
        # from the ~1e-16 'no' probability of psi itself, hence the looser bound
        p_psi = measurement_distribution(psi, basis)
        omega = statistical_distance(p_psi, p_phi).omega
        assert omega <= lam + 1e-9
        assert omega == pytest.approx(lam, abs=1e-7)


def test_no_basis_beats_distinguishability():
    rng = np.random.default_rng(59)
    j = SpinJ(4)
    psi = random_state(j, rng)
    phi = random_state(j, rng)
    lam = distinguishability(psi, phi).angle
    for _ in range(50):
        u = random_unitary(j.dim, rng)
        basis = ProjectorBasis.from_states([SpinState(j, u[:, k]) for k in range(j.dim)])
        omega = statistical_distance(
            measurement_distribution(psi, basis), measurement_distribution(phi, basis)
        ).omega
        assert omega <= lam + 1e-9


def test_qfi_equals_classical_fisher_of_optimal_binomial():
    rng = np.random.default_rng(61)
    j = SpinJ(6)
    theta = 1e-4
    for _ in range(10):
        psi = random_state(j, rng)
        g = random_hermitian(j, rng, norm=3.0)
        # survival model P(theta) and its analytic derivative via the spectrum
        evals, evecs = np.linalg.eigh(g.matrix)
        w = np.abs(evecs.conj().T @ psi.amplitudes) ** 2
        s = np.sum(w * np.exp(-1j * theta * evals))
        ds = np.sum(w * (-1j * evals) * np.exp(-1j * theta * evals))
        p = abs(s) ** 2
        dp = 2.0 * np.real(np.conj(s) * ds)
        f_classical = classical_fisher(Distribution(np.array([p, 1.0 - p])), [dp, -dp])
        assert f_classical == pytest.approx(qfi(psi, g), rel=1e-6)


def test_two_outcome_basis_respects_the_dense_limit():
    # the limit is checked before the (2J+1)^2 allocations, so this is fast
    with pytest.raises(ValueError, match="2J <= 4096"):
        ProjectorBasis.two_outcome(noon_state(SpinJ(10**6)))


def _full_scan_peak(model: _SurvivalModel) -> float:
    """The first fall of |dP/dtheta| over the whole 4095-angle grid at once."""
    spread = float(model.evals.max() - model.evals.min())
    thetas = np.linspace(0.0, 2.0 * math.pi / spread, 4096)[1:]
    slope = np.abs(model.evaluate(thetas)[1])
    falls = np.flatnonzero(slope[1:] < slope[:-1])
    return float(thetas[falls[0]] if falls.size else thetas[-1])


def test_first_slope_peak_matches_the_full_scan():
    rng = np.random.default_rng(4095)
    for n in range(300):
        j = SpinJ(int(rng.integers(1, 13)))
        axis = RotationAxis.from_vector(rng.normal(size=3))
        if n % 3 == 0:
            psi, axis = noon_state(j), RotationAxis.z() if n % 2 else axis
        elif n % 3 == 1:
            # (|J, m> + |J, -m>)/sqrt2 for a random 2m of the right parity
            twice_m = int(rng.choice(np.arange(j.twice_j, 0, -2)))
            amps = np.zeros(j.dim, dtype=complex)
            amps[[j.index_of(twice_m), j.index_of(-twice_m)]] = 1.0 / math.sqrt(2.0)
            psi = SpinState(j, amps)
        else:
            psi = random_state(j, rng)
        model = _SurvivalModel(psi, axis_generator(j, axis))
        assert model.first_slope_peak() == _full_scan_peak(model), n

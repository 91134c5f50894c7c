"""Classical statistical distance, quantum distinguishability, and Fisher
information (classical, quantum, and the finite-difference bridge)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .spin import (
    SpinJ,
    SpinOperator,
    SpinState,
    _axis_spectrum,
    _banded,
    _finite_array,
    _hermitian_defect,
    apply,
    expectation_and_variance,
)

PROJECTOR_TOL = 1e-10
_DERIV_SUM_TOL = 1e-10
_SCAN_POINTS = 4096
_SCAN_CHUNK = 512


@dataclass(frozen=True)
class Distribution:
    """Finite probability vector over measurement outcomes."""

    probs: np.ndarray

    def __post_init__(self):
        p = _finite_array(self.probs, float, "probabilities")
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probability vector must be non-empty and one-dimensional")
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError(f"probabilities out of [0, 1]: {p!r}")
        p = np.clip(p, 0.0, 1.0)
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ProjectorBasis:
    """Complete set of mutually orthogonal Hermitian projectors."""

    projectors: tuple[SpinOperator, ...]

    def __post_init__(self):
        object.__setattr__(self, "projectors", tuple(self.projectors))
        if not self.projectors:
            raise ValueError("projector set is empty")
        dim = self.j.dim
        total = _banded(dim, {})  # capped, before any d x d allocation
        for idx, p in enumerate(self.projectors):
            if p.j != self.j:
                raise ValueError("projectors act on different spin spaces")
            m = p.matrix
            if _hermitian_defect(m)[0] > PROJECTOR_TOL:
                raise ValueError(f"projector {idx} is not Hermitian")
            if float(np.max(np.abs(m @ m - m))) > PROJECTOR_TOL:
                raise ValueError(f"projector {idx} is not idempotent")
            total += m
        for a in range(len(self.projectors)):
            for b in range(a + 1, len(self.projectors)):
                prod = self.projectors[a].matrix @ self.projectors[b].matrix
                if float(np.max(np.abs(prod))) > PROJECTOR_TOL:
                    raise ValueError(f"projectors {a} and {b} are not orthogonal")
        if float(np.max(np.abs(total - np.eye(dim)))) > PROJECTOR_TOL:
            raise ValueError("incomplete projector set: projectors do not sum to identity")

    @property
    def j(self) -> SpinJ:
        return self.projectors[0].j

    @classmethod
    def from_states(cls, states: Sequence[SpinState]) -> "ProjectorBasis":
        """Rank-1 basis |s><s| from a full orthonormal family of states."""
        projs = []
        for s in states:
            v = s.amplitudes
            # capped, before any d x d allocation
            proj = np.outer(v, v.conj(), out=_banded(s.j.dim, {}))
            projs.append(SpinOperator(s.j, proj, label="proj"))
        return cls(projs)

    @classmethod
    def two_outcome(cls, psi: SpinState) -> "ProjectorBasis":
        """The pair {|psi><psi|, I - |psi><psi|}: the basis that best
        distinguishes psi from anything else."""
        identity = _banded(psi.j.dim, {0: 1.0})  # capped, before any d x d allocation
        v = psi.amplitudes
        p1 = np.outer(v, v.conj())
        p2 = identity - p1
        return cls([SpinOperator(psi.j, p1, "yes"), SpinOperator(psi.j, p2, "no")])


@dataclass(frozen=True)
class DistinguishabilityReport:
    """Angle between two pure states on the distinguishability sphere.

    ``cos_angle`` is the overlap magnitude (square root of the fidelity);
    ``sin_angle`` squared is the error-of-state measure.
    """

    angle: float
    sin_angle: float
    cos_angle: float


class StatisticalDistance(NamedTuple):
    omega: float
    bhattacharyya: float


def measurement_distribution(psi: SpinState, basis: ProjectorBasis) -> Distribution:
    """Outcome probabilities <psi|P_i|psi> of measuring psi in the basis.

    A residual of up to ~1e-10 from a marginally complete projector set is
    folded back by renormalizing, so the result is a valid Distribution.
    """
    if basis.j != psi.j:
        raise ValueError("projector basis does not match the state dimension")
    p = np.array(
        [float(np.real(np.vdot(psi.amplitudes, apply(proj, psi)))) for proj in basis.projectors]
    )
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"projector set incomplete on this state: probabilities sum to {total!r}")
    return Distribution(p / total)


def statistical_distance(p: Distribution, q: Distribution) -> StatisticalDistance:
    """Arc length on the probability-simplex sphere between two distributions.

    Returns (omega, bhattacharyya) with omega = arccos of the Bhattacharyya
    coefficient sum sqrt(P_m Q_m), clamped into [0, 1] before the arccos
    since round-off can push it past 1 by ~1e-16.
    """
    if len(p) != len(q):
        raise ValueError(f"distribution length mismatch: {len(p)} vs {len(q)}")
    bc = float(np.sum(np.sqrt(p.probs * q.probs)))
    bc = min(max(bc, 0.0), 1.0)
    return StatisticalDistance(omega=math.acos(bc), bhattacharyya=bc)


def _overlap_angle(psi_amps: np.ndarray, phi_amps: np.ndarray) -> tuple[float, float, float]:
    """(angle, sin, cos) of arccos|<psi|phi>|, evaluated without the
    catastrophic cancellation of arccos near overlap 1: the sine comes from
    the norm of the component of phi orthogonal to psi."""
    ov = complex(np.vdot(psi_amps, phi_amps))
    c = abs(ov)
    s = float(np.linalg.norm(phi_amps - ov * psi_amps))
    h = math.hypot(s, c)
    return math.atan2(s, c), s / h, min(c / h, 1.0)


def distinguishability(psi: SpinState, phi: SpinState) -> DistinguishabilityReport:
    """Maximal statistical distance between two pure states over all
    projective measurements: arccos of the overlap magnitude."""
    if psi.j != phi.j:
        raise ValueError(f"dimension mismatch: 2J={psi.j.twice_j} vs 2J={phi.j.twice_j}")
    angle, s, c = _overlap_angle(psi.amplitudes, phi.amplitudes)
    return DistinguishabilityReport(angle=angle, sin_angle=s, cos_angle=c)


def classical_fisher(probs: Distribution, dprobs: Sequence[float]) -> float:
    """Fisher information sum (dP_i)^2 / P_i of a parametric distribution.

    ``dprobs`` are the outcome-probability derivatives; they must conserve
    probability (sum to zero) and vanish wherever P_i = 0, otherwise the
    information is singular and an error is raised instead of infinity.
    """
    dp = _finite_array(dprobs, float, "derivatives")
    if dp.shape != (len(probs),):
        raise ValueError(f"dprobs must have length {len(probs)}, got shape {dp.shape}")
    if abs(float(dp.sum())) > _DERIV_SUM_TOL:
        raise ValueError(f"derivative vector must sum to 0, got {float(dp.sum())!r}")
    p = probs.probs
    dead = p == 0.0
    if np.any(dead & (np.abs(dp) > 1e-12)):
        raise ValueError("singular support: P_i = 0 with dP_i != 0")
    live = ~dead
    return float(np.sum(dp[live] ** 2 / p[live]))


def qfi(psi: SpinState, g: SpinOperator) -> float:
    """Quantum Fisher information 4 (<G^2> - <G>^2) of a pure state."""
    _, var = expectation_and_variance(psi, g)
    return 4.0 * var


def qfi_finite_difference(psi: SpinState, g: SpinOperator, theta_step: float) -> float:
    """QFI from the rate of change of distinguishability under exp(-i theta G).

    One-sided quotient 4 (Lambda(step)/step)^2; Lambda is even in theta
    around 0 (and nonsmooth there in the signed sense), so a central
    difference would be wrong.  Serves as the independent oracle for `qfi`.
    In the eigenbasis of G the overlap is the survival amplitude ov and the
    orthogonal part is sqrt(sum_k w_k |e^{-i step lambda_k} - ov|^2), which
    avoids the cancellation of arccos near overlap 1.
    """
    if not 0.0 < theta_step <= 1e-2:
        raise ValueError(f"theta_step must lie in (0, 1e-2], got {theta_step!r}")
    model = _SurvivalModel(psi, g)
    phases, ov = model.amplitude(theta_step)
    orth = math.sqrt(float(np.sum(model.weights * np.abs(phases[:, 0] - ov[0]) ** 2)))
    lam = math.atan2(orth, abs(ov[0]))
    return 4.0 * (lam / theta_step) ** 2


def _column_sums(x: np.ndarray) -> np.ndarray:
    """The sum down each column of x, added row by row in every case, so the
    sum at one angle does not depend on which other angles share the matrix.
    np.add.reduce over axis 0 adds row by row when x has two or more columns,
    but sums a lone contiguous column pairwise; accumulate adds in order."""
    if x.shape[1] == 1:
        return np.add.accumulate(x, axis=0)[-1]
    return np.add.reduce(x, axis=0)


class _SurvivalModel:
    """Survival amplitude <psi|exp(-i theta G)|psi> = sum_k w_k e^{-i theta lambda_k},
    from the spectral decomposition G = sum_k lambda_k |v_k><v_k| (eigenvalues
    ascending) and the weights w_k = |<v_k|psi>|^2 (zero weights dropped).
    An axis generator (SpinOperator.axis) takes its exact spectrum and weights
    from the Wigner basis; any other G is diagonalized."""

    def __init__(self, psi: SpinState, g: SpinOperator):
        if g.j != psi.j:
            raise ValueError("generator does not match the state dimension")
        if not g.is_hermitian():
            raise ValueError(f"generator {g.label!r} is not Hermitian")
        axis = g.axis
        if axis is not None:
            evals, weights = _axis_spectrum(psi, axis)
        else:
            evals, evecs = np.linalg.eigh(g.matrix)
            weights = np.abs(evecs.conj().T @ psi.amplitudes) ** 2
        keep = weights > 0.0
        self.evals = evals[keep]
        self.weights = weights[keep]

    @cached_property
    def _slope_weights(self) -> np.ndarray:
        """The weights -i lambda_k w_k of dA/dtheta = sum_k -i lambda_k w_k
        e^{-i theta lambda_k}, one row per eigenvalue, made on the first
        evaluation instead of on every one."""
        return (-1j * self.evals * self.weights)[:, None]

    def amplitude(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """The phase matrix e^{-i theta_n lambda_k}, one column per angle, and
        the survival amplitude at each angle."""
        phases = np.exp(-1j * np.multiply.outer(self.evals, np.ravel(theta)))
        return phases, _column_sums(self.weights[:, None] * phases)

    def evaluate(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """P(theta) = |amplitude|^2, clipped into [0, 1], and dP/dtheta at
        every angle of the array theta."""
        phases, amp = self.amplitude(theta)
        damp = _column_sums(self._slope_weights * phases)
        return np.clip(np.abs(amp) ** 2, 0.0, 1.0), 2.0 * np.real(np.conj(amp) * damp)

    def first_slope_peak(self) -> float:
        """First maximum of |dP/dtheta| away from the stationary point at 0.

        P is even around 0 with P'(0) = 0, so P is strictly monotone up to
        this angle and the inversion estimator is well posed on (0, peak].
        """
        spread = float(self.evals.max() - self.evals.min())
        if spread == 0.0:
            raise ValueError("degenerate model: the state is an eigenstate of the generator")
        thetas = np.linspace(0.0, 2.0 * math.pi / spread, _SCAN_POINTS)[1:]
        # chunks overlap by one angle, so every neighbouring pair is compared
        # once and the scan stops in the chunk that holds the first fall
        for start in range(0, thetas.size - 1, _SCAN_CHUNK - 1):
            chunk = thetas[start : start + _SCAN_CHUNK]
            slope = np.abs(self.evaluate(chunk)[1])
            falls = np.flatnonzero(slope[1:] < slope[:-1])
            if falls.size:
                return float(chunk[falls[0]])
        return float(thetas[-1])

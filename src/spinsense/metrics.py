"""Classical statistical distance, quantum distinguishability, and Fisher
information (classical, quantum, and the finite-difference bridge)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .spin import SpinOperator, SpinState, apply, expectation_and_variance, generator_unitary

PROJECTOR_TOL = 1e-10
_DERIV_SUM_TOL = 1e-10


@dataclass
class Distribution:
    """Finite probability vector over measurement outcomes."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probability vector must be non-empty and one-dimensional")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"probabilities must be finite: {p!r}")
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError(f"probabilities out of [0, 1]: {p!r}")
        p = np.clip(p, 0.0, 1.0)
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        self.probs = p

    def __len__(self) -> int:
        return self.probs.size


@dataclass
class ProjectorBasis:
    """Complete set of mutually orthogonal Hermitian projectors."""

    projectors: list[SpinOperator]

    def __post_init__(self):
        if not self.projectors:
            raise ValueError("projector set is empty")
        j = self.projectors[0].j
        dim = j.dim
        total = np.zeros((dim, dim), dtype=complex)
        for idx, p in enumerate(self.projectors):
            if p.j != j:
                raise ValueError("projectors act on different spin spaces")
            m = p.matrix
            if float(np.max(np.abs(m - m.conj().T))) > PROJECTOR_TOL:
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
        self.j = j

    @classmethod
    def from_states(cls, states: Sequence[SpinState]) -> "ProjectorBasis":
        """Rank-1 basis |s><s| from a full orthonormal family of states."""
        projs = []
        for s in states:
            v = s.amplitudes
            projs.append(SpinOperator(s.j, np.outer(v, v.conj()), label="proj"))
        return cls(projs)

    @classmethod
    def two_outcome(cls, psi: SpinState) -> "ProjectorBasis":
        """The pair {|psi><psi|, I - |psi><psi|}: the basis that best
        distinguishes psi from anything else."""
        v = psi.amplitudes
        p1 = np.outer(v, v.conj())
        p2 = np.eye(psi.j.dim, dtype=complex) - p1
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
    dp = np.asarray(dprobs, dtype=float)
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
    """
    if not 0.0 < theta_step <= 1e-2:
        raise ValueError(f"theta_step must lie in (0, 1e-2], got {theta_step!r}")
    u = generator_unitary(g, theta_step)
    lam, _, _ = _overlap_angle(psi.amplitudes, apply(u, psi))
    return 4.0 * (lam / theta_step) ** 2

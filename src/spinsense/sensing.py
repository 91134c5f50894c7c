"""Rotation-sensing Fisher matrix, anti-coherence certification, and
construction of axis-independent sensor states from the symmetric ansatz."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spin import RotationAxis, SpinJ, SpinState, check_tolerance, spin_moments
from .spin import _finite_array, _integer, _json_fields

MOMENT_TARGET_TOL = 1e-12


class FeasibilityError(ValueError):
    """The requested support cannot reach the second-moment target."""


class SpacingError(ValueError):
    """The support violates the minimum shell-gap rules."""


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetrized 3x3 covariance matrix of the angular-momentum components."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _finite_array(self.matrix, float, "Fisher matrix entries")
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def alignment_angle(self, u: RotationAxis) -> float:
        """Angle between u and (matrix @ u); zero for an isotropic sensor."""
        v = self.matrix @ u.u
        n = np.linalg.norm(v)
        if n == 0:
            return 0.0
        return float(math.acos(min(max(float(np.dot(u.u, v) / n), -1.0), 1.0)))


@dataclass(frozen=True)
class AnticoherenceReport:
    """First- and second-order anti-coherence certification at a tolerance.

    order1 and order2 are computed independently: order1 bounds the first
    moments, order2 bounds the deviation of the covariance matrix from
    (J(J+1)/3) times the identity.
    """

    order1: bool
    order2: bool
    max_first_moment: float
    max_matrix_deviation: float


@dataclass(frozen=True)
class SupportSpec:
    """Symmetric-shell support: each m > 0 stands for the pair |J,m>+|J,-m>."""

    j: SpinJ
    support: tuple[int, ...]
    include_zero: bool = False

    def __post_init__(self):
        if not self.j.is_integer:
            raise ValueError("symmetric shells need integer m-levels, so J must be an integer")
        if not isinstance(self.include_zero, (bool, np.bool_)):
            raise TypeError(f"include_zero must be a bool, got {self.include_zero!r}")
        shells = [_integer(s, "shell value", TypeError) for s in self.support]
        if any(s < 0 for s in shells):
            raise ValueError("shell values must be non-negative")
        if len(set(shells)) != len(shells):
            raise ValueError("duplicate shell values")
        if any(2 * s > self.j.twice_j for s in shells):
            raise ValueError(f"shell values must not exceed J = {self.j.j:g}")
        include_zero = bool(self.include_zero) or (0 in shells)
        positive = tuple(sorted(s for s in shells if s > 0))
        object.__setattr__(self, "support", positive)
        object.__setattr__(self, "include_zero", include_zero)
        if not positive and not include_zero:
            raise ValueError("support is empty")

    def shells(self) -> tuple[int, ...]:
        """All shells in ascending order, with 0 first when included."""
        return ((0,) if self.include_zero else ()) + self.support

    def to_json_dict(self) -> dict:
        return {
            "twice_j": self.j.twice_j,
            "support": list(self.support),
            "include_zero": self.include_zero,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SupportSpec":
        twice_j, support = _json_fields(doc, "support", "twice_j", "support[]")
        return cls(SpinJ(twice_j), tuple(support), doc.get("include_zero", False))


def fisher_matrix(psi: SpinState) -> FisherMatrix:
    """Symmetrized covariance matrix of (Jx, Jy, Jz) in the state psi."""
    return FisherMatrix(spin_moments(psi)[1])


def rotation_qfi(psi: SpinState, u: RotationAxis) -> float:
    """QFI 4 u^T M u for estimating a rotation angle about the axis u."""
    m = spin_moments(psi)[1]
    return 4.0 * float(u.u @ m @ u.u)


def anticoherence_report(psi: SpinState, tol: float) -> AnticoherenceReport:
    """Certify <J_i> = 0 (order 1) and M = (J(J+1)/3) I (order 2) at tol."""
    check_tolerance(tol)
    means, cov = spin_moments(psi)
    max_first = max(map(abs, means.tolist()))
    jphys = psi.j.j
    target = jphys * (jphys + 1.0) / 3.0
    # M - target I: the target comes off the diagonal entries 0, 4 and 8 only
    dev = cov.ravel().tolist()
    for i in (0, 4, 8):
        dev[i] -= target
    max_dev = max(map(abs, dev))
    return AnticoherenceReport(
        order1=bool(max_first <= tol),
        order2=bool(max_dev <= tol),
        max_first_moment=max_first,
        max_matrix_deviation=max_dev,
    )


def noon_state(j: SpinJ) -> SpinState:
    """The extremal superposition (|J,J> + |J,-J>)/sqrt2."""
    if j.twice_j < 1:
        raise ValueError("need J >= 1/2 for a two-branch superposition")
    amps = np.zeros(j.dim, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = 1.0 / math.sqrt(2.0)
    return SpinState(j, amps)


def min_shell_gap(spec: SupportSpec) -> int | float:
    """Minimum distance between distinct occupied signed m-levels.

    The shell m occupies both +m and -m, so a lone shell m has gap 2m and a
    shell pair (0, m) gap m; the m=0 level alone has no pair, and gap math.inf.
    """
    signed = sorted({s for m in spec.support for s in (m, -m)} | ({0} if spec.include_zero else set()))
    return min((b - a for a, b in zip(signed, signed[1:])), default=math.inf)


def _solve_shell_masses(values: Sequence[float], target: float) -> np.ndarray:
    """Probability masses p >= 0 with sum p = 1 and sum p*values = target.

    With more than two shells the system is underdetermined; the mass
    vector of maximum Shannon entropy is used, which on the simplex is the
    unique p_k proportional to exp(-lam * values_k) matching the target.

    [-1, 1] brackets lam whenever construct_anticoherent calls: its spacing rule
    puts the k-th value m^2 from either end at least 4k from it; a target J(J+1)/3
    off the vertices is at least 1/3 from both ends, as J(J+1) - 3 m^2 is an integer;
    so at lam = -1 (+1) the moment is within sum 4k e^(-4k) < 0.08 of the top (bottom).
    """
    vals = np.asarray(values, dtype=float)
    lo, hi = float(vals.min()), float(vals.max())
    # degenerate targets sit at a simplex vertex, a lone shell among them
    if abs(target - lo) <= MOMENT_TARGET_TOL * max(1.0, abs(target)):
        return (vals == lo).astype(float) / np.count_nonzero(vals == lo)
    if abs(target - hi) <= MOMENT_TARGET_TOL * max(1.0, abs(target)):
        return (vals == hi).astype(float) / np.count_nonzero(vals == hi)
    if vals.size == 2:
        p1 = (target - vals[0]) / (vals[1] - vals[0])
        return np.array([1.0 - p1, p1])

    def masses(lam: float) -> np.ndarray:
        logits = -lam * vals
        logits -= logits.max()
        w = np.exp(logits)
        return w / w.sum()

    def moment_gap(lam: float) -> float:
        return float(masses(lam) @ vals) - target

    lo_l, hi_l = -1.0, 1.0
    # bisection down to the width brentq(xtol=1e-13, rtol=4 eps) would stop at
    eps = float(np.finfo(float).eps)
    while hi_l - lo_l > 1e-13 + 4.0 * eps * max(abs(lo_l), abs(hi_l)):
        mid = 0.5 * (lo_l + hi_l)
        if moment_gap(mid) > 0.0:
            lo_l = mid
        else:
            hi_l = mid
    lam = 0.5 * (lo_l + hi_l)
    # two Newton polish steps: d(moment)/d(lam) = -Var_p(values)
    for _ in range(2):
        p = masses(lam)
        var = float(p @ vals**2) - float(p @ vals) ** 2
        if var <= 0:
            break
        lam -= (float(p @ vals) - target) / (-var)
    return masses(lam)


def _alternating_phases(shells: Sequence[int]) -> list[complex]:
    """Alternate real/imaginary along every chain of shells two apart."""
    phases: list[complex] = []
    for idx, s in enumerate(shells):
        if idx > 0 and s - shells[idx - 1] == 2:
            phases.append(phases[-1] * 1j)
        else:
            phases.append(1.0 + 0.0j)
    return phases


def construct_anticoherent(spec: SupportSpec) -> SpinState:
    """Symmetric state on the given shells with <Jz^2> = J(J+1)/3 and an
    isotropic covariance matrix.

    Shells separated by at least 3 get real amplitudes.  A minimum gap of
    exactly 2 is allowed through the alternating real/imaginary phase rule
    (which also forbids the m=1 shell); smaller gaps are rejected.  Left
    over freedom in the shell masses is fixed by maximum entropy, so the
    output is deterministic.
    """
    j = spec.j
    jphys = j.j
    target = jphys * (jphys + 1.0) / 3.0
    shells = spec.shells()

    # feasibility is decided first: an unreachable target is reported as such
    # even when the shell spacing is also bad
    m_max = max(shells)
    if m_max * m_max < target:
        raise FeasibilityError(
            f"infeasible support: max shell squared {m_max * m_max} < J(J+1)/3 = {target:g}"
        )
    m_min_sq = 0.0 if spec.include_zero else float(min(spec.support)) ** 2
    if m_min_sq > target:
        raise FeasibilityError(
            f"infeasible support: min shell squared {m_min_sq:g} > J(J+1)/3 = {target:g}"
        )

    gap = min_shell_gap(spec)
    if gap <= 1:
        raise SpacingError(f"minimum signed shell gap is {gap}; need at least 2")
    if gap == 2 and 1 in shells:
        raise SpacingError(
            "gap-2 supports need the m=1 shell empty for the alternating phase rule"
        )

    values = [float(s * s) for s in shells]
    masses = _solve_shell_masses(values, target)

    phases = _alternating_phases(shells) if gap == 2 else [1.0 + 0.0j] * len(shells)
    amps = np.zeros(j.dim, dtype=complex)
    for s, mass, phase in zip(shells, masses, phases):
        if mass <= 0.0:
            continue
        if s == 0:
            amps[j.index_of(0)] = phase * math.sqrt(mass)
        else:
            a = phase * math.sqrt(mass / 2.0)
            amps[j.index_of(2 * s)] = a
            amps[j.index_of(-2 * s)] = a
    amps = amps / np.linalg.norm(amps)
    state = SpinState(j, amps)

    achieved = float(masses @ np.asarray(values))
    if abs(achieved - target) > 1e-10 * max(1.0, target):
        raise FeasibilityError(
            f"shell-mass solve missed the target moment: {achieved!r} vs {target!r}"
        )
    return state

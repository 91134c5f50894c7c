"""Error-detection and Knill-Laflamme checks, error-of-state functionals,
worst-codeword search, and the symmetric absorption-emission codewords."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import (
    SpinJ,
    SpinOperator,
    SpinState,
    _frozen,
    apply,
    check_tolerance,
    expectation_and_variance,
)

ORTHONORMAL_TOL = 1e-10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden section stops at this width relative to the bracket of the dual
_DUAL_RTOL = 1e-14
# eigenvalues of A2 - 2 lam* A1 this close to the top one (relative to the
# spectral radius) count as one crossing cluster
_CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class CodeSpace:
    """Orthonormal codewords sharing one spin-J space."""

    j: SpinJ
    codewords: tuple[SpinState, ...]

    def __post_init__(self):
        object.__setattr__(self, "codewords", tuple(self.codewords))
        if not self.codewords:
            raise ValueError("code space needs at least one codeword")
        for w in self.codewords:
            if w.j != self.j:
                raise ValueError("codeword dimension does not match the code space")
        basis = self.basis_matrix()
        gram = basis.conj().T @ basis
        if float(np.max(np.abs(gram - np.eye(len(self.codewords))))) > ORTHONORMAL_TOL:
            raise ValueError("codewords are not pairwise orthonormal")

    def basis_matrix(self) -> np.ndarray:
        """dim x K matrix whose columns are the codeword amplitudes."""
        return np.column_stack([w.amplitudes for w in self.codewords])

    def to_json_dict(self) -> dict:
        return {
            "twice_j": self.j.twice_j,
            "codewords": [w.to_json_dict() for w in self.codewords],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CodeSpace":
        if not isinstance(doc, dict):
            raise ValueError("code space document must be a JSON object")
        try:
            j = SpinJ(doc["twice_j"])
            words = [SpinState.from_json_dict(w) for w in doc["codewords"]]
        except KeyError as exc:
            raise ValueError(f"code space document missing field {exc}") from None
        return cls(j, words)


@dataclass(frozen=True)
class ErrorSet:
    """Error operators; need not be unitary or Hermitian."""

    ops: tuple[SpinOperator, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not self.ops:
            raise ValueError("error set is empty")
        if any(op.j != self.j for op in self.ops):
            raise ValueError("error operators act on different spin spaces")

    @property
    def j(self) -> SpinJ:
        return self.ops[0].j


@dataclass(frozen=True)
class RecoverySet:
    """Recovery operators with sum R^dag R <= identity (completeness not required)."""

    ops: tuple[SpinOperator, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not self.ops:
            raise ValueError("recovery set is empty")
        j = self.j
        total = np.zeros((j.dim, j.dim), dtype=complex)
        for op in self.ops:
            if op.j != j:
                raise ValueError("recovery operators act on different spin spaces")
            total += op.matrix.conj().T @ op.matrix
        slack = np.linalg.eigvalsh(np.eye(j.dim) - total)
        if float(slack.min()) < -1e-9:
            raise ValueError("recovery set exceeds identity: sum R^dag R > I")

    @property
    def j(self) -> SpinJ:
        return self.ops[0].j


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of an error-detection or Knill-Laflamme check.

    ``violation`` is the worst deviation from the delta_ij structure; it
    mixes two failure modes that are also reported separately:
    ``max_off_diagonal`` (codeword shuffling) and ``max_diagonal_spread``
    (codeword-dependent diagonal, measured against the per-error mean).
    """

    c_matrix: np.ndarray
    violation: float
    passed: bool
    max_off_diagonal: float
    max_diagonal_spread: float


def _delta_report(blocks: np.ndarray, tol: float) -> ConditionReport:
    """Fit <i|X|j> = delta_ij * C to a stack of k x k blocks: one C per block
    (its diagonal mean), residual maxima over the whole stack."""
    diag = np.diagonal(blocks, axis1=-2, axis2=-1)
    c = diag.mean(axis=-1)
    max_off = float(np.max(np.abs(blocks * (1.0 - np.eye(blocks.shape[-1])))))
    max_spread = float(np.max(np.abs(diag - c[..., None])))
    violation = max(max_off, max_spread)
    return ConditionReport(_frozen(c), violation, violation <= tol, max_off, max_spread)


def detection_check(code: CodeSpace, errors: ErrorSet, tol: float) -> ConditionReport:
    """Check the detection condition <i|E_a|j> = delta_ij C_a for every error."""
    if errors.j != code.j:
        raise ValueError("error set does not match the code space dimension")
    check_tolerance(tol)
    basis = code.basis_matrix()
    bra = basis.conj().T
    # blocks[a] = B^dag E_a B, shape (n, k, k)
    return _delta_report(np.stack([bra @ err.matrix for err in errors.ops]) @ basis, tol)


def kl_check(code: CodeSpace, errors: ErrorSet, tol: float) -> ConditionReport:
    """Check the Knill-Laflamme condition <i|E_a^dag E_b|j> = delta_ij C_ab."""
    if errors.j != code.j:
        raise ValueError("error set does not match the code space dimension")
    check_tolerance(tol)
    # |(E_a B)^dag (E_b B)| <= d^2 max|E_a| max|E_b| entrywise (B has unit columns), and the
    # sums formed from it stay within 2d times that: none overflows if max|E|^2 <= max / (2d^4)
    limit = math.sqrt(np.finfo(float).max / 2.0) / code.j.dim**2
    for err in errors.ops:
        if float(np.max(np.abs(err.matrix))) > limit:
            raise ValueError(f"operator {err.label!r} is too large: Knill-Laflamme products would overflow")
    basis = code.basis_matrix()
    images = np.stack([err.matrix @ basis for err in errors.ops])
    # blocks[a, b] = (E_a B)^dag (E_b B), shape (n, n, k, k)
    return _delta_report(images.conj().transpose(0, 2, 1)[:, None] @ images, tol)


def error_of_state(psi: SpinState, u: SpinOperator) -> float:
    """Leakage probability 1 - |<psi|U|psi>|^2 of a unitary error."""
    if not u.is_unitary():
        raise ValueError(f"operator {u.label!r} is not unitary")
    ov = abs(complex(np.vdot(psi.amplitudes, apply(u, psi))))
    return min(max(1.0 - ov * ov, 0.0), 1.0)


def error_small_theta(psi: SpinState, g: SpinOperator, theta: float) -> float:
    """Small-angle error theta^2 (<G^2> - <G>^2) of exp(-i theta G)."""
    if not abs(theta) <= 0.1:
        raise ValueError(f"|theta| must be <= 0.1 for the small-angle form, got {theta!r}")
    _, var = expectation_and_variance(psi, g)
    return theta * theta * var


def error_with_recovery(psi: SpinState, errors: ErrorSet, recoveries: RecoverySet) -> float:
    """Residual error sum over all (recovery, error) pairs after recovery.

    Evaluates sum_{a,r} <E^dag R^dag R E> - |<R E>|^2 for the given state,
    unweighted, exactly as the condition is stated (no channel weights).
    """
    if errors.j != psi.j or recoveries.j != psi.j:
        raise ValueError("operator dimensions do not match the state")
    total = 0.0
    for err in errors.ops:
        img = err.matrix @ psi.amplitudes
        for rec in recoveries.ops:
            w = rec.matrix @ img
            total += float(np.real(np.vdot(w, w))) - abs(complex(np.vdot(psi.amplitudes, w))) ** 2
    return max(total, 0.0)


def max_error_over_code(
    code: CodeSpace, g: SpinOperator, theta: float
) -> tuple[SpinState, float]:
    """Worst codeword-superposition error theta^2 max Var(G) over the code.

    Exact by convex duality.  With A1 = B'GB and A2 = B'G^2B the joint
    numerical range of (A1, A2) is convex, so

        max over unit c of Var_c(G) = min over lam of lam_max(A2 - 2 lam A1) + lam^2

    with no gap.  The convex right side is minimized by golden section over
    [lam_min(A1), lam_max(A1)], which holds the minimizer lam* = <G> at the
    worst state.  That state lies in the top eigenspace of A2 - 2 lam* A1,
    taken as the eigenvalues within 1e-9 of the top one relative to the
    spectral radius.  Inside it the lowest and highest eigenvectors of A1
    are mixed so that <A1> = lam*: at an eigenvalue crossing (the NOON pair
    under Jz) a bare top eigenvector can have zero variance.  The returned
    error is theta^2 times the variance at the returned state.  Deterministic.
    """
    if not abs(theta) <= 0.1:
        raise ValueError(f"|theta| must be <= 0.1 for the small-angle form, got {theta!r}")
    if not g.is_hermitian():
        raise ValueError(f"operator {g.label!r} is not Hermitian")
    if g.j != code.j:
        raise ValueError("generator does not match the code space dimension")
    basis = code.basis_matrix()
    k = len(code.codewords)
    gb = g.matrix @ basis
    a1 = basis.conj().T @ gb
    # Var is unchanged by G -> G - s; centring A1 puts every scale below on
    # the spread of G over the code, not on its mean
    shift = float(np.real(np.trace(a1))) / k
    gb = gb - shift * basis
    a1 = a1 - shift * np.eye(k)
    a2 = gb.conj().T @ gb

    def dual(lam: float) -> float:
        return float(np.linalg.eigvalsh(a2 - 2.0 * lam * a1)[-1]) + lam * lam

    spectrum = np.linalg.eigvalsh(a1)
    lo, hi = float(spectrum[0]), float(spectrum[-1])
    width_tol = _DUAL_RTOL * max(abs(lo), abs(hi))
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = dual(x1), dual(x2)
    while hi - lo > width_tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = dual(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = dual(x2)
    lam = x1 if f1 <= f2 else x2

    vals, vecs = np.linalg.eigh(a2 - 2.0 * lam * a1)
    radius = max(abs(float(vals[0])), abs(float(vals[-1])))
    top = vecs[:, vals >= vals[-1] - _CLUSTER_RTOL * radius]
    mu, rot = np.linalg.eigh(top.conj().T @ a1 @ top)
    c_lo, c_hi = top @ rot[:, 0], top @ rot[:, -1]
    spread = float(mu[-1] - mu[0])
    weight = min(max((lam - float(mu[0])) / spread, 0.0), 1.0) if spread > 0 else 0.0
    c = math.sqrt(1.0 - weight) * c_lo + math.sqrt(weight) * c_hi

    vec = basis @ c
    worst = SpinState(code.j, vec / np.linalg.norm(vec))
    return worst, error_small_theta(worst, g, theta)


def ae_codewords(j: SpinJ, m1: int, m2: int) -> CodeSpace:
    """Symmetric two-codeword space on m-levels separated by at least 3.

    |w0> = (|J,m1> + |J,-m1>)/sqrt2 and |w1> mixes |J,0> with |J,+-m2>, so
    every pair of occupied levels across the two codewords differs by at
    least 3 units of m and ladder-operator products up to distance 2 can
    neither connect nor distinguish them.
    """
    if not j.is_integer:
        raise ValueError(f"codewords use the m=0 level, so J must be an integer: 2J={j.twice_j}")
    if j.twice_j < 12:
        raise ValueError(f"validity rule J >= 6 violated: J = {j.j:g}")
    if m1 < 3:
        raise ValueError(f"validity rule m1 >= 3 violated: m1 = {m1}")
    if m2 < m1 + 3:
        raise ValueError(f"validity rule m2 >= m1 + 3 violated: m1 = {m1}, m2 = {m2}")
    if 2 * m2 > j.twice_j:
        raise ValueError(f"validity rule m2 <= J violated: m2 = {m2}, J = {j.j:g}")

    w0 = np.zeros(j.dim, dtype=complex)
    w0[j.index_of(2 * m1)] = 1.0 / math.sqrt(2.0)
    w0[j.index_of(-2 * m1)] = 1.0 / math.sqrt(2.0)

    ratio = (m1 * m1) / (m2 * m2)
    w1 = np.zeros(j.dim, dtype=complex)
    w1[j.index_of(0)] = math.sqrt(1.0 - ratio)
    w1[j.index_of(2 * m2)] = math.sqrt(ratio / 2.0)
    w1[j.index_of(-2 * m2)] = math.sqrt(ratio / 2.0)

    return CodeSpace(j, [SpinState(j, w0), SpinState(j, w1)])


def dfs_check(code: CodeSpace, g: SpinOperator, tol: float = 1e-10) -> bool:
    """True when all codewords are degenerate eigenstates of the generator,
    i.e. the code space is decoherence-free for exp(-i theta G)."""
    check_tolerance(tol)
    if not g.is_hermitian():
        raise ValueError(f"operator {g.label!r} is not Hermitian")
    eigvals = []
    for w in code.codewords:
        mean, var = expectation_and_variance(w, g)
        if var > tol:
            return False
        eigvals.append(mean)
    return (max(eigvals) - min(eigvals)) <= tol


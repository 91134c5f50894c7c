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
    _apply_block,
    _frozen,
    _integer,
    _json_fields,
    apply,
    check_tolerance,
    expectation_and_variance,
)

ORTHONORMAL_TOL = 1e-10
# the largest |theta| at which the small-angle error theta^2 Var(G) is reported
SMALL_THETA_MAX = 0.1
# the worst-codeword search stops at a duality gap of this much relative to
# the dual value, or at a bracket this narrow relative to its largest end
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
        twice_j, words = _json_fields(doc, "code space", "twice_j", "codewords[]")
        return cls(SpinJ(twice_j), [SpinState.from_json_dict(w) for w in words])


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
        if any(op.j != j for op in self.ops):
            raise ValueError("recovery operators act on different spin spaces")
        # the first read of .matrix checks the dense limit, before any d x d sum is made
        total = sum(op.matrix.conj().T @ op.matrix for op in self.ops)
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
    return ConditionReport(_frozen(c), violation, bool(violation <= tol), max_off, max_spread)


def _images(code: CodeSpace, errors: ErrorSet, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """B, the d x k codeword basis, and its images E_a B, shape (n, d, k)."""
    if errors.j != code.j:
        raise ValueError("error set does not match the code space dimension")
    check_tolerance(tol)
    basis = code.basis_matrix()
    return basis, np.stack([_apply_block(err, basis) for err in errors.ops])


def detection_check(code: CodeSpace, errors: ErrorSet, tol: float) -> ConditionReport:
    """Check the detection condition <i|E_a|j> = delta_ij C_a for every error."""
    basis, images = _images(code, errors, tol)
    # blocks[a] = B^dag (E_a B), shape (n, k, k)
    return _delta_report(basis.conj().T @ images, tol)


def kl_check(code: CodeSpace, errors: ErrorSet, tol: float) -> ConditionReport:
    """Check the Knill-Laflamme condition <i|E_a^dag E_b|j> = delta_ij C_ab."""
    # an image that overflows is caught by the bound below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        _, images = _images(code, errors, tol)
    # With m = max |E_a B| over all a, each partial sum of the real or imaginary part
    # of an entry of (E_a B)^dag (E_b B), a sum over d rows, is at most d m^2; a sum of
    # k <= d such entries in _delta_report is at most d^2 m^2, and |z| <= sqrt(2) max part.
    # So none overflows if m <= sqrt(max / 2) / d.  NaN and inf fail the test.
    limit = math.sqrt(np.finfo(float).max / 2.0) / code.j.dim
    for err, image in zip(errors.ops, images):
        if not float(np.max(np.abs(image))) <= limit:
            raise ValueError(f"operator {err.label!r} is too large: Knill-Laflamme products would overflow")
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
    if not abs(theta) <= SMALL_THETA_MAX:
        raise ValueError(f"|theta| must be <= {SMALL_THETA_MAX} for the small-angle form, got {theta!r}")
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
        img = _apply_block(err, psi.amplitudes)
        for rec in recoveries.ops:
            w = _apply_block(rec, img)
            total += float(np.real(np.vdot(w, w))) - abs(complex(np.vdot(psi.amplitudes, w))) ** 2
    return max(total, 0.0)


def max_error_over_code(
    code: CodeSpace, g: SpinOperator, theta: float
) -> tuple[SpinState, float]:
    """Worst codeword-superposition error theta^2 max Var(G) over the code.

    Exact by convex duality.  With A1 = B'GB and A2 = B'G^2B the joint
    numerical range of (A1, A2) is convex, so

        max over unit c of Var_c(G) = min over lam of f(lam),
        f(lam) = lam_max(A2 - 2 lam A1) + lam^2,

    with no gap.  Let v be a top eigenvector of M = A2 - 2 lam A1
    (eigenvalues e_i, top e_top) and a = <v|A1|v>.  Then f'(lam) = 2 g with
    g = lam - a, and Var_v = f(lam) - g^2: one eigendecomposition gives a
    state, the slope and the duality gap g^2, which certifies the state by
    weak duality (Boyd and Vandenberghe, Convex Optimization, section 5.2).
    This is Overton's minimization of lam_max (SIAM J. Matrix Anal. Appl.
    9, 1988) in one variable.  f - lam^2 is convex, so g rises with slope
    g' = 1 + 4 sum over i not top of |<v_i|A1|v>|^2 / (e_top - e_i) >= 1,
    and the minimizer lam* = <G> at the worst state lies between lam and
    a.  From lam = 0, the mean of G over the code, the loop takes Newton
    steps on g inside a bracket that starts as [lam_min(A1), lam_max(A1)]
    and is cut to [lam, a] at every step.  As in
    estimation._newton_lockstep, a step that would leave the bracket
    bisects it instead, and so does the second of each pair of steps
    (3, 4), (5, 6), ... when the first did not halve it.

    Eigenvalues of M within 1e-9 of the top one, relative to the spectral
    radius, count as one crossing cluster.  In it the lowest and highest
    eigenvectors of A1 (eigenvalues m_lo <= m_hi) are mixed so that
    a = <A1> = clip(lam, m_lo, m_hi): the gap is 0 at a crossing (the NOON
    pair under Jz), where a bare top eigenvector can have zero variance.

    The loop stops when g^2 <= rho |f(lam)|, rho = 1e-14 (f >= 0, up to
    rounding), and that gap is reachable in floating point.  B B' is a
    projector, so
    A2 = (GB)'(GB) >= (GB)'B B'(GB) = A1^2, and the optimum is at least the
    largest variance of A1 alone, (w/2)^2 with w = lam_max(A1) - lam_min(A1).
    So |g| <= sqrt(rho) w/2 = 5e-8 w suffices.  Centring G on the code's
    mean bounds |A1| by w and puts the rounding in a near eps w = 2.2e-16 w
    wherever the top eigenvalue stands apart: more than seven orders below.
    The loop also stops when the bracket is at most
    rho max(|lam_min(A1)|, |lam_max(A1)|) >= rho w/2 wide.  After steps 1
    and 2 each pair at least halves it, so the loop makes at most
    2 + 2 ceil(log2(2/rho)) = 98 steps, each one eigendecomposition of M and
    one of A1 on the cluster.  The returned error is theta^2 times the
    variance at the returned state.  Deterministic.
    """
    if not abs(theta) <= SMALL_THETA_MAX:
        raise ValueError(f"|theta| must be <= {SMALL_THETA_MAX} for the small-angle form, got {theta!r}")
    if not g.is_hermitian():
        raise ValueError(f"operator {g.label!r} is not Hermitian")
    if g.j != code.j:
        raise ValueError("generator does not match the code space dimension")
    basis = code.basis_matrix()
    k = len(code.codewords)
    gb = _apply_block(g, basis)
    a1 = basis.conj().T @ gb
    # Var is unchanged by G -> G - s; centring A1 puts every scale below on
    # the spread of G over the code, not on its mean
    shift = float(np.real(np.trace(a1))) / k
    gb = gb - shift * basis
    a1 = a1 - shift * np.eye(k)
    a2 = gb.conj().T @ gb
    if not np.all(np.isfinite(a2)):
        raise ValueError(f"operator {g.label!r} is too large: B'G^2B is not finite")

    lo, hi = (float(x) for x in np.linalg.eigvalsh(a1)[[0, -1]])
    width_tol = _DUAL_RTOL * max(abs(lo), abs(hi))
    lam, step, pair_start = 0.0, 0, hi - lo
    while True:
        vals, vecs = np.linalg.eigh(a2 - 2.0 * lam * a1)
        radius = max(abs(float(vals[0])), abs(float(vals[-1])))
        in_top = vals >= vals[-1] - _CLUSTER_RTOL * radius
        top = vecs[:, in_top]
        mu, rot = np.linalg.eigh(top.conj().T @ a1 @ top)
        a = min(max(lam, float(mu[0])), float(mu[-1]))
        weight = (a - float(mu[0])) / float(mu[-1] - mu[0]) if mu[-1] > mu[0] else 0.0
        c = top @ (math.sqrt(1.0 - weight) * rot[:, 0] + math.sqrt(weight) * rot[:, -1])
        lo, hi = max(lo, min(lam, a)), min(hi, max(lam, a))
        if (lam - a) ** 2 <= _DUAL_RTOL * abs(float(vals[-1]) + lam * lam) or hi - lo <= width_tol:
            break
        coupling = np.abs(vecs[:, ~in_top].conj().T @ (a1 @ c)) ** 2 / (vals[-1] - vals[~in_top])
        nxt = lam - (lam - a) / (1.0 + 4.0 * float(np.sum(coupling)))
        step += 1
        # steps 3 and 4, 5 and 6, ... form pairs; pair_start is the width before a pair
        halved = step < 3 or step % 2 == 0 or hi - lo <= 0.5 * pair_start
        pair_start = hi - lo
        lam = nxt if halved and lo <= nxt <= hi else 0.5 * (lo + hi)

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
    m1, m2 = _integer(m1, "m1"), _integer(m2, "m2")
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
    return bool(max(eigvals) - min(eigvals) <= tol)


"""Reference values for the benchmark's correctness checks.

Nothing here calls spinsense: the angular-momentum algebra is applied as
O(d) ladder products on raw amplitude vectors (index 0 is m = J), and the
worst-codeword search is solved by its convex dual.  A defect in the
library's dense route therefore cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np

# crb_report's empirical/CRB sigma ratio over 200 runs has a relative
# standard deviation of about 1/sqrt(2 * 199) = 0.05; the band is 5 of them.
CRB_RATIO_BAND = (0.75, 1.25)


def close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want) + abs_tol


def _ladder(twice_j: int) -> np.ndarray:
    """c[i] = sqrt(J(J+1) - m_i(m_i+1)) for m_i = J - i, from twice-values."""
    tm = np.arange(twice_j, -twice_j - 1, -2)
    return np.sqrt((twice_j * (twice_j + 2) - tm * (tm + 2)) / 4.0)


def apply_named(name: str, amps: np.ndarray, twice_j: int) -> np.ndarray:
    """I, J+, J- or Jz applied to amps."""
    if name == "I":
        return amps.copy()
    if name == "Jz":
        return np.arange(twice_j, -twice_j - 1, -2) / 2.0 * amps
    c = _ladder(twice_j)
    out = np.zeros_like(amps)
    if name == "J+":
        out[:-1] = c[1:] * amps[1:]
    elif name == "J-":
        out[1:] = c[1:] * amps[:-1]
    else:
        raise ValueError(f"no ladder form for {name!r}")
    return out


def apply_j(amps: np.ndarray, twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx a, Jy a, Jz a) by ladder products."""
    up = apply_named("J+", amps, twice_j)
    down = apply_named("J-", amps, twice_j)
    return (up + down) / 2.0, (up - down) / 2.0j, apply_named("Jz", amps, twice_j)


def moments(amps: np.ndarray, twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Means <J_i> and the symmetrized covariance matrix of (Jx, Jy, Jz)."""
    vecs = apply_j(amps, twice_j)
    means = np.array([np.vdot(amps, v).real for v in vecs])
    cov = np.array([[np.vdot(a, b).real for b in vecs] for a in vecs]) - np.outer(means, means)
    return means, cov


def axis_variance(amps: np.ndarray, twice_j: int, u) -> float:
    _, cov = moments(amps, twice_j)
    u = np.asarray(u, dtype=float)
    return float(u @ cov @ u)


def max_codeword_variance(basis: np.ndarray, g: np.ndarray) -> float:
    """max over unit c of Var_{Bc}(G) = min over lam of lam_max(A2 - 2 lam A1) + lam^2.

    With A1 = B'GB and A2 = B'G^2B the objective is convex in lam, and the
    joint numerical range of (A2, A1) is convex, so the dual has no gap.
    Golden-section search over [lam_min(A1), lam_max(A1)], which holds the
    minimizer.
    """
    gb = g @ basis
    a1 = basis.conj().T @ gb
    a2 = gb.conj().T @ gb
    a1 = (a1 + a1.conj().T) / 2.0
    a2 = (a2 + a2.conj().T) / 2.0

    def dual(lam: float) -> float:
        return float(np.linalg.eigvalsh(a2 - 2.0 * lam * a1)[-1]) + lam * lam

    ev = np.linalg.eigvalsh(a1)
    lo, hi = float(ev[0]), float(ev[-1])
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = dual(x1), dual(x2)
    for _ in range(200):
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = dual(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = dual(x2)
    return min(f1, f2, dual(lo), dual(hi))


def reduced_element(twice_j: int, k: int) -> float:
    """Closed-form <J||T^(k)||J> (Edmonds convention) for k = 1, 2."""
    tj = twice_j
    if k == 1:
        return math.sqrt(tj * (tj + 2) * (tj + 1) / 4.0)
    if k == 2:
        return 0.5 * math.sqrt((tj - 1) * tj * (tj + 1) * (tj + 2) * (tj + 3) / 6.0)
    raise ValueError(f"no closed form for rank {k}")


def recovery_residual(amps: np.ndarray, twice_j: int, errors, basis: np.ndarray) -> float:
    """sum over E in errors and R in {P, I-P} of <E'R'RE> - |<RE>|^2, P = BB'."""
    total = 0.0
    for name in errors:
        img = apply_named(name, amps, twice_j)
        inside = basis @ (basis.conj().T @ img)
        for w in (inside, img - inside):
            total += np.vdot(w, w).real - abs(np.vdot(amps, w)) ** 2
    return max(total, 0.0)

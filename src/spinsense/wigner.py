"""Exact Wigner 3j symbols, rank-1/2 irreducible tensor operators, and
Wigner-Eckart expectation values on a single spin-J space.

3j symbols are evaluated with the Racah closed form using exact integer
factorials (Python big integers / fractions) and converted to floating
point once at the end, which keeps them cancellation-free up to J ~ 50.
All angular momenta and projections are passed as twice-values so
half-integers stay exact.

Each tensor component T_q^(k) is one diagonal at offset q, filled from the
ladder vector of J+ in O(d); the reduced matrix elements <J||T^(k)||J> are
closed forms.  The Wigner-Eckart route (3j symbols times the reduced
element) and the dense route (the tensor matrix applied to the state) share
no arithmetic, so each checks the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .spin import SpinJ, SpinOperator, SpinState, _banded, _ladder, apply

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ThreeJArgs:
    """Arguments of a 3j symbol, all stored as twice-values."""

    j1: int
    j2: int
    j3: int
    m1: int
    m2: int
    m3: int

    def __post_init__(self):
        for name in ("j1", "j2", "j3", "m1", "m2", "m3"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise TypeError(f"{name} must be an integer twice-value")
            object.__setattr__(self, name, int(v))
        for jn, mn in (("j1", "m1"), ("j2", "m2"), ("j3", "m3")):
            jv, mv = getattr(self, jn), getattr(self, mn)
            if jv < 0:
                raise ValueError(f"{jn} must be non-negative")
            if abs(mv) > jv:
                raise ValueError(f"|{mn}| = {abs(mv)} exceeds {jn} = {jv} (twice-values)")
            if (jv + mv) % 2 != 0:
                raise ValueError(f"{jn} and {mn} must have equal parity (twice-values)")


def three_j(args: ThreeJArgs) -> float:
    """Value of the 3j symbol; 0 when the selection rules fail."""
    return _three_j_twice(args.j1, args.j2, args.j3, args.m1, args.m2, args.m3)


@lru_cache(maxsize=65536)
def _three_j_twice(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        return 0.0
    if tj3 > tj1 + tj2 or tj3 < abs(tj1 - tj2) or (tj1 + tj2 + tj3) % 2:
        return 0.0

    f = math.factorial
    a = (tj1 + tj2 - tj3) // 2
    b = (tj1 - tj2 + tj3) // 2
    c = (-tj1 + tj2 + tj3) // 2
    j1m = (tj1 - tm1) // 2
    j1p = (tj1 + tm1) // 2
    j2m = (tj2 - tm2) // 2
    j2p = (tj2 + tm2) // 2
    j3m = (tj3 - tm3) // 2
    j3p = (tj3 + tm3) // 2

    # square of the prefactor: triangle coefficient times the m-factorials
    pref_sq = Fraction(f(a) * f(b) * f(c), f((tj1 + tj2 + tj3) // 2 + 1))
    pref_sq *= f(j1p) * f(j1m) * f(j2p) * f(j2m) * f(j3p) * f(j3m)

    t_lo = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    t_hi = min(a, j1m, j2p)
    total = Fraction(0)
    for t in range(t_lo, t_hi + 1):
        den = (
            f(t)
            * f(a - t)
            * f(j1m - t)
            * f(j2p - t)
            * f((tj3 - tj2 + tm1) // 2 + t)
            * f((tj3 - tj1 - tm2) // 2 + t)
        )
        total += Fraction(-1 if t % 2 else 1, den)
    if total == 0:
        return 0.0

    phase = -1.0 if ((tj1 - tj2 - tm3) // 2) % 2 else 1.0
    sign = 1.0 if total > 0 else -1.0
    return phase * sign * math.sqrt(float(total * total * pref_sq))


@dataclass
class TensorOperator:
    """Irreducible tensor component T_q^(k) as a dense operator."""

    k: int
    q: int
    op: SpinOperator


@dataclass(frozen=True)
class ReducedElement:
    """Reduced matrix element of the rank-k tensor family on spin J."""

    j: SpinJ
    k: int
    value: float


def tensor_operator(j: SpinJ, k: int, q: int) -> TensorOperator:
    """Rank-1 or rank-2 spherical tensor component T_q^(k) as a dense operator.

    Each component connects |J,m> only to |J,m+q>, so it is one real diagonal
    at offset q, computed in O(d) from m and the ladder vector c of J+:
    T1_0 = Jz and T1_+-1 = -+J+-/sqrt2 (diagonal m and -+c/sqrt2);
    T2_+-2 = J+-^2/2 (c_k c_{k+1}/2); T2_+-1 = -+(J+- Jz + Jz J+-)/2
    (-+c_k (m_k + m_{k+1})/2); T2_0 = (3 Jz^2 - J^2)/sqrt6.  Requires 2J >= k.
    """
    if k not in (1, 2):
        raise ValueError(f"unsupported tensor rank {k}; only 1 and 2 are provided")
    if abs(q) > k:
        raise ValueError(f"component q={q} out of range for rank {k}")
    if j.twice_j < k:
        raise ValueError(f"no rank-{k} tensor on 2J={j.twice_j}: need 2J >= k")
    m = j.m_values()
    c = _ladder(j.twice_j)
    sign = -1.0 if q > 0 else 1.0
    if q == 0:
        band = m if k == 1 else (3.0 * m * m - j.j * (j.j + 1.0)) / math.sqrt(6.0)
    elif k == 1:
        band = sign * c / _SQRT2
    elif abs(q) == 1:
        band = sign * 0.5 * c * (m[:-1] + m[1:])
    else:
        band = 0.5 * c[:-1] * c[1:]
    mat = _banded(j.dim, {q: band})
    return TensorOperator(k, q, SpinOperator._owned(j, mat, label=f"T({k},{q:+d})"))


def reduced_matrix_element(j: SpinJ, k: int) -> ReducedElement:
    """The rank-k reduced matrix element <J||T^(k)||J> in closed form
    (see _closed_form_reduced).  Requires 2J >= k."""
    if k not in (1, 2):
        raise ValueError(f"unsupported tensor rank {k}; only 1 and 2 are provided")
    if j.twice_j < k:
        raise ValueError(f"no rank-{k} tensor on 2J={j.twice_j}: need 2J >= k")
    return ReducedElement(j, k, _closed_form_reduced(j.twice_j, k))


def _closed_form_reduced(twice_j: int, k: int) -> float:
    """<J||T^(k)||J> in closed form (Edmonds convention), with tj = 2J:
    sqrt(tj (tj+2) (tj+1) / 4) for k = 1 and
    sqrt((tj-1) tj (tj+1) (tj+2) (tj+3) / 6) / 2 for k = 2."""
    tj = twice_j
    if k == 1:
        return math.sqrt(tj * (tj + 2) * (tj + 1) / 4.0)
    return 0.5 * math.sqrt((tj - 1) * tj * (tj + 1) * (tj + 2) * (tj + 3) / 6.0)


def we_expectation(psi: SpinState, k: int, q: int) -> complex:
    """<psi| T_q^(k) |psi> via the Wigner-Eckart 3j-weighted coefficient sum.

    Independent of the dense matrix route: only amplitudes, 3j symbols and
    the closed-form reduced matrix element enter.
    """
    if k not in (1, 2):
        raise ValueError(f"unsupported tensor rank {k}; only 1 and 2 are provided")
    if abs(q) > k:
        raise ValueError(f"component q={q} out of range for rank {k}")
    j = psi.j
    tj = j.twice_j
    if tj < k:
        raise ValueError(f"no rank-{k} tensor on 2J={tj}: need 2J >= k")
    rme = _closed_form_reduced(tj, k)
    amps = psi.amplitudes
    total = 0.0 + 0.0j
    tm_lo = max(-tj, -tj - 2 * q)
    tm_hi = min(tj, tj - 2 * q)
    for tm in range(tm_lo, tm_hi + 1, 2):
        tn = tm + 2 * q
        a_m = amps[j.index_of(tm)]
        a_n = amps[j.index_of(tn)]
        if a_m == 0 or a_n == 0:
            continue
        w = _three_j_twice(tj, 2 * k, tj, -tn, 2 * q, tm)
        if w == 0.0:
            continue
        sign = -1.0 if ((tj - 2 * q - tm) // 2) % 2 else 1.0
        total += np.conj(a_n) * a_m * sign * w
    return complex(total * rme)


def dense_expectation(psi: SpinState, k: int, q: int) -> complex:
    """<psi| T_q^(k) |psi> by plain dense algebra (the cross-check route)."""
    t = tensor_operator(psi.j, k, q)
    return complex(np.vdot(psi.amplitudes, apply(t.op, psi)))

"""Exact Wigner 3j symbols, rank-1/2 irreducible tensor operators, and
Wigner-Eckart expectation values on a single spin-J space.

3j symbols are evaluated with the Racah closed form using exact integer
factorials (Python big integers / fractions) and converted to floating
point once at the end, which keeps them cancellation-free up to J ~ 50.
All angular momenta and projections are passed as twice-values so
half-integers stay exact.

Each tensor component T_q^(k) is one band at offset q, computed from the
ladder vector of J+ in O(d), cached per (2J, k, q) and kept as that band;
the reduced matrix elements <J||T^(k)||J> are closed forms.  The
Wigner-Eckart route (3j symbols times the reduced element) and the operator
route (the band applied to the state) share no arithmetic, so each checks
the other.  The Wigner-Eckart sum over m is one dot product of shifted
amplitudes with the signed 3j weights of (2J, k, q), which do not depend on
the state and are computed once and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .spin import MAX_DENSE_TWICE_J, SpinJ, SpinOperator, SpinState, _BandForm, _integer, _spin_table, apply

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
            object.__setattr__(self, name, _integer(getattr(self, name), f"twice-value {name}", TypeError))
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


def _three_j_twice(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    # callers pass only |m| <= j with the parity of j (ThreeJArgs, we_expectation)
    if tm1 + tm2 + tm3 != 0:
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


@dataclass(frozen=True)
class TensorOperator:
    """Irreducible tensor component T_q^(k), an operator that keeps its one band."""

    k: int
    q: int
    op: SpinOperator


@dataclass(frozen=True)
class ReducedElement:
    """Reduced matrix element of the rank-k tensor family on spin J."""

    j: SpinJ
    k: int
    value: float


def _check_rank(twice_j: int, k: int, q: int = 0) -> None:
    """Reject a rank other than 1 or 2, a component |q| > k, or a spin with 2J < k."""
    if k not in (1, 2):
        raise ValueError(f"unsupported tensor rank {k}; only 1 and 2 are provided")
    if abs(q) > k:
        raise ValueError(f"component q={q} out of range for rank {k}")
    if twice_j < k:
        raise ValueError(f"no rank-{k} tensor on 2J={twice_j}: need 2J >= k")


def tensor_operator(j: SpinJ, k: int, q: int) -> TensorOperator:
    """Rank-1 or rank-2 spherical tensor component T_q^(k), kept as its band
    (_tensor_band).  Requires 2J >= k."""
    _check_rank(j.twice_j, k, q)
    band = _tensor_band(j.twice_j, k, q)
    return TensorOperator(k, q, SpinOperator._from_form(j, _BandForm(j.dim, {q: band}), f"T({k},{q:+d})"))


@lru_cache(maxsize=256)
def _cached_tensor_band(twice_j: int, k: int, q: int) -> np.ndarray:
    table = _spin_table(twice_j)
    m, c = table.m, table.c
    jj = twice_j / 2.0
    sign = -1.0 if q > 0 else 1.0
    if q == 0:
        band = m if k == 1 else (3.0 * m * m - jj * (jj + 1.0)) / math.sqrt(6.0)
    elif k == 1:
        band = sign * c / _SQRT2
    elif abs(q) == 1:
        band = sign * 0.5 * c * (m[:-1] + m[1:])
    else:
        band = 0.5 * c[:-1] * c[1:]
    band.flags.writeable = False
    return band


def _tensor_band(twice_j: int, k: int, q: int) -> np.ndarray:
    """The band of T_q^(k) at offset q, read-only.

    Each component connects |J,m> only to |J,m+q>, so it is one real band,
    computed in O(d) from m and the ladder vector c of J+ (_spin_table):
    T1_0 = Jz and T1_+-1 = -+J+-/sqrt2 (diagonal m and -+c/sqrt2);
    T2_+-2 = J+-^2/2 (c_k c_{k+1}/2); T2_+-1 = -+(J+- Jz + Jz J+-)/2
    (-+c_k (m_k + m_{k+1})/2); T2_0 = (3 Jz^2 - J^2)/sqrt6.  A band does not
    depend on the state, and (k, q) takes at most 8 values per spin, so the
    last 256 are kept, as the spin table is, up to MAX_DENSE_TWICE_J.
    """
    if twice_j > MAX_DENSE_TWICE_J:
        return _cached_tensor_band.__wrapped__(twice_j, k, q)
    return _cached_tensor_band(twice_j, k, q)


def reduced_matrix_element(j: SpinJ, k: int) -> ReducedElement:
    """The rank-k reduced matrix element <J||T^(k)||J> in closed form
    (see _closed_form_reduced).  Requires 2J >= k."""
    _check_rank(j.twice_j, k)
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

    Independent of the operator route (dense_expectation): only amplitudes,
    3j symbols and the closed-form reduced matrix element enter.  The level
    2m = 2J - 2i sits at amplitude index i, so n = m + q sits at i - q, and
    the sum over m is one dot product with the cached weights of _we_weights.
    """
    tj = psi.j.twice_j
    _check_rank(tj, k, q)
    a = psi.amplitudes
    lo, hi = max(q, 0), tj + 1 + min(q, 0)
    total = np.vdot(a[lo - q : hi - q], a[lo:hi] * _we_weights(tj, k, q))
    return complex(total * _closed_form_reduced(tj, k))


@lru_cache(maxsize=256)
def _we_weights(twice_j: int, k: int, q: int) -> np.ndarray:
    """The signed 3j weights (-1)^(J-n) (J k J; -n q m) of the Wigner-Eckart
    sum, one per level m with n = m + q inside the spin, read-only; they do
    not depend on the state, and (k, q) takes at most 8 values per spin."""
    lo = max(q, 0)
    w = np.empty(twice_j + 1 - abs(q))
    for i in range(lo, lo + w.size):
        # m at index i, n = m + q at index i - q = J - n
        tm = twice_j - 2 * i
        sign = -1.0 if (i - q) % 2 else 1.0
        w[i - lo] = sign * _three_j_twice(twice_j, 2 * k, twice_j, -tm - 2 * q, 2 * q, tm)
    w.flags.writeable = False
    return w


def dense_expectation(psi: SpinState, k: int, q: int) -> complex:
    """<psi| T_q^(k) |psi> from the band of tensor_operator (the cross-check route)."""
    t = tensor_operator(psi.j, k, q)
    return complex(np.vdot(psi.amplitudes, apply(t.op, psi)))

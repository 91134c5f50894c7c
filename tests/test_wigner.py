import math

import numpy as np
import pytest

from spinsense import (
    SpinJ,
    SpinState,
    ThreeJArgs,
    basis_state,
    build_spin_operators,
    reduced_matrix_element,
    tensor_operator,
    three_j,
    we_expectation,
)
from spinsense import wigner
from spinsense.wigner import _closed_form_reduced, _three_j_twice, _we_weights, dense_expectation
from helpers import random_state, random_symmetric_state

# frozen from the exact-arithmetic Racah evaluation run ahead of the build
FROZEN_3J = {
    # (2j1, 2j2, 2j3, 2m1, 2m2, 2m3): value
    (2, 2, 0, 2, -2, 0): 0.57735026918962576,  # 1/sqrt3
    (4, 4, 4, 0, 0, 0): -0.23904572186687873,  # -sqrt70/35
    (2, 4, 2, 0, 0, 0): 0.36514837167011074,  # sqrt30/15
    (6, 4, 6, -6, 4, 2): 0.15430334996209191,  # sqrt42/42
    (1, 2, 1, 1, 0, -1): 0.40824829046386302,  # sqrt6/6
}


def test_frozen_values():
    for args, expected in FROZEN_3J.items():
        assert three_j(ThreeJArgs(*args)) == pytest.approx(expected, abs=1e-15)


def test_odd_j_sum_all_m_zero_vanishes():
    assert three_j(ThreeJArgs(2, 2, 2, 0, 0, 0)) == 0.0


def test_nonzero_m_sum_vanishes():
    assert three_j(ThreeJArgs(4, 4, 4, 2, 2, 2)) == 0.0
    assert three_j(ThreeJArgs(2, 2, 0, 2, 0, 0)) == 0.0


def test_triangle_violation_vanishes():
    assert three_j(ThreeJArgs(2, 2, 8, 0, 0, 0)) == 0.0


def test_args_validation():
    with pytest.raises(ValueError):
        ThreeJArgs(2, 2, 0, 4, -4, 0)  # |m| > j
    with pytest.raises(ValueError):
        ThreeJArgs(2, 2, 2, 1, -1, 0)  # parity mismatch
    with pytest.raises(TypeError):
        ThreeJArgs(1.0, 2, 1, 0, 0, 0)


def test_even_column_permutation_invariance():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 60:
        tj = rng.integers(0, 7, size=3)
        tm = np.array([rng.integers(-t, t + 1) for t in tj])
        if (tj[0] + tm[0]) % 2 or (tj[1] + tm[1]) % 2 or (tj[2] + tm[2]) % 2:
            continue
        if tm.sum() != 0:
            continue
        base = _three_j_twice(*tj, *tm)
        cyc = _three_j_twice(tj[1], tj[2], tj[0], tm[1], tm[2], tm[0])
        assert cyc == base
        checked += 1


def test_odd_permutation_and_sign_flip_symmetry():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 60:
        tj = rng.integers(0, 7, size=3)
        tm = np.array([rng.integers(-t, t + 1) for t in tj])
        if any((tj[i] + tm[i]) % 2 for i in range(3)) or tm.sum() != 0:
            continue
        base = _three_j_twice(*tj, *tm)
        sign = -1.0 if ((tj.sum() // 2) % 2) else 1.0
        swapped = _three_j_twice(tj[1], tj[0], tj[2], tm[1], tm[0], tm[2])
        flipped = _three_j_twice(*tj, *(-tm))
        assert swapped == pytest.approx(sign * base, abs=1e-15)
        assert flipped == pytest.approx(sign * base, abs=1e-15)
        checked += 1


def test_matches_independent_exact_evaluation():
    # sympy's wigner_3j is an independent exact-rational Racah sum
    sympy = pytest.importorskip("sympy")
    from sympy import Rational
    from sympy.physics.wigner import wigner_3j

    rng = np.random.default_rng(41)
    checked = 0
    while checked < 120:
        tj = rng.integers(0, 9, size=3)
        tm = np.array([rng.integers(-t, t + 1) for t in tj])
        if any((tj[i] + tm[i]) % 2 for i in range(3)) or tm.sum() != 0:
            continue
        mine = _three_j_twice(*tj, *tm)
        ref = float(
            wigner_3j(*(Rational(int(t), 2) for t in tj), *(Rational(int(t), 2) for t in tm))
        )
        assert mine == pytest.approx(ref, abs=2e-15)
        checked += 1


def test_rank1_q0_is_jz():
    j = SpinJ(2)
    assert np.allclose(tensor_operator(j, 1, 0).op.matrix, build_spin_operators(j).jz.matrix)


@pytest.mark.parametrize("twice_j", (2, 4, 5, 12))
@pytest.mark.parametrize("k", (1, 2))
def test_bandedness(twice_j, k):
    j = SpinJ(twice_j)
    if twice_j < k:
        pytest.skip("rank exceeds 2J")
    for q in range(-k, k + 1):
        mat = tensor_operator(j, k, q).op.matrix
        for col in range(j.dim):
            for row in range(j.dim):
                if row != col - q:
                    assert abs(mat[row, col]) < 1e-13


def test_rank2_q0_value_at_top_level():
    # <2,2|T0|2,2> = (2*4 - 2)/sqrt6 = sqrt6, from explicit product matrices
    j = SpinJ(4)
    t0 = tensor_operator(j, 2, 0).op
    assert t0.is_hermitian()
    top = basis_state(j, 4)
    val = np.vdot(top.amplitudes, t0.matrix @ top.amplitudes)
    assert val.real == pytest.approx(2.4494897427831781, abs=1e-12)
    # every component against dense products of Jx, Jy, Jz
    for twice_j in (*range(1, 13), 40, 100):
        j = SpinJ(twice_j)
        ops = build_spin_operators(j)
        jx, jy, jz = ops.jx.matrix, ops.jy.matrix, ops.jz.matrix
        explicit = {
            (1, 0): jz,
            (1, 1): -(jx + 1j * jy) / math.sqrt(2.0),
            (1, -1): (jx - 1j * jy) / math.sqrt(2.0),
            (2, 0): (2.0 * jz @ jz - jx @ jx - jy @ jy) / math.sqrt(6.0),
        }
        for s in (1, -1):
            explicit[(2, 2 * s)] = (jx @ jx - jy @ jy) / 2.0 + s * 0.5j * (jx @ jy + jy @ jx)
            explicit[(2, s)] = -s * 0.5 * (jx @ jz + jz @ jx) - 0.5j * (jy @ jz + jz @ jy)
        psi = basis_state(j, twice_j)
        for (k, q), mat in explicit.items():
            if k > twice_j:
                # no rank-k tensor on 2J < k: both routes refuse, as we_expectation does
                with pytest.raises(ValueError, match=f"no rank-{k} tensor on 2J={twice_j}"):
                    tensor_operator(j, k, q)
                with pytest.raises(ValueError, match=f"no rank-{k} tensor on 2J={twice_j}"):
                    dense_expectation(psi, k, q)
                continue
            gap = np.max(np.abs(tensor_operator(j, k, q).op.matrix - mat))
            assert gap <= 1e-13 * max(1.0, j.j**2), (twice_j, k, q, gap)


def test_unsupported_rank_rejected():
    with pytest.raises(ValueError):
        tensor_operator(SpinJ(4), 3, 0)
    with pytest.raises(ValueError):
        tensor_operator(SpinJ(4), 2, 3)
    for k in (0, 3):
        with pytest.raises(ValueError, match="unsupported tensor rank"):
            reduced_matrix_element(SpinJ(4), k)


@pytest.mark.parametrize(
    "twice_j, k, q, message",
    [
        (4, 3, 0, "unsupported tensor rank 3; only 1 and 2 are provided"),
        (4, 2, 3, "component q=3 out of range for rank 2"),
        (1, 2, 0, "no rank-2 tensor on 2J=1: need 2J >= k"),
    ],
)
def test_rank_checks_give_one_message_everywhere(twice_j, k, q, message):
    j = SpinJ(twice_j)
    calls = [lambda: tensor_operator(j, k, q), lambda: we_expectation(basis_state(j, twice_j), k, q)]
    if q == 0:
        calls.append(lambda: reduced_matrix_element(j, k))
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_reduced_element_rank1_closed_form():
    # sqrt(J(J+1)(2J+1)) for the rank-1 family
    for twice_j in (1, 2, 4, 7):
        jphys = twice_j / 2.0
        expected = math.sqrt(jphys * (jphys + 1.0) * (twice_j + 1.0))
        assert reduced_matrix_element(SpinJ(twice_j), 1).value == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("twice_j", [2, 3, 4, 7, 12, 40, 100])
def test_reduced_element_matches_closed_forms(twice_j):
    # Edmonds convention: <J||T1||J> = sqrt(J(J+1)(2J+1)),
    # <J||T2||J> = sqrt((2J-1) 2J (2J+1) (2J+2) (2J+3) / 6) / 2
    tj = twice_j
    rank1 = math.sqrt(tj * (tj + 2) * (tj + 1) / 4.0)
    rank2 = 0.5 * math.sqrt((tj - 1) * tj * (tj + 1) * (tj + 2) * (tj + 3) / 6.0)
    j = SpinJ(twice_j)
    assert reduced_matrix_element(j, 1).value == pytest.approx(rank1, rel=1e-14)
    assert reduced_matrix_element(j, 2).value == pytest.approx(rank2, rel=1e-14)


def test_reduced_element_consistent_across_elements():
    # the banded entries over their 3j symbols give the closed-form element
    cases = [(2, 1), (4, 2), (12, 2), (5, 2)]
    cases += [(twice_j, k) for twice_j in (40, 100, 101) for k in (1, 2)]
    for twice_j, k in cases:
        j = SpinJ(twice_j)
        rme = reduced_matrix_element(j, k).value
        for q in range(-k, k + 1):
            mat = tensor_operator(j, k, q).op.matrix
            for tm in range(-twice_j, twice_j + 1, 2):
                tn = tm + 2 * q
                if abs(tn) > twice_j:
                    continue
                w = _three_j_twice(twice_j, 2 * k, twice_j, -tn, 2 * q, tm)
                if abs(w) < 1e-6:
                    continue
                sign = -1.0 if ((twice_j - tn) // 2) % 2 else 1.0
                ratio = mat[j.index_of(tn), j.index_of(tm)] / (sign * w)
                assert abs(ratio - rme) < 1e-10 * max(1.0, abs(rme))


def test_reduced_element_ratio_matches_for_two_levels_j2():
    j = SpinJ(4)
    mat = tensor_operator(j, 2, 2).op.matrix
    ratios = []
    for tm in (0, -4):
        tn = tm + 4
        w = _three_j_twice(4, 4, 4, -tn, 4, tm)
        sign = -1.0 if ((4 - tn) // 2) % 2 else 1.0
        ratios.append(mat[j.index_of(tn), j.index_of(tm)] / (sign * w))
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)


def test_rank2_needs_at_least_j_one():
    with pytest.raises(ValueError):
        reduced_matrix_element(SpinJ(1), 2)
    with pytest.raises(ValueError):
        we_expectation(basis_state(SpinJ(1), 1), 2, 0)


@pytest.mark.parametrize("k", [0, 3])
def test_we_expectation_rejects_unsupported_rank(k):
    with pytest.raises(ValueError, match="unsupported tensor rank"):
        we_expectation(basis_state(SpinJ(6), 2), k, 0)


def test_we_expectation_zero_cases():
    # m=0 level has <Jz> = 0
    assert we_expectation(basis_state(SpinJ(4), 0), 1, 0) == pytest.approx(0.0, abs=1e-15)
    # gap >= 2 symmetric support kills the q = +-1 components
    rng = np.random.default_rng(43)
    for twice_j in (4, 6, 12):
        for _ in range(10):
            psi = random_symmetric_state(SpinJ(twice_j), rng, min_gap=2)
            for k in (1, 2):
                for q in (-1, 1):
                    assert abs(we_expectation(psi, k, q)) < 1e-14


@pytest.mark.parametrize("twice_j", (4, 5, 6, 12))
def test_we_expectation_matches_dense_for_random_states(twice_j):
    rng = np.random.default_rng(100 + twice_j)
    j = SpinJ(twice_j)
    for _ in range(200):
        psi = random_state(j, rng)
        for k in (1, 2):
            for q in range(-k, k + 1):
                lhs = we_expectation(psi, k, q)
                rhs = dense_expectation(psi, k, q)
                assert abs(lhs - rhs) < 1e-10


def test_symmetric_real_states_have_equal_q2_components():
    rng = np.random.default_rng(53)
    for _ in range(50):
        psi = random_symmetric_state(SpinJ(8), rng, min_gap=1, real=True)
        plus = we_expectation(psi, 2, 2)
        minus = we_expectation(psi, 2, -2)
        assert abs(plus - minus) < 1e-12


def _we_expectation_loop(psi, k, q):
    """The Wigner-Eckart sum as one term per level m, kept as the reference
    for the dot product over cached weights."""
    j = psi.j
    tj = j.twice_j
    amps = psi.amplitudes
    total = 0.0 + 0.0j
    for tm in range(max(-tj, -tj - 2 * q), min(tj, tj - 2 * q) + 1, 2):
        tn = tm + 2 * q
        a_m = amps[j.index_of(tm)]
        a_n = amps[j.index_of(tn)]
        if a_m == 0 or a_n == 0:
            continue
        w = _three_j_twice(tj, 2 * k, tj, -tn, 2 * q, tm)
        sign = -1.0 if ((tj - 2 * q - tm) // 2) % 2 else 1.0
        total += np.conj(a_n) * a_m * sign * w
    return complex(total * _closed_form_reduced(tj, k))


@pytest.mark.parametrize("twice_j", range(1, 61))
def test_we_expectation_matches_the_per_level_loop(twice_j):
    rng = np.random.default_rng(700 + twice_j)
    j = SpinJ(twice_j)
    real = rng.normal(size=j.dim)
    states = [random_state(j, rng) for _ in range(3)]
    states += [basis_state(j, int(tm)) for tm in j.twice_m_values()[:: max(1, twice_j // 4)]]
    states += [SpinState(j, real / np.linalg.norm(real))]
    tol = 1e-15 * max(1.0, j.j * (j.j + 1.0))
    for psi in states:
        for k in (1, 2):
            if twice_j < k:
                continue
            for q in range(-k, k + 1):
                assert abs(we_expectation(psi, k, q) - _we_expectation_loop(psi, k, q)) <= tol


def test_we_weights_are_computed_once_per_component(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _three_j_twice(*args)

    monkeypatch.setattr(wigner, "_three_j_twice", counting)
    _we_weights.cache_clear()
    psi = random_state(SpinJ(10), np.random.default_rng(5))
    first = we_expectation(psi, 2, 1)
    assert len(calls) == 10
    assert we_expectation(psi, 2, 1) == first
    assert len(calls) == 10
    we_expectation(psi, 2, -1)
    assert len(calls) == 20


def test_we_weights_are_read_only():
    w = _we_weights(12, 2, -2)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0

"""The O(d) ladder path against a dense oracle built here from the textbook
matrix elements <J,m|Jz|J,m> = m and <J,m+1|J+|J,m> = sqrt((J-m)(J+m+1)),
sharing no code with spinsense's operator builders."""

import numpy as np
import pytest

from spinsense import (
    RotationAxis,
    SpinJ,
    SupportSpec,
    anticoherence_report,
    axis_generator,
    construct_anticoherent,
    fisher_matrix,
    noon_state,
)
from helpers import random_state

TWICE_JS = (1, 2, 3, 5, 10, 100)
# feasible symmetric supports for construct_anticoherent, integer J only
ANTICOHERENT_SUPPORT = {10: (0, 4), 100: (0, 30)}


def dense_oracle(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    jj = twice_j / 2.0
    m_values = [jj - k for k in range(twice_j + 1)]
    dim = len(m_values)
    jz = np.zeros((dim, dim), dtype=complex)
    jp = np.zeros((dim, dim), dtype=complex)
    for col, m in enumerate(m_values):
        jz[col, col] = m
        if col > 0:
            jp[col - 1, col] = np.sqrt((jj - m) * (jj + m + 1.0))
    jm = jp.conj().T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, jz


def oracle_moments(psi) -> tuple[np.ndarray, np.ndarray]:
    vecs = [op @ psi.amplitudes for op in dense_oracle(psi.j.twice_j)]
    means = np.array([np.vdot(psi.amplitudes, v).real for v in vecs])
    sym = np.array([[np.vdot(a, b).real for b in vecs] for a in vecs])
    return means, sym - np.outer(means, means)


def ladder_cases():
    rng = np.random.default_rng(20240611)
    cases = []
    for twice_j in TWICE_JS:
        j = SpinJ(twice_j)
        cases += [(f"random-{twice_j}-{i}", random_state(j, rng)) for i in range(3)]
        cases.append((f"noon-{twice_j}", noon_state(j)))
        support = ANTICOHERENT_SUPPORT.get(twice_j)
        if support is not None:
            cases.append((f"anticoherent-{twice_j}", construct_anticoherent(SupportSpec(j, support))))
    return cases


CASES = ladder_cases()


def _tol(psi) -> float:
    jj = psi.j.j
    return 1e-12 * max(1.0, jj * (jj + 1.0))


@pytest.mark.parametrize("name,psi", CASES, ids=[c[0] for c in CASES])
def test_fisher_matrix_matches_dense_oracle(name, psi):
    _, cov = oracle_moments(psi)
    got = fisher_matrix(psi).matrix
    assert np.max(np.abs(got - cov)) <= _tol(psi)
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("name,psi", CASES, ids=[c[0] for c in CASES])
def test_anticoherence_report_matches_dense_oracle(name, psi):
    means, cov = oracle_moments(psi)
    jj = psi.j.j
    rep = anticoherence_report(psi, 1e-9)
    assert abs(rep.max_first_moment - np.max(np.abs(means))) <= _tol(psi)
    dev = np.max(np.abs(cov - jj * (jj + 1.0) / 3.0 * np.eye(3)))
    assert abs(rep.max_matrix_deviation - dev) <= _tol(psi)
    if name.startswith("anticoherent"):
        assert rep.order1 and rep.order2


@pytest.mark.parametrize("twice_j", TWICE_JS)
def test_axis_generator_matches_dense_oracle(twice_j):
    rng = np.random.default_rng(twice_j)
    jx, jy, jz = dense_oracle(twice_j)
    axes = [RotationAxis.x(), RotationAxis.y(), RotationAxis.z()]
    axes += [RotationAxis.from_vector(rng.normal(size=3)) for _ in range(3)]
    for u in axes:
        ux, uy, uz = u.u
        got = axis_generator(SpinJ(twice_j), u).matrix
        np.testing.assert_array_equal(got, ux * jx + uy * jy + uz * jz)

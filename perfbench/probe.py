"""Fixed kernel probe for the traced run: one median per (layer kernel, size).

Every workload runs the same probe, so each per-layer kernel metric has a
value on every workload and can be compared across commits.  Each case is
called until it has three samples or half a second has passed; its metric
is the median duration of the spans named ``span`` that the case recorded.
Inputs are built before timing from cheap closed forms, so the probe spends
its time in the kernels.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spinsense import codes, estimation, metrics, sensing, spin, wigner

import workloads

SIZES = (10, 100, 400, 1000)
REPS = 3
BUDGET_S = 0.5


@dataclass
class Case:
    metric: str
    span: str
    call: Callable[[], object]
    scale: float  # multiplies a duration in ns
    once: bool = False


def _random_state(rng, twice_j: int) -> spin.SpinState:
    v = rng.normal(size=twice_j + 1) + 1j * rng.normal(size=twice_j + 1)
    return spin.SpinState(spin.SpinJ(twice_j), v / np.linalg.norm(v))


def _jz(twice_j: int) -> spin.SpinOperator:
    j = spin.SpinJ(twice_j)
    return spin.SpinOperator(j, np.diag(j.m_values()).astype(complex), "Jz")


def _z_rotation(twice_j: int, theta: float) -> spin.SpinOperator:
    j = spin.SpinJ(twice_j)
    return spin.SpinOperator(j, np.diag(np.exp(-1j * theta * j.m_values())), "Rz")


def _three_j_args() -> list[wigner.ThreeJArgs]:
    """Valid symbols of ranks 3 and 4, which no spinsense routine evaluates,
    so the first pass over them is cold in any process."""
    out = []
    for tj in range(6, 61):
        for tk in (6, 8):
            for tm in range(-tj, tj + 1, 2):
                for tq in range(-tk, tk + 1, 2):
                    tn = tm + tq
                    if abs(tn) <= tj:
                        out.append(wigner.ThreeJArgs(tj, tk, tj, -tn, tq, tm))
    return out[::7]


def _cases(rec) -> list[Case]:
    rng = np.random.default_rng(2026)
    ms, us, s = 1e-6, 1e-3, 1e-9
    cases: list[Case] = []
    axis = spin.RotationAxis.from_vector([0.3, -0.5, 0.8])

    def timed_subprocess(name: str, code: str) -> Callable[[], object]:
        def call():
            with rec.span(name, "import"):
                subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)

        return call

    for name, code in (
        ("interpreter", "pass"),
        ("numpy", "import numpy"),
        ("scipy_optimize", "import scipy.optimize"),
        ("spinsense", "import spinsense"),
    ):
        cases.append(Case(f"import.{name}_s", f"import.{name}", timed_subprocess(f"import.{name}", code), s))

    construct_doc = sensing.construct_anticoherent(sensing.SupportSpec(spin.SpinJ(6), (0, 3))).to_json_dict()
    ae_doc = codes.ae_codewords(spin.SpinJ(12), 3, 6).to_json_dict()
    cli_calls = {
        "state-check": (["state-check", "--tol", "1e-9"], construct_doc),
        "qfi": (["qfi", "--state", "noon", "--twice-j", "10", "--axis", "z"], None),
        "fisher-matrix": (["fisher-matrix", "--state", "noon", "--twice-j", "10"], None),
        "construct": (["construct", "--twice-j", "6", "--support", "0,3"], None),
        "ae-code": (["ae-code", "--twice-j", "12", "--m1", "3", "--m2", "6"], None),
        "code-check": (["code-check", "--errors", "I,J+,J-,Jz", "--tol", "1e-9"], ae_doc),
        "error": (["error", "--state", "noon", "--twice-j", "4", "--axis", "z", "--theta", "0.1"], None),
        "estimate": (["estimate", "--state", "noon", "--twice-j", "4", "--axis", "z", "--theta-true", "0.05",
                      "--trials", "100000", "--runs", "200", "--seed", "42"], None),
        "distance": (["distance", "--p", "0.5,0.5", "--q", "0.8,0.2"], None),
    }
    for sub, (argv, doc) in cli_calls.items():
        stdin = "" if doc is None else json.dumps(doc)
        cases.append(Case(f"cli.{sub}.p50_ms", "cli.main",
                          lambda argv=argv, stdin=stdin: workloads.run_cli_inprocess(argv, stdin), ms))

    states = {tj: _random_state(rng, tj) for tj in SIZES}
    for tj in SIZES:
        j = spin.SpinJ(tj)
        psi = states[tj]
        cases += [
            Case(f"spin.build_spin_operators.p50_ms.2j{tj}", "spin.build_spin_operators",
                 lambda j=j: spin.build_spin_operators(j), ms),
            Case(f"spin.axis_generator.p50_ms.2j{tj}", "spin.axis_generator",
                 lambda j=j: spin.axis_generator(j, axis), ms),
            Case(f"spin.rotation_unitary.p50_ms.2j{tj}", "spin.rotation_unitary",
                 lambda j=j: spin.rotation_unitary(j, 0.1, axis), ms),
            Case(f"sensing.fisher_matrix.p50_ms.2j{tj}", "sensing.fisher_matrix",
                 lambda psi=psi: sensing.fisher_matrix(psi), ms),
            Case(f"sensing.anticoherence_report.p50_ms.2j{tj}", "sensing.anticoherence_report",
                 lambda psi=psi: sensing.anticoherence_report(psi, 1e-9), ms),
            Case(f"sensing.rotation_qfi.p50_ms.2j{tj}", "sensing.rotation_qfi",
                 lambda psi=psi: sensing.rotation_qfi(psi, axis), ms),
        ]
    cases.append(Case("sensing.construct_anticoherent.p50_ms", "sensing.construct_anticoherent",
                      lambda: sensing.construct_anticoherent(sensing.SupportSpec(spin.SpinJ(1000), (0, 400))), ms))

    for tj in (100, 400, 1000):
        psi, g = states[tj], _jz(tj)
        cases += [
            Case(f"metrics.qfi.p50_ms.2j{tj}", "metrics.qfi", lambda psi=psi, g=g: metrics.qfi(psi, g), ms),
            Case(f"metrics.qfi_finite_difference.p50_ms.2j{tj}", "metrics.qfi_finite_difference",
                 lambda psi=psi, g=g: metrics.qfi_finite_difference(psi, g, 1e-4 / tj), ms),
        ]
    other = _random_state(rng, 1000)
    cases.append(Case("metrics.distinguishability.p50_ms", "metrics.distinguishability",
                      lambda: metrics.distinguishability(states[1000], other), ms))

    for k, tj in ((2, 4), (3, 8), (5, 13)):
        j = spin.SpinJ(tj)
        q, _ = np.linalg.qr(rng.normal(size=(tj + 1, k)) + 1j * rng.normal(size=(tj + 1, k)))
        code = codes.CodeSpace(j, [spin.SpinState(j, q[:, i]) for i in range(k)])
        g = spin.axis_generator(j, axis)
        cases.append(Case(f"codes.max_error_over_code.p50_ms.k{k}", "codes.max_error_over_code",
                          lambda code=code, g=g: codes.max_error_over_code(code, g, 0.05), ms))
    j40 = spin.SpinJ(40)
    ae = codes.ae_codewords(j40, 4, 12)
    errors = workloads.error_set(j40)
    proj = ae.basis_matrix() @ ae.basis_matrix().conj().T
    recoveries = codes.RecoverySet([spin.SpinOperator(j40, proj), spin.SpinOperator(j40, np.eye(41) - proj)])
    cases += [
        Case("codes.kl_check.p50_ms", "codes.kl_check", lambda: codes.kl_check(ae, errors, 1e-9), ms),
        Case("codes.detection_check.p50_ms", "codes.detection_check",
             lambda: codes.detection_check(ae, errors, 1e-9), ms),
        Case("codes.error_with_recovery.p50_ms", "codes.error_with_recovery",
             lambda: codes.error_with_recovery(ae.codewords[0], errors, recoveries), ms),
    ]
    for tj in (100, 1000):
        psi, u = states[tj], _z_rotation(tj, 0.01)
        cases.append(Case(f"codes.error_of_state.p50_ms.2j{tj}", "codes.error_of_state",
                          lambda psi=psi, u=u: codes.error_of_state(psi, u), ms))

    symbols = _three_j_args()
    three_j = getattr(wigner.three_j, "__wrapped__", wigner.three_j)

    def three_j_pass(name):
        def call():
            with rec.span(name, "wigner"):
                for a in symbols:
                    three_j(a)

        return call

    cases += [
        Case("wigner.three_j.cold_us", "wigner.three_j.cold", three_j_pass("wigner.three_j.cold"),
             us / len(symbols), once=True),
        Case("wigner.three_j.warm_us", "wigner.three_j.warm", three_j_pass("wigner.three_j.warm"),
             us / len(symbols)),
    ]
    for tj in (10, 100):
        psi = states[tj]
        cases.append(Case(f"wigner.we_expectation.p50_ms.2j{tj}", "wigner.we_expectation",
                          lambda psi=psi: wigner.we_expectation(psi, 2, 1), ms))
    for tj in (10, 100, 400):
        j = spin.SpinJ(tj)
        cases += [
            Case(f"wigner.reduced_matrix_element.p50_ms.2j{tj}", "wigner.reduced_matrix_element",
                 lambda j=j: wigner.reduced_matrix_element(j, 2), ms),
            Case(f"wigner.tensor_operator.p50_ms.2j{tj}", "wigner.tensor_operator",
                 lambda j=j: wigner.tensor_operator(j, 2, 1), ms),
        ]

    j4 = spin.SpinJ(4)
    config = estimation.EstimationConfig(psi=sensing.noon_state(j4), generator=_jz(4), theta_true=0.05,
                                         trials_per_run=100_000, runs=200, seed=42)
    bracket = (0.0, math.pi / 8.0)
    cases += [
        Case("estimation.crb_report.p50_ms", "estimation.crb_report", lambda: estimation.crb_report(config), ms),
        Case("estimation.simulate_trials.p50_ms", "estimation.simulate_trials",
             lambda: estimation.simulate_trials(config), ms),
        Case("estimation.estimate_theta.p50_us", "estimation.estimate_theta",
             lambda: estimation.estimate_theta(99_000, 100_000, config.psi, config.generator, bracket), us),
    ]
    return cases


def run(rec) -> dict[str, float]:
    """Run every case with ``rec`` recording and the library instrumented."""
    out = {}
    saved_op = rec.op
    rec.op = "probe:inputs"
    try:
        for case in _cases(rec):
            rec.op = "probe:" + case.metric
            first = len(rec.spans)
            start = time.perf_counter()
            done = 0
            while done == 0 or (not case.once and done < REPS and time.perf_counter() - start < BUDGET_S):
                case.call()
                done += 1
            durations = [s["end"] - s["start"] for s in rec.spans[first:]
                         if s["name"] == case.span and s["op"] == rec.op]
            out[case.metric] = statistics.median(durations) * case.scale
    finally:
        rec.op = saved_op
    return out

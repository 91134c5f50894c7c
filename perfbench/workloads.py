"""The four benchmark workloads: seeded input specs, ops and their oracles.

Each workload is one closed-loop client.  ``specs(name, seed)`` draws plain
data (numbers, strings, numpy arrays) from the seed alone; ``build`` turns
the specs into library inputs through spinsense's public constructors.
Both return a list of rounds; every round holds the workload's whole op mix.
The runner goes through the rounds in order, wrapping around, and stops only
at a round boundary, so every run sees the same mix.  code_search and
crb_monte_carlo draw fresh inputs for each round, so that input-dependent
costs (optimizer iterations) average out over a run instead of being fixed
by the seed; the dense ops of the other two cost the same on any input.

An op's ``run(rec)`` is the timed part: the library calls a user waits for.
``check(result)`` then compares the result against an oracle; a raise or a
False from either counts the op as failed.  Library calls go through the
module attribute (``sensing.fisher_matrix``), so ``spans.instrument`` can
time them in a traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from spinsense import cli, codes, estimation, metrics, sensing, spin, wigner

import oracles
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
CLI_CHILD = Path(__file__).resolve().parent / "clichild.py"
SUBPROCESS_TIMEOUT_S = 120

# Tail percentile per workload, taken over the per-op mean latencies of a
# round (see run.py): one with about ten latency samples beyond it in a
# 20 s run of the seed code, then frozen, so that a change which completes
# more ops cannot move the tail to a higher percentile.
TAIL_PERCENTILE = {
    "cli_pipeline": 60.0,
    "sensor_large_j": 85.0,
    "code_search": 95.0,
    "crb_monte_carlo": 80.0,
}


@dataclass
class Op:
    kind: str
    layer: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]


# --------------------------------------------------------------------------
# shared input generators


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_amps(rng, twice_j: int) -> np.ndarray:
    v = rng.normal(size=twice_j + 1) + 1j * rng.normal(size=twice_j + 1)
    return v / np.linalg.norm(v)


def _anticoherent_support(rng, twice_j: int) -> tuple[int, int]:
    """Two shells (m_lo, m_hi) that construct_anticoherent accepts.

    m_lo^2 < J(J+1)/3 <= m_hi^2 makes the moment target reachable, and
    m_lo in {0} or [2, m_hi - 3] keeps every signed gap at 3 or more.
    """
    j = twice_j // 2
    target = j * (j + 1) / 3.0
    m_hi = int(rng.integers(math.ceil(math.sqrt(target)), j + 1))
    lows = [0] + [m for m in range(2, m_hi - 2) if m * m < target]
    return int(lows[rng.integers(len(lows))]), m_hi


def _ae_mix(rng, twice_j: int) -> tuple[int, int]:
    """Shells (m1, m2) that ae_codewords accepts at an even 2J >= 12."""
    j = twice_j // 2
    m1 = int(rng.integers(3, j - 2))
    return m1, int(rng.integers(m1 + 3, j + 1))


def _ae_params(rng, lo: int = 12, hi: int = 40) -> tuple[int, int, int]:
    twice_j = 2 * int(rng.integers(lo // 2, hi // 2 + 1))
    return (twice_j, *_ae_mix(rng, twice_j))


def _noon_or_branch(twice_j: int, twice_m: int) -> spin.SpinState:
    """(|J,m> + |J,-m>)/sqrt2; the NOON state when m = J."""
    j = spin.SpinJ(twice_j)
    if twice_m == twice_j:
        return sensing.noon_state(j)
    amps = np.zeros(j.dim, dtype=complex)
    amps[j.index_of(twice_m)] = amps[j.index_of(-twice_m)] = 1.0 / math.sqrt(2.0)
    return spin.SpinState(j, amps)


def _scale(twice_j: int) -> float:
    return max(1.0, twice_j * (twice_j + 2) / 4.0)


# --------------------------------------------------------------------------
# sensor_large_j

SENSOR_KINDS = ("fisher_matrix", "rotation_qfi", "anticoherence_report", "qfi", "error_of_state")
# (2J, ops per kind per round): the median and the p85 tail both land inside
# the 2J = 400 ops (whose cost is mostly BLAS, the steadiest part of the
# machine), and the 2J = 1000 ops take most of the wall time.
SENSOR_SIZES = ((10, 2), (100, 2), (400, 6), (1000, 1))
FAMILIES = ("random", "noon", "constructed")


def _sensor_specs(rng) -> list[list[dict]]:
    out = []
    for kind in SENSOR_KINDS:
        for twice_j, count in SENSOR_SIZES:
            for _ in range(count):
                family = FAMILIES[int(rng.integers(len(FAMILIES)))]
                if family == "random":
                    state = _random_amps(rng, twice_j)
                elif family == "constructed":
                    state = _anticoherent_support(rng, twice_j)
                else:
                    state = None
                out.append(
                    {
                        "kind": kind,
                        "twice_j": twice_j,
                        "family": family,
                        "state": state,
                        "axis": _unit(rng),
                        "theta": float(rng.uniform(0.01, 0.1)) / (twice_j / 2.0),
                    }
                )
    return [out]


def _sensor_state(s: dict) -> spin.SpinState:
    j = spin.SpinJ(s["twice_j"])
    if s["family"] == "random":
        return spin.SpinState(j, s["state"])
    if s["family"] == "noon":
        return sensing.noon_state(j)
    return sensing.construct_anticoherent(sensing.SupportSpec(j, s["state"]))


def _sensor_op(s: dict) -> Op:
    tj = s["twice_j"]
    jj = tj / 2.0
    scale = _scale(tj)
    psi = _sensor_state(s)
    amps = psi.amplitudes
    noon = s["family"] == "noon"
    # NOON states are checked about z, where closed forms exist
    u = np.array([0.0, 0.0, 1.0]) if noon else s["axis"]
    axis = spin.RotationAxis.from_vector(u)
    kind = s["kind"]
    label = f"{kind}.2j{tj}"

    if kind == "fisher_matrix":

        def run(rec):
            return sensing.fisher_matrix(psi)

        def check(fm):
            _, cov = oracles.moments(amps, tj)
            return bool(np.max(np.abs(fm.matrix - cov)) <= 1e-9 * scale)

        return Op(label, "sensing", run, check)

    if kind == "rotation_qfi":

        def run(rec):
            return sensing.rotation_qfi(psi, axis)

        def check(value):
            if noon:
                return oracles.close(value, 4.0 * jj * jj, 1e-12)
            if s["family"] == "constructed":
                return oracles.close(value, 4.0 * jj * (jj + 1.0) / 3.0, 1e-9)
            return oracles.close(value, 4.0 * oracles.axis_variance(amps, tj, u), 1e-9, 1e-9 * scale)

        return Op(label, "sensing", run, check)

    if kind == "anticoherence_report":
        tol = 1e-9 * scale

        def run(rec):
            return sensing.anticoherence_report(psi, tol)

        def check(rep):
            means, cov = oracles.moments(amps, tj)
            first = float(np.max(np.abs(means)))
            dev = float(np.max(np.abs(cov - jj * (jj + 1.0) / 3.0 * np.eye(3))))
            ok = abs(rep.max_first_moment - first) <= tol and abs(rep.max_matrix_deviation - dev) <= tol
            if s["family"] == "constructed":
                ok = ok and rep.order1 and rep.order2
            return ok

        return Op(label, "sensing", run, check)

    if kind == "qfi":
        step = 1e-4 / max(1.0, jj)

        def run(rec):
            g = spin.axis_generator(psi.j, axis)
            return metrics.qfi(psi, g), metrics.qfi_finite_difference(psi, g, step)

        def check(pair):
            exact, fd = pair
            want = 4.0 * oracles.axis_variance(amps, tj, u)
            return oracles.close(fd, exact, 1e-5) and oracles.close(exact, want, 1e-9, 1e-9 * scale)

        return Op(label, "metrics", run, check)

    theta = s["theta"]

    def run(rec):
        return codes.error_of_state(psi, spin.rotation_unitary(psi.j, theta, axis))

    def check(err):
        if noon:
            return oracles.close(err, math.sin(jj * theta) ** 2, 1e-9, 1e-12)
        quad = theta * theta * oracles.axis_variance(amps, tj, u)
        return quad * (1.0 - theta * theta * jj * jj / 3.0) - 1e-10 <= err <= quad + 1e-10

    return Op(label, "codes", run, check)


# --------------------------------------------------------------------------
# code_search

CODE_KS = (2, 3, 4, 5)
CODE_CHECKS = 5
# 2J of the wigner_checks slots.  With five code_checks (the cheapest ops)
# below them and the cli op and four max_error_over_code ops above them, the
# run's median latency lands between the two 2J = 24 wigner ops, so it is
# the cost of one fixed-size op rather than a boundary between op kinds.
WIGNER_TWICE_J = (12, 24, 24, 36)
CODE_ROUNDS = 48
CHECK_ERRORS = ("I", "J+", "J-", "Jz")


def _code_specs(rng) -> list[list[dict]]:
    return [_code_round(rng, r) for r in range(CODE_ROUNDS)]


def _cycle(lo: int, hi: int, i: int, step: int = 1) -> int:
    """The i-th value of lo, lo + step, ..., hi, wrapping around."""
    return lo + step * (i % ((hi - lo) // step + 1))


def _code_round(rng, r: int) -> list[dict]:
    # Sizes follow a schedule over the round index that no seed changes, so
    # every seed sees the same costs; the seed draws only the contents.
    out = []
    for k in CODE_KS:
        twice_j = _cycle(max(3, k - 1), 13, r + k)
        d = twice_j + 1
        raw = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        out.append(
            {
                "kind": f"max_error_over_code.k{k}",
                "twice_j": twice_j,
                "raw": raw,
                "axis": _unit(rng),
                "theta": float(rng.uniform(0.01, 0.1)),
            }
        )
    for i in range(CODE_CHECKS):
        tj = _cycle(12, 40, CODE_CHECKS * r + i, 2)
        m1, m2 = _ae_mix(rng, tj)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        out.append({"kind": "code_checks", "twice_j": tj, "m1": m1, "m2": m2, "mix": c / np.linalg.norm(c)})
    for tj in WIGNER_TWICE_J:
        out.append({"kind": "wigner_checks", "twice_j": tj, "amps": _random_amps(rng, tj)})
    tj = _cycle(12, 40, r, 2)
    m1, m2 = _ae_mix(rng, tj)
    out.append({"kind": "cli_code_check", "twice_j": tj, "m1": m1, "m2": m2})
    return out


def run_cli_inprocess(argv: list[str], stdin: str = "") -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def error_set(j: spin.SpinJ) -> codes.ErrorSet:
    ops = spin.build_spin_operators(j)
    ident = spin.SpinOperator(j, np.eye(j.dim, dtype=complex), "I")
    return codes.ErrorSet([ident, ops.jplus, ops.jminus, ops.jz])


def _code_op(s: dict) -> Op:
    tj = s["twice_j"]
    j = spin.SpinJ(tj)
    kind = s["kind"]

    if kind.startswith("max_error_over_code"):
        q, _ = np.linalg.qr(s["raw"])
        code = codes.CodeSpace(j, [spin.SpinState(j, q[:, i]) for i in range(q.shape[1])])
        g = spin.axis_generator(j, spin.RotationAxis.from_vector(s["axis"]))
        theta = s["theta"]
        u = s["axis"] / np.linalg.norm(s["axis"])

        def run(rec):
            return codes.max_error_over_code(code, g, theta)

        def check(result):
            state, value = result
            want = theta * theta * oracles.max_codeword_variance(q, np.asarray(g.matrix))
            at_state = theta * theta * oracles.axis_variance(state.amplitudes, tj, u)
            return oracles.close(value, want, 1e-8, 1e-15) and oracles.close(at_state, value, 1e-8, 1e-15)

        return Op(kind, "codes", run, check)

    if kind == "code_checks":
        code = codes.ae_codewords(j, s["m1"], s["m2"])
        errors = error_set(j)
        basis = code.basis_matrix()
        proj = basis @ basis.conj().T
        recoveries = codes.RecoverySet(
            [spin.SpinOperator(j, proj, "P"), spin.SpinOperator(j, np.eye(j.dim) - proj, "I-P")]
        )
        psi = spin.SpinState(j, basis @ s["mix"])

        def run(rec):
            return (
                codes.kl_check(code, errors, 1e-9),
                codes.detection_check(code, errors, 1e-9),
                codes.error_with_recovery(psi, errors, recoveries),
            )

        def check(result):
            kl, det, residual = result
            want = oracles.recovery_residual(psi.amplitudes, tj, CHECK_ERRORS, basis)
            return kl.passed and det.passed and oracles.close(residual, want, 1e-9, 1e-9 * _scale(tj))

        return Op(kind, "codes", run, check)

    if kind == "wigner_checks":
        psi = spin.SpinState(j, s["amps"])
        pairs = [(k, q) for k in (1, 2) for q in range(-k, k + 1)]

        def run(rec):
            routes = [(wigner.we_expectation(psi, k, q), wigner.dense_expectation(psi, k, q)) for k, q in pairs]
            return routes, [wigner.reduced_matrix_element(j, k).value for k in (1, 2)]

        def check(result):
            routes, rme = result
            tol = 1e-9 * _scale(tj)
            return all(abs(a - b) <= tol for a, b in routes) and all(
                oracles.close(v, oracles.reduced_element(tj, k), 1e-10) for k, v in zip((1, 2), rme)
            )

        return Op(kind, "wigner", run, check)

    argv = ["ae-code", "--twice-j", str(tj), "--m1", str(s["m1"]), "--m2", str(s["m2"])]

    def run(rec):
        rc1, doc = run_cli_inprocess(argv)
        rc2, report = run_cli_inprocess(["code-check", "--errors", ",".join(CHECK_ERRORS), "--tol", "1e-9"], doc)
        return rc1, rc2, report

    def check(result):
        rc1, rc2, report = result
        parsed = json.loads(report)
        return rc1 == 0 and rc2 == 0 and parsed["kl"]["passed"] and parsed["detection"]["passed"]

    return Op(kind, "cli", run, check)


# --------------------------------------------------------------------------
# crb_monte_carlo

CRB_TRIALS = 100_000
CRB_RUNS = 200
CRB_EXTRA = 3
CRB_ROUNDS = 16


def _crb_specs(rng) -> list[list[dict]]:
    return [_crb_round(rng) for _ in range(CRB_ROUNDS)]


def _crb_round(rng) -> list[dict]:
    # the acceptance configuration first, then small two-branch states about z
    out = [{"twice_j": 4, "twice_m": 4, "theta": 0.05, "seed": 42}]
    for _ in range(CRB_EXTRA):
        twice_j = int(rng.integers(1, 9))
        twice_m = int(rng.choice(np.arange(twice_j, 0, -2)))
        peak = math.pi / (2.0 * twice_m)  # first |dP/dtheta| maximum of cos^2(m theta)
        out.append(
            {
                "twice_j": twice_j,
                "twice_m": twice_m,
                "theta": float(rng.uniform(0.25, 0.75)) * peak,
                "seed": int(rng.integers(0, 2**32)),
            }
        )
    return out


def _crb_op(s: dict) -> Op:
    j = spin.SpinJ(s["twice_j"])
    config = estimation.EstimationConfig(
        psi=_noon_or_branch(s["twice_j"], s["twice_m"]),
        generator=spin.build_spin_operators(j).jz,
        theta_true=s["theta"],
        trials_per_run=CRB_TRIALS,
        runs=CRB_RUNS,
        seed=s["seed"],
    )
    # two-branch states about z have QFI (2m)^2
    crb = 1.0 / math.sqrt(CRB_TRIALS * float(s["twice_m"]) ** 2)

    def run(rec):
        return estimation.crb_report(config)

    def check(result):
        lo, hi = oracles.CRB_RATIO_BAND
        return oracles.close(result.crb_sigma, crb, 1e-9) and lo <= result.ratio <= hi

    return Op(f"crb_report.2j{s['twice_j']}.2m{s['twice_m']}", "estimation", run, check)


# --------------------------------------------------------------------------
# cli_pipeline


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cli_specs(rng) -> list[list[dict]]:
    small = lambda: int(rng.integers(1, 41))  # noqa: E731
    out = []
    tj = 2 * int(rng.integers(3, 21))
    lo, hi = _anticoherent_support(rng, tj)
    out.append(
        {
            "kind": "construct|state-check",
            "stages": [
                ["construct", "--twice-j", str(tj), "--support", f"{lo},{hi}"],
                ["state-check", "--tol", "1e-9"],
            ],
        }
    )
    tj, m1, m2 = _ae_params(rng)
    out.append(
        {
            "kind": "ae-code|code-check",
            "stages": [
                ["ae-code", "--twice-j", str(tj), "--m1", str(m1), "--m2", str(m2)],
                ["code-check", "--errors", ",".join(CHECK_ERRORS), "--tol", "1e-9"],
            ],
        }
    )
    out.append({"kind": "qfi.z", "stages": [["qfi", "--state", "noon", "--twice-j", str(small()), "--axis", "z"]]})
    axis = ",".join(_fmt(c) for c in _unit(rng))
    # "--axis=v": argparse takes a separate "-0.2,..." for an option and exits 1
    out.append({"kind": "qfi.axis", "stages": [["qfi", "--state", "noon", "--twice-j", str(small()), f"--axis={axis}"]]})
    out.append({"kind": "fisher-matrix", "stages": [["fisher-matrix", "--state", "noon", "--twice-j", str(small())]]})
    theta = _fmt(rng.uniform(0.01, 0.1))
    out.append(
        {
            "kind": "error",
            "stages": [["error", "--state", "noon", "--twice-j", str(small()), "--axis", "z", "--theta", theta]],
        }
    )
    tj = int(rng.integers(1, 9))
    theta = _fmt(rng.uniform(0.25, 0.75) * math.pi / (2.0 * tj))
    out.append(
        {
            "kind": "estimate",
            "stages": [
                ["estimate", "--state", "noon", "--twice-j", str(tj), "--axis", "z", "--theta-true", theta,
                 "--trials", "2000", "--runs", "20", "--seed", str(int(rng.integers(0, 2**31)))]
            ],
        }
    )
    n = int(rng.integers(2, 6))
    p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    out.append(
        {
            "kind": "distance",
            "stages": [["distance", "--p", ",".join(_fmt(x) for x in p), "--q", ",".join(_fmt(x) for x in q)]],
        }
    )
    return [out]


def _launch(argv: list[str], rec, index: int, stdin) -> tuple[subprocess.Popen, Path | None]:
    if rec is None:
        return subprocess.Popen([sys.executable, "-m", "spinsense", *argv], cwd=ROOT, stdin=stdin,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE), None
    path = OUT / f"child-{os.getpid()}-{index}.jsonl"
    env = dict(os.environ, PERFBENCH_SPANS=str(path))
    return subprocess.Popen([sys.executable, str(CLI_CHILD), *argv], cwd=ROOT, env=env, stdin=stdin,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE), path


def run_pipeline(stages: list[list[str]], rec) -> list[tuple[int, str]]:
    """Start every stage at once, relay each stdout to the next stdin, wait for all.

    The relay (instead of an OS pipe) lets the oracle see every stage's output.
    """
    procs = [_launch(argv, rec, i, subprocess.PIPE) for i, argv in enumerate(stages)]
    results = []
    data = b""
    try:
        for proc, _ in procs:
            out, err = proc.communicate(data, timeout=SUBPROCESS_TIMEOUT_S)
            if err:
                sys.stderr.write(err.decode(errors="replace"))
            results.append((proc.returncode, out.decode()))
            data = out
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    for _, path in procs:
        if path is not None:
            rec.adopt(spans.read_jsonl(path))
            path.unlink()
    return results


def _cli_expected(kind: str, stages: list[list[str]], outputs: list[str]) -> bool:
    """Parse every stage's stdout and compare it with the same call made in process."""
    argv = [part for arg in stages[0] for part in arg.split("=", 1)]
    opt = dict(zip(argv[1::2], argv[2::2]))
    if kind == "construct|state-check":
        shells = tuple(int(x) for x in opt["--support"].split(","))
        want = sensing.construct_anticoherent(sensing.SupportSpec(spin.SpinJ(int(opt["--twice-j"])), shells))
        got = spin.SpinState.from_json_dict(json.loads(outputs[0]))
        report = json.loads(outputs[1])
        return bool(np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-15) and report["passed"] is True
    if kind == "ae-code|code-check":
        report = json.loads(outputs[1])
        doc = json.loads(outputs[0])
        want = codes.ae_codewords(spin.SpinJ(int(opt["--twice-j"])), int(opt["--m1"]), int(opt["--m2"]))
        return doc == want.to_json_dict() and report["kl"]["passed"] is True and report["detection"]["passed"] is True
    if kind == "distance":
        doc = json.loads(outputs[0])
        p = [float(x) for x in opt["--p"].split(",")]
        q = [float(x) for x in opt["--q"].split(",")]
        bc = min(1.0, sum(math.sqrt(a * b) for a, b in zip(p, q)))
        return oracles.close(doc["bhattacharyya"], bc, 1e-12) and oracles.close(
            doc["omega"], math.acos(bc), 1e-9, 1e-12)
    psi = sensing.noon_state(spin.SpinJ(int(opt["--twice-j"])))
    tj = psi.j.twice_j
    if kind.startswith("qfi"):
        got = float(outputs[0])
        axis = spin.RotationAxis.z() if opt["--axis"] == "z" else spin.RotationAxis.from_vector(
            [float(x) for x in opt["--axis"].split(",")])
        ok = oracles.close(got, sensing.rotation_qfi(psi, axis), 1e-12)
        return ok and (opt["--axis"] != "z" or oracles.close(got, tj * tj, 1e-12))
    doc = json.loads(outputs[0])
    if kind == "fisher-matrix":
        want = sensing.fisher_matrix(psi).matrix
        return bool(np.max(np.abs(np.array(doc["matrix"]) - want)) <= 1e-12 * _scale(tj))
    if kind == "error":
        theta = float(opt["--theta"])
        g = spin.axis_generator(psi.j, spin.RotationAxis.z())
        want = codes.error_of_state(psi, spin.generator_unitary(g, theta))
        return oracles.close(doc["error_of_state"], want, 1e-12, 1e-15) and oracles.close(
            doc["error_of_state"], math.sin(tj / 2.0 * theta) ** 2, 1e-9, 1e-12)
    config = estimation.EstimationConfig(
        psi=psi, generator=spin.build_spin_operators(psi.j).jz, theta_true=float(opt["--theta-true"]),
        trials_per_run=int(opt["--trials"]), runs=int(opt["--runs"]), seed=int(opt["--seed"]))
    want = estimation.crb_report(config).summary_dict()
    return all(oracles.close(doc[k], v, 1e-12) for k, v in want.items())


def _cli_op(s: dict) -> Op:
    first: list[list[str]] = []  # stdout of the first run, for the byte-identity check

    def run(rec):
        return run_pipeline(s["stages"], rec)

    def check(results):
        if any(rc != 0 for rc, _ in results):
            return False
        outputs = [out for _, out in results]
        if not first:
            first.append(outputs)
        return outputs == first[0] and _cli_expected(s["kind"], s["stages"], outputs)

    return Op(s["kind"], "cli", run, check)


# --------------------------------------------------------------------------

_SPECS = {
    "cli_pipeline": _cli_specs,
    "sensor_large_j": _sensor_specs,
    "code_search": _code_specs,
    "crb_monte_carlo": _crb_specs,
}
_BUILD = {
    "cli_pipeline": _cli_op,
    "sensor_large_j": _sensor_op,
    "code_search": _code_op,
    "crb_monte_carlo": _crb_op,
}


def specs(name: str, seed: int) -> list[list[dict]]:
    """The workload's rounds of inputs as plain data, a function of the seed alone."""
    return _SPECS[name](np.random.default_rng(seed))


def build(name: str, seed: int) -> list[list[Op]]:
    """The workload's rounds of ops, inputs built through the public constructors."""
    return [[_BUILD[name](s) for s in round_] for round_ in specs(name, seed)]

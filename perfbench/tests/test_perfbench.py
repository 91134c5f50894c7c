"""Tests of the benchmark itself: seeded inputs, oracles that reject wrong
results, the printed metric names, and the guard against a missing library.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spinsense import sensing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert _same(workloads.specs(name, 7), workloads.specs(name, 7))
    assert not _same(workloads.specs(name, 7), workloads.specs(name, 8))


def test_code_search_sizes_do_not_depend_on_the_seed():
    def sizes(seed):
        return [[(s["kind"], s["twice_j"]) for s in round_] for round_ in workloads.specs("code_search", seed)]

    assert sizes(7) == sizes(8)


def test_loop_runs_the_whole_rounds_closest_to_the_deadline():
    def op(seconds):
        return workloads.Op("sleep", "codes", lambda rec: time.sleep(seconds), lambda out: True)

    res = run.run_loop([[op(0.03)]], None, seconds=0.2)
    assert res.rounds > 1 and res.attempted == res.rounds and res.failed == 0
    assert abs(res.wall_s - 0.2) <= 0.5 * res.wall_s / res.rounds + 0.01
    assert run.run_loop([[op(0.05)]], None, seconds=0.01).rounds == 1


def _small_sensor_ops():
    specs = [s for s in workloads.specs("sensor_large_j", 3)[0] if s["twice_j"] <= 100]
    return [workloads._sensor_op(s) for s in specs]


def _reject(op, wrong) -> None:
    assert op.check(op.run(None)), op.kind
    assert not op.check(wrong), op.kind


def test_sensor_oracles_reject_wrong_results():
    for op in _small_sensor_ops():
        good = op.run(None)
        kind = op.kind.split(".")[0]
        if kind == "fisher_matrix":
            wrong = sensing.FisherMatrix(good.matrix + 1e-3 * np.eye(3))
        elif kind == "rotation_qfi":
            wrong = good * (1.0 + 1e-6)
        elif kind == "anticoherence_report":
            wrong = dataclasses.replace(good, max_matrix_deviation=good.max_matrix_deviation + 1e-3)
        elif kind == "qfi":
            wrong = (good[0], good[1] * (1.0 + 1e-4))
        else:
            wrong = good * 1.01 + 1e-9
        _reject(op, wrong)


def test_code_search_oracles_reject_wrong_results():
    for op in workloads.build("code_search", 3)[0]:
        good = op.run(None)
        if op.kind.startswith("max_error_over_code"):
            wrong = (good[0], good[1] * (1.0 - 1e-6))  # a missed global maximum
        elif op.kind == "code_checks":
            wrong = (good[0], dataclasses.replace(good[1], passed=False), good[2])
            _reject(op, (good[0], good[1], good[2] + 1e-3))
        elif op.kind == "wigner_checks":
            routes, rme = good
            wrong = ([(a, b + 1e-6) for a, b in routes], rme)
            _reject(op, (routes, [rme[0], rme[1] * (1.0 + 1e-8)]))
        else:
            rc1, rc2, report = good
            wrong = (rc1, rc2, report.replace('"passed":true', '"passed":false'))
            _reject(op, (rc1, 2, report))
        _reject(op, wrong)


def test_crb_oracle_rejects_wrong_results():
    op = workloads.build("crb_monte_carlo", 3)[0][1]
    good = op.run(None)
    lo, hi = oracles.CRB_RATIO_BAND
    _reject(op, dataclasses.replace(good, ratio=hi + 0.01))
    _reject(op, dataclasses.replace(good, ratio=lo - 0.01))
    _reject(op, dataclasses.replace(good, crb_sigma=good.crb_sigma * 1.001))


def _inprocess_pipeline(stages):
    out, data = [], ""
    for argv in stages:
        rc, data = workloads.run_cli_inprocess(argv, data)
        out.append((rc, data))
    return out


def _perturb_number(text: str) -> str:
    """Change the first digit after the first decimal point."""
    i = text.index(".") + 1
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


def test_cli_oracles_reject_wrong_results():
    for spec in workloads.specs("cli_pipeline", 3)[0]:
        op = workloads._cli_op(spec)
        good = _inprocess_pipeline(spec["stages"])
        assert op.check(good), op.kind
        last_rc, last_out = good[-1]
        assert not op.check(good[:-1] + [(2, last_out)]), op.kind
        if op.kind.endswith("check"):  # a pipeline: the verdict is the oracle
            wrong = last_out.replace("true", "false")
        else:
            wrong = _perturb_number(last_out)
        assert not op.check(good[:-1] + [(last_rc, wrong)]), op.kind


def test_cli_oracle_requires_identical_bytes_on_repeat():
    spec = workloads.specs("cli_pipeline", 3)[0][2]  # qfi about z
    op = workloads._cli_op(spec)
    good = _inprocess_pipeline(spec["stages"])
    assert op.check(good)
    rc, out = good[0]
    assert float(out.strip() + "0") == float(out)  # same number, different bytes
    assert not op.check([(rc, out.strip() + "0\n")])


def test_reference_worst_codeword_variance_matches_brute_force():
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    g = g + g.conj().T
    best = 0.0
    for t in np.linspace(0, np.pi, 181):
        for ph in np.linspace(0, 2 * np.pi, 361):
            c = basis @ np.array([np.cos(t / 2), np.sin(t / 2) * np.exp(1j * ph)])
            gc = g @ c
            best = max(best, np.vdot(gc, gc).real - np.vdot(c, gc).real ** 2)
    dual = oracles.max_codeword_variance(basis, g)
    assert best <= dual * (1 + 1e-12)
    assert dual <= best * (1 + 1e-3)


def test_self_time_subtracts_the_union_of_children():
    recs = [
        {"id": 0, "parent": None, "start": 0, "end": 100},
        {"id": 1, "parent": 0, "start": 10, "end": 50},
        {"id": 2, "parent": 0, "start": 30, "end": 70},  # overlaps its sibling
        {"id": 3, "parent": 2, "start": 40, "end": 45},
    ]
    assert spans.self_times(recs) == {0: 40, 1: 40, 2: 35, 3: 5}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def test_printed_metric_names_equal_the_declared_ones():
    declared_e2e = {m["name"] for m in DECLARED["end_to_end"]}
    declared_layer = {m["name"] for m in DECLARED["per_layer"]}
    for trace, declared in (("0", declared_e2e), ("1", declared_layer)):
        proc = _run(["--workload", "code_search", "--seed", "1", "--seconds", "0.1", "--trace", trace])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == declared
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "crb_monte_carlo", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

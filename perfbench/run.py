#!/usr/bin/env python3
"""spinsense benchmark: one closed-loop workload per run, checked against oracles.

    python3 perfbench/run.py --workload sensor_large_j --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics (see README.md).  The line
before it records the environment and run details, and both are also written
to ``.perfbench-out/``.  BLAS and OpenMP threads are pinned to 1 in this
process's environment and in every child's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("cli_pipeline", "sensor_large_j", "code_search", "crb_monte_carlo")
THREAD_PINS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 3  # this process plus two fresh ones
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".failed")):
        return "count"
    if name.endswith(".share"):
        return "ratio"
    if "_ms" in name:
        return "ms"
    if name.endswith("_us"):
        return "us"
    return "s"


@dataclass
class LoopResult:
    slot_ms: dict[int, list[float]] = field(default_factory=dict)  # op index in its round -> latencies
    attempted: int = 0
    failed_by_layer: Counter = field(default_factory=Counter)
    wall_s: float = 0.0
    rounds: int = 0

    @property
    def failed(self) -> int:
        return sum(self.failed_by_layer.values())


def run_loop(rounds, rec, seconds: float | None = None, count: int | None = None) -> LoopResult:
    """Run rounds of ops in order, wrapping around, for ``count`` rounds or
    for the whole number of rounds that ends closest to ``seconds``: at the
    mean round time so far, a round starts only if it would end less than
    half a round past ``seconds`` (the first always starts).  Latency covers
    ``op.run`` only."""
    res = LoopResult()
    start = time.perf_counter()

    def more() -> bool:
        if count is not None:
            return res.rounds < count
        return res.rounds == 0 or (time.perf_counter() - start) * (res.rounds + 0.5) / res.rounds <= seconds

    while more():
        for i, op in enumerate(rounds[res.rounds % len(rounds)]):
            res.attempted += 1
            if rec is not None:
                rec.op = f"{res.rounds}:{i}"
            try:
                with spans.span(rec, "op." + op.kind, None):
                    t0 = time.perf_counter_ns()
                    out = op.run(rec)
                    dt = time.perf_counter_ns() - t0
                with spans.paused(rec):
                    ok = bool(op.check(out))
            except Exception:  # an op that raises is a failed op; the loop goes on
                traceback.print_exc()
                ok = False
            if ok:
                res.slot_ms.setdefault(i, []).append(dt / 1e6)
            else:
                print(f"perfbench: op {op.kind} failed its check", file=sys.stderr)
                res.failed_by_layer[op.layer] += 1
        res.rounds += 1
    res.wall_s = time.perf_counter() - start
    return res


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinsense").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def fresh_setups(workload: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_workload(args) -> int:
    rec = None
    t0 = time.perf_counter()
    if args.trace:
        rec = spans.Recorder("setup")
        with rec.span("import spinsense", "import"):
            import spinsense
    else:
        import spinsense
    if SRC not in Path(spinsense.__file__).resolve().parents:
        print(f"perfbench: imported spinsense from {spinsense.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    with spans.instrument(rec):
        rounds = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT.mkdir(exist_ok=True)
    details = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "ops_per_round": len(rounds[0])}
    if not args.trace:
        res = run_loop(rounds, None, seconds=args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_pipeline" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setups = [setup_s] + fresh_setups(args.workload, args.seed)
        tail_p = workloads.TAIL_PERCENTILE[args.workload]
        # Each op of the round is timed once per round; its mean over the run
        # averages the machine's slow and fast spells the way ops_per_s does,
        # where a percentile of single latencies would jump between them.
        slot_means = [statistics.fmean(v) for v in res.slot_ms.values()] or [float("nan")]
        tail = percentile(slot_means, tail_p)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": (res.attempted - res.failed) / res.wall_s,
            "op_p50_ms": percentile(slot_means, 50.0),
            "op_tail_ms": tail,
            "peak_rss_mb": peak_rss_mb,
        }
        details.update(
            rounds=res.rounds,
            wall_s=res.wall_s,
            completed=res.attempted - res.failed,
            error_rate=res.failed / res.attempted,
            tail_percentile=tail_p,
            samples_beyond_tail=sum(len(v) for v in res.slot_ms.values() if statistics.fmean(v) > tail),
            setup_samples_s=setups,
        )
        units = END_TO_END_UNITS
        attempted, failed = res.attempted, res.failed
    else:
        import probe

        base = run_loop(rounds, None, seconds=args.seconds / 2.0)
        with spans.instrument(rec):
            traced = run_loop(rounds, rec, count=base.rounds)
        values = spans.layer_stats(
            [s for s in rec.spans if not s["op"].startswith("probe")],
            setup_s + traced.wall_s,
            traced.failed_by_layer,
        )
        with spans.instrument(rec):
            values.update(probe.run(rec))
        values["trace.overhead_s"] = traced.wall_s - base.wall_s
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_jsonl(rec.spans, span_file)
        details.update(rounds=base.rounds, untraced_wall_s=base.wall_s, traced_wall_s=traced.wall_s,
                       setup_s=setup_s, spans=len(rec.spans), span_file=str(span_file.relative_to(ROOT)))
        units = {name: per_layer_unit(name) for name in values}
        attempted, failed = base.attempted + traced.attempted, base.failed + traced.failed

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    context = {"environment": environment(args.seed), "details": details}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**context, "result": result}, indent=1) + "\n"
    )
    if not args.trace:
        for name, m in result["metrics"].items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        print(f"{args.workload} error_rate = {details['error_rate']:.6g} ({failed}/{attempted})")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "spinsense" / "__init__.py").is_file():
        print(f"perfbench: no spinsense sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    # the pin must be in place before numpy loads, here and in every child
    os.environ.update({k: "1" for k in THREAD_PINS})
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

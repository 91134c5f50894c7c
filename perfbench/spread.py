#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median), against
the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workloads sensor_large_j --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

Runs are sequential, each in a fresh process, with ``run_seconds`` from
BENCHMARK.json unless ``--seconds`` overrides it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), **json.loads(lines[-2])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds) for seed in report["seeds"]]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs]) for name in bounds}
        report["workloads"][workload] = {
            "metrics": summary,
            "failed": failed,
            "attempted": attempted,
            "rounds": [r["details"]["rounds"] for r in runs],
            "samples_beyond_tail": [r["details"]["samples_beyond_tail"] for r in runs],
            "environment": runs[0]["environment"],
        }
        print(f"{workload}: {failed}/{attempted} failed, rounds {report['workloads'][workload]['rounds']}, "
              f"beyond tail {report['workloads'][workload]['samples_beyond_tail']}")
        for name, s in summary.items():
            # setup_s is gated on its median only; the others also on their spread
            ok = name == "setup_s" or s["spread"] < bounds[name] / 3.0
            status |= 0 if ok and failed == 0 else 1
            print(f"  {name:12s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}  {'ok' if ok else 'WIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

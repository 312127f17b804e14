#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workload tree-count ...] [--first-seed 1]

Runs ``run.py`` once per seed and workload, one process after another, and
prints for each metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread: the distance between the quartiles as a share of
the median, which is what each bound in BENCHMARK.json is checked against.
The runs' results are kept in ``.perfbench/spread.json``.
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


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        results[workload] = runs
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:12s} {metric:14s} median {median:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {(q3 - q1) / median:6.3f}  bound {bound}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload:12s} failed share {sorted(shares)}; correct "
              f"{all(r['correct'] for r in runs)}", flush=True)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "spread.json").write_text(json.dumps(results, indent=1) + "\n",
                                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

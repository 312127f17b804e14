#!/usr/bin/env python3
"""taru's benchmark: one workload per process, one thread.

    python3 perfbench/run.py --workload tree-count --seed 1 --seconds 30 --trace 0

Run from a checkout: the program is imported from the checkout's own
``src/taru``.  The process warms up with one untimed repetition, then runs
timed repetitions until the next one would end past ``--seconds``.  The last
line of stdout is the result object; a line before it gives the behaviour
digest.  With ``--trace 1`` the repetitions that the digest covers run under
the per-layer tracer instead, and the result carries per-layer metrics.
Details go to ``.perfbench/`` in the checkout.  See README.md.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description="taru benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    return args


def import_taru():
    if not (SRC / "taru" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'taru'} is missing")
    sys.path.insert(0, str(SRC))
    import taru
    import taru.cli

    if Path(taru.__file__).resolve().parent != SRC / "taru":
        sys.exit(f"perfbench: imported taru from {taru.__file__}, not from {SRC}")
    return taru


class Digest:
    """sha256 over the recorded values until frozen."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.values = 0
        self.frozen = False

    def record(self, value: str) -> None:
        if not self.frozen:
            self.hash.update(value.encode("utf-8") + b"\n")
            self.values += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    taru = import_taru()
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    digest = Digest()
    workload = WORKLOADS[args.workload](taru, digest.record, workdir)
    # Seeds of one run: the warm-up takes base, timed repetition k takes
    # base + 1 + k, so the warm-up seed is never a timed one.
    base = args.seed * 1000
    started = perf_counter()
    warmup = workload.rep(base)
    warmup.seconds = perf_counter() - started
    setup_s = perf_counter() - STARTED

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(taru)
    reps = []
    timed_started = perf_counter()
    try:
        while True:
            # Each repetition starts from a collected heap: the last one's
            # engines hold reference cycles.
            gc.collect()
            started = perf_counter()
            rep = workload.rep(base + 1 + len(reps))
            rep.seconds = perf_counter() - started
            reps.append(rep)
            if len(reps) == workload.trace_reps:
                digest.frozen = True
                if tracer is not None:
                    break
            if len(reps) >= workload.trace_reps:
                typical = statistics.median(r.seconds for r in reps)
                if perf_counter() - timed_started + typical > args.seconds:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = warmup.problems + [p for r in reps for p in r.problems]
    problems += workload.final_problems(reps)
    errors = warmup.errors + [e for r in reps for e in r.errors]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if tracer is not None:
        metrics = tracer.metrics(len(reps))
    else:
        metrics = {}
        for name in ("count_s", "results_per_s"):
            values = [r.samples[name] for r in reps if name in r.samples]
            if values:
                unit = "s" if name == "count_s" else "1/s"
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MiB"}

    stem = f"{args.workload}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "warmup_seconds": warmup.seconds, "setup_s": setup_s,
        "digest": digest.hash.hexdigest(), "digest_values": digest.values,
        "repetitions": [{"seed": base + 1 + k, "seconds": r.seconds, "samples": r.samples,
                         "attempted": r.attempted, "failed": r.failed}
                        for k, r in enumerate(reps)],
        "problems": problems, "errors": errors, "metrics": metrics,
    }
    if tracer is not None:
        tracer.write_spans(workdir / f"{stem}-spans.jsonl")
        detail["stats"] = {name: vars(st) for name, st in sorted(tracer.stats.items())}
    (workdir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    for p in problems[:20]:
        print(f"perfbench: wrong output: {p}", file=sys.stderr)
    for e in errors[:20]:
        print(f"perfbench: failed: {e}", file=sys.stderr)
    print(f"digest {digest.hash.hexdigest()} ({digest.values} values, warm-up and "
          f"first {workload.trace_reps} repetitions)")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # Fixed string hashing, so set iteration order and with it every traced
    # call count repeats exactly from run to run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())

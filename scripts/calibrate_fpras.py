#!/usr/bin/env python3
"""Measure coverage and runtime of the slice estimator on the desk fixtures.

Used to pick the practical-profile constants: for each (automaton, n) with a
small exact count, runs the estimator over many seeds and reports how many
estimates land within (1 +- eps) of the truth, plus timing.  The acceptance
suite then pins the same fixtures with the chosen defaults.
"""

from __future__ import annotations

import argparse
import sys
import time

from taru.automata import TreeAutomaton
from taru.config import Config
from taru.engine import fpras_bta
from taru.oracles import exact_slice_count


def fixtures():
    catalan = TreeAutomaton(
        {"r"}, {"a"}, [("r", "a", ("r", "r")), ("r", "a", ())], "r"
    )
    fig3 = TreeAutomaton(
        {"s", "q", "r"},
        {"a"},
        [
            ("s", "a", ("q", "q")),
            ("s", "a", ("s", "r")),
            ("s", "a", ("r", "s")),
            ("q", "a", ("r", "r")),
            ("r", "a", ("r", "r")),
            ("r", "a", ()),
        ],
        "s",
    )
    root_witness = TreeAutomaton(
        {"s", "q", "r"},
        {"a"},
        [
            ("s", "a", ("q", "q")),
            ("q", "a", ("r", "r")),
            ("r", "a", ("r", "r")),
            ("r", "a", ()),
        ],
        "s",
    )
    mixed = TreeAutomaton(
        {"u", "p", "l", "r"},
        {"a"},
        [
            ("u", "a", ("p", "r")),
            ("u", "a", ("r", "p")),
            ("p", "a", ("l", "r")),
            ("l", "a", ()),
            ("r", "a", ("r", "r")),
            ("r", "a", ()),
        ],
        "u",
    )
    return [
        ("catalan", catalan, [5, 7, 9, 11]),
        ("fig3", fig3, [5, 7, 9, 11, 13]),
        ("root-witness", root_witness, [7, 9, 11, 13]),
        ("mixed", mixed, [5, 7, 9, 11, 13]),
    ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=200)
    ap.add_argument("--epsilon", type=float, default=0.2)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--max-count", type=int, default=50)
    ap.add_argument("--c-sketch", type=int, default=64)
    ap.add_argument("--c-trials", type=int, default=16)
    ap.add_argument("--c-rho", type=int, default=16)
    args = ap.parse_args()

    grand_ok = True
    for name, automaton, sizes in fixtures():
        for n in sizes:
            truth = exact_slice_count(automaton, n, budget=None)
            if truth == 0 or truth > args.max_count:
                print(f"{name:14s} n={n:2d} truth={truth:4d}  (outside [1, {args.max_count}], skipped)")
                continue
            t0 = time.time()
            hits = 0
            worst = 0.0
            for seed in range(args.runs):
                cfg = Config(
                    epsilon=args.epsilon,
                    delta=args.delta,
                    seed=seed,
                    c_sketch=args.c_sketch,
                    c_trials=args.c_trials,
                    c_rho=args.c_rho,
                )
                est = fpras_bta(automaton, n, cfg).estimate
                rel = abs(est / truth - 1.0)
                worst = max(worst, rel)
                if rel <= args.epsilon:
                    hits += 1
            dt = time.time() - t0
            rate = hits / args.runs
            ok = rate >= 0.9
            grand_ok = grand_ok and ok
            print(
                f"{name:14s} n={n:2d} truth={truth:4d}  in-band {hits}/{args.runs} "
                f"({rate:4.0%})  worst-rel {worst:5.3f}  "
                f"{dt:6.1f}s total  {dt / args.runs * 1000:6.1f} ms/run"
                f"  {'ok' if ok else 'LOW'}"
            )
    print("overall:", "ok" if grand_ok else "BELOW TARGET")
    return 0 if grand_ok else 1


if __name__ == "__main__":
    sys.exit(main())

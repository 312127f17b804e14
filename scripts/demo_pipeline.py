#!/usr/bin/env python3
"""End-to-end tour: counts and samples for each supported input kind.

Runs everything in-process with a fixed seed and prints estimator results
next to the exact oracle answers.
"""

from __future__ import annotations

from taru.applications import (
    DnnfCircuit,
    Ecsp,
    Gate,
    NestedWord,
    NestedWordAutomaton,
    brute_ecsp_count,
    brute_nwa_count,
    count_dnnf,
    count_ecsp,
    count_nwa,
    truth_table_count,
)
from taru.automata import TreeAutomaton
from taru.config import Config
from taru.cq import (
    Atom,
    ConjunctiveQuery,
    Database,
    Var,
    brute_cq_count,
    sample_cq,
)
from taru.engine import LanguageSampler, fpras_bta
from taru.oracles import brute_slice
from taru.trees import Tree, leaf


def main():
    config = Config(seed=0)

    print("== tree automaton: trees with a doubly-internal node ==")
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
    for n in (7, 9, 11):
        exact = len(brute_slice(fig3, n))
        est = fpras_bta(fig3, n, config).estimate
        print(f"  n={n}: exact {exact}, estimate {est:.3f}")
    handle = LanguageSampler(fig3, 9, config)
    draws = [handle.draw() for _ in range(6)]
    print("  samples:", ", ".join(t.text() for t in draws if hasattr(t, "text")))

    print("== conjunctive query ==")
    q1 = ConjunctiveQuery(
        "Q1",
        ("x",),
        (
            Atom("G", (Var("x"),)),
            Atom("E", (Var("x"), Var("y"))),
            Atom("E", (Var("x"), Var("z"))),
            Atom("C", (Var("y"),)),
            Atom("M", (Var("z"),)),
        ),
    )
    d1 = Database(
        {
            "G": {("a",), ("b",)},
            "E": {("a", "c1"), ("b", "c1"), ("b", "c2"), ("b", "c3")},
            "C": {("c1",), ("c2",)},
            "M": {("c3",)},
        }
    )
    # One handle: the reduction's engine is built once, then both counts
    # and samples.
    handle = sample_cq(q1, d1, None, config)
    print("  exact:", brute_cq_count(q1, d1)[0],
          " estimate:", f"{handle.count().estimate:.3f}")
    print("  sample answers:", [handle.draw() for _ in range(3)])

    print("== existential CSP ==")
    e = Ecsp(
        ("x", "y"), ("x", "y", "z"), ("0", "1"),
        (
            (("x", "z"), frozenset({("0", "1"), ("1", "1")})),
            (("y",), frozenset({("0",), ("1",)})),
        ),
    )
    print("  exact:", brute_ecsp_count(e),
          " estimate:", f"{count_ecsp(e, None, config).estimate:.3f}")

    print("== structured DNNF ==")
    circuit = DnnfCircuit(
        [
            Gate("x", "lit", var="x"),
            Gate("y", "lit", var="y"),
            Gate("nx", "lit", var="x", positive=False),
            Gate("z", "lit", var="z"),
            Gate("g1", "and", inputs=("x", "y")),
            Gate("g2", "and", inputs=("nx", "z")),
            Gate("g0", "or", inputs=("g1", "g2")),
        ],
        "g0",
    )
    vtree = Tree(".", (Tree(".", (leaf("x"), leaf("y"))), leaf("z")))
    print("  exact:", truth_table_count(circuit),
          " estimate:", f"{count_dnnf(circuit, vtree, config).estimate:.3f}")

    print("== nested word automaton ==")
    nwa = NestedWordAutomaton(
        frozenset({"q0", "q1"}),
        frozenset({"a", "b"}),
        frozenset({"q0"}),
        frozenset({"q1"}),
        frozenset({"h"}),
        call_transitions=(("q0", "a", "q0", "h"),),
        internal_transitions=(("q0", "b", "q0"),),
        return_transitions=(("q0", "h", "a", "q1"),),
    )
    for n in (2, 4, 6):
        exact = brute_nwa_count(nwa, n)
        est = count_nwa(nwa, n, config).estimate
        print(f"  n={n}: exact {exact}, estimate {est:.3f}")


if __name__ == "__main__":
    main()

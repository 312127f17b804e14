import random

import pytest

from taru.oracles import (
    BudgetExceeded,
    DeterminismError,
    brute_completions,
    brute_nfa_count,
    brute_slice,
    candidate_tree_count,
    check_bottom_up_deterministic,
    dp_count_bottom_up_deterministic,
)
from taru.snfa import ExplicitLabel, SuccinctNFA
from taru.trees import hole, parse_tree, Tree

from genutil import random_deterministic_automaton


def test_brute_slice_catalan(catalan):
    assert len(brute_slice(catalan, 5)) == 2
    assert len(brute_slice(catalan, 4)) == 0
    assert len(brute_slice(catalan, 11)) == 42


def test_brute_slice_contains_fig3_witness(fig3, fig3_t2):
    trees = brute_slice(fig3, 13).trees
    assert fig3_t2 in set(trees)


def test_brute_slice_is_sorted_and_duplicate_free(fig3):
    trees = brute_slice(fig3, 9).trees
    assert len(set(trees)) == len(trees)
    assert list(trees) == sorted(trees, key=lambda t: t.text())


def test_brute_slice_budget_refusal(catalan):
    with pytest.raises(BudgetExceeded):
        brute_slice(catalan, 21, budget=10)
    assert candidate_tree_count(catalan, 5) == 2


def test_dp_count_deterministic_catalan(catalan):
    assert dp_count_bottom_up_deterministic(catalan, 11) == 42
    assert dp_count_bottom_up_deterministic(catalan, 1) == 1


def test_dp_count_empty_automaton():
    from taru.automata import TreeAutomaton

    empty = TreeAutomaton({"s"}, {"a"}, [], "s")
    assert dp_count_bottom_up_deterministic(empty, 1) == 0


def test_dp_rejects_nondeterministic(mixed):
    # (u,a,(p,r)) and (u,a,(r,p)) are fine; duplicate child pairs are not.
    from taru.automata import TreeAutomaton

    bad = TreeAutomaton(
        {"s", "t"}, {"a"},
        [("s", "a", ()), ("t", "a", ())],
        "s",
    )
    with pytest.raises(DeterminismError) as err:
        check_bottom_up_deterministic(bad)
    assert "s" in str(err.value) and "t" in str(err.value)


def test_dp_matches_brute_on_random_deterministic():
    rng = random.Random(3)
    agreements = 0
    for trial in range(200):
        aut = random_deterministic_automaton(rng)
        n = rng.choice([1, 3, 5, 7, 9])
        assert dp_count_bottom_up_deterministic(aut, n) == len(
            brute_slice(aut, n, budget=None)
        )
        agreements += 1
    assert agreements == 200


def test_dp_unambiguous_chain():
    from taru.automata import TreeAutomaton

    chain = TreeAutomaton(
        {"s"}, {"a", "b"},
        [("s", "a", ("s", "s")), ("s", "b", ())],
        "s",
    )
    # One tree per odd size is wrong here (many trees); use a truly linear one:
    lin = TreeAutomaton(
        {"s", "l"}, {"a", "b"},
        [("s", "a", ("l", "s")), ("s", "b", ()), ("l", "b", ())],
        "s",
    )
    for n in (1, 3, 5, 7):
        assert len(brute_slice(lin, n, budget=None)) == 1


def test_brute_nfa_count_chain():
    labels = {
        "A": ExplicitLabel("A", ("a", "b")),
        "B": ExplicitLabel("B", ("b", "c")),
    }
    nfa = SuccinctNFA(
        ["x0", "x1", "x2"],
        [("x0", "A", "x1"), ("x1", "B", "x2")],
        "x0", "x2", labels,
    )
    assert brute_nfa_count(nfa, 2) == 4


def test_brute_nfa_count_unreachable_final():
    labels = {"A": ExplicitLabel("A", ("a",))}
    nfa = SuccinctNFA(["x0", "x1", "x2"], [("x0", "A", "x1")], "x0", "x2", labels)
    assert brute_nfa_count(nfa, 2) == 0


def test_brute_nfa_count_dedupes_overlapping_paths():
    labels = {
        "A": ExplicitLabel("A", ("a", "b")),
        "B": ExplicitLabel("B", ("b", "c")),
        "C": ExplicitLabel("C", ("c",)),
    }
    nfa = SuccinctNFA(
        ["s", "m1", "m2", "f"],
        [("s", "A", "m1"), ("s", "B", "m2"), ("m1", "C", "f"), ("m2", "C", "f")],
        "s", "f", labels,
    )
    # words: {a,b}c union {b,c}c -> {ac, bc, cc}
    assert brute_nfa_count(nfa, 2) == 3


def test_brute_nfa_budget():
    labels = {"A": ExplicitLabel("A", tuple("abcdefgh"))}
    nfa = SuccinctNFA(
        ["x0", "x1", "x2"],
        [("x0", "A", "x1"), ("x1", "A", "x2")],
        "x0", "x2", labels,
    )
    with pytest.raises(BudgetExceeded):
        brute_nfa_count(nfa, 2, budget=10)


def test_brute_completions_simple(catalan):
    partial = Tree("a", (hole(3), hole(1)))
    done = brute_completions(catalan, partial, "r", 5)
    assert len(done) == 1
    assert done[0] == parse_tree("a(a(a,a),a)")
    nothing = brute_completions(catalan, Tree("a", (hole(2), hole(2))), "r", 5)
    assert nothing == []


def test_brute_completions_complete_input(catalan):
    t = parse_tree("a(a,a)")
    assert brute_completions(catalan, t, "r", 3) == [t]

import math
import random

import pytest

from taru.oracles import (
    BudgetExceeded,
    brute_completions,
    brute_nfa_count,
    brute_slice,
    candidate_tree_count,
    exact_slice_count,
)
from taru.snfa import ExplicitLabel, SuccinctNFA
from taru.trees import hole, parse_tree, Tree

from genutil import (
    depth_b_automaton,
    random_binary_automaton,
    random_deterministic_automaton,
    random_kary_automaton,
)


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
    assert exact_slice_count(catalan, 11) == 42
    assert exact_slice_count(catalan, 1) == 1


def test_dp_count_empty_automaton():
    from taru.automata import TreeAutomaton

    empty = TreeAutomaton({"s"}, {"a"}, [], "s")
    assert exact_slice_count(empty, 1) == 0


def test_dp_matches_brute_on_random_deterministic():
    rng = random.Random(3)
    agreements = 0
    for trial in range(200):
        aut = random_deterministic_automaton(rng)
        n = rng.choice([1, 3, 5, 7, 9])
        assert exact_slice_count(aut, n) == len(
            brute_slice(aut, n, budget=None)
        )
        agreements += 1
    assert agreements == 200


@pytest.mark.parametrize("name", ["fig3", "mixed", "root_witness", "catalan"])
def test_exact_count_matches_brute_on_fixtures(request, name):
    automaton = request.getfixturevalue(name)
    for n in range(1, 16):
        assert exact_slice_count(automaton, n) == len(brute_slice(automaton, n, budget=None))


def test_exact_count_matches_brute_on_random_nondeterministic():
    rng = random.Random(5)
    for _ in range(200):
        aut = random_binary_automaton(rng)
        n = rng.choice([1, 3, 5, 7, 9, 11])
        assert exact_slice_count(aut, n) == len(brute_slice(aut, n, budget=None))
    rng = random.Random(7)
    for _ in range(100):
        aut = random_kary_automaton(rng, 3)
        n = rng.randint(1, 7)
        assert exact_slice_count(aut, n) == len(brute_slice(aut, n, budget=None))


def test_exact_count_closed_form_fig3(fig3):
    """fig3 accepts every tree but the 2^(m-1) caterpillars among the
    Catalan(m) trees with m internal nodes; n = 29 is out of brute reach."""
    assert exact_slice_count(fig3, 29) == math.comb(28, 14) // 15 - 2**13


def test_exact_count_depth_b():
    """depth-b(6) carries up to 2^7 derive-state sets per size."""
    aut = depth_b_automaton(6)
    assert exact_slice_count(aut, 13) == len(brute_slice(aut, 13, budget=None)) == 196_608
    assert exact_slice_count(aut, 21) == 25_525_420_032


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

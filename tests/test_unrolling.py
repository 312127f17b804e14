from taru.oracles import brute_slice
from taru.unrolling import UnrolledAutomaton

from genutil import as_tree_automaton, nonempty_levels, transitions_at, with_initial


def test_level_one_only_leaf_transitions(catalan):
    u = UnrolledAutomaton(catalan, 1)
    assert u.leaf_count("r") == 1
    assert list(transitions_at(u, "r", 1)) == []
    materialized = as_tree_automaton(u)
    assert all(
        len(t.children) == 0 for t in materialized.transitions
        if t.src.endswith("@1")
    )


def test_unrolled_slices_match_base(fig3):
    u = UnrolledAutomaton(fig3, 5)
    leveled = as_tree_automaton(u)
    want = set(brute_slice(fig3, 5, budget=None).trees)
    got = set(brute_slice(leveled, 5, budget=None).trees)
    assert want == got
    for state in fig3.states:
        for level in (1, 3, 5):
            base_level = set(brute_slice(with_initial(fig3, state), level, budget=None).trees)
            leveled_state = with_initial(leveled, f"{state}@{level}")
            assert set(brute_slice(leveled_state, level, budget=None).trees) == base_level


def test_transition_count_bound(fig3):
    n = 9
    u = UnrolledAutomaton(fig3, n)
    total = sum(
        len(list(transitions_at(u, s, i)))
        for s in fig3.states
        for i in range(2, n + 1)
    )
    binary = sum(1 for t in fig3.transitions if t.children)
    assert total <= n * n * binary


def test_nonempty_levels(catalan, fig3):
    table = nonempty_levels(UnrolledAutomaton(catalan, 7))
    assert table[("r", 1)] and table[("r", 7)]
    assert not table[("r", 2)]
    table3 = nonempty_levels(UnrolledAutomaton(fig3, 7))
    assert table3[("s", 7)] and not table3[("s", 5)]
    assert not table3[("q", 1)]
    for (state, level), alive in table3.items():
        truth = len(brute_slice(with_initial(fig3, state), level, budget=None)) > 0
        assert alive == truth


def test_member(catalan):
    from taru.trees import parse_tree

    u = UnrolledAutomaton(catalan, 5)
    t = parse_tree("a(a,a)")
    assert u.member(t, "r", 3)
    assert not u.member(t, "r", 5)

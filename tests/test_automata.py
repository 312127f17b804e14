import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from taru.automata import (
    AutomatonError,
    TreeAutomaton,
    UndeclaredSymbolError,
    decode_tree,
    encode_binary,
    encode_tree,
    merge_initial_states,
)
from taru.oracles import brute_slice
from taru.trees import Tree, leaf, parse_tree

from genutil import accepting_run, count_runs, random_kary_automaton, random_ktree


def exhaustive_accepts(automaton: TreeAutomaton, tree: Tree) -> bool:
    """Reference membership: try every assignment of states to nodes."""
    nodes = list(tree.nodes())
    states = sorted(automaton.states)
    trans = set(
        (t.src, t.symbol, t.children) for t in automaton.transitions
    )
    for assignment in product(states, repeat=len(nodes)):
        rho = {addr: s for (addr, _), s in zip(nodes, assignment)}
        if rho[()] != automaton.initial:
            continue
        ok = True
        for addr, node in nodes:
            kids = tuple(rho[addr + (i + 1,)] for i in range(len(node.children)))
            if (rho[addr], node.label, kids) not in trans:
                ok = False
                break
        if ok:
            return True
    return False


def test_fig3_paper_examples(fig3, fig3_t1, fig3_t2):
    assert fig3_t1.size == 9
    assert fig3_t2.size == 13
    assert fig3.accepts(fig3_t1) is False
    assert fig3.accepts(fig3_t2) is True
    assert accepting_run(fig3, fig3_t1) is None
    run = accepting_run(fig3, fig3_t2)
    assert run[()] == "s"
    # Every node in the run satisfies some transition.
    trans = {(t.src, t.symbol, t.children) for t in fig3.transitions}
    for addr, node in fig3_t2.nodes():
        kids = tuple(run[addr + (i + 1,)] for i in range(len(node.children)))
        assert (run[addr], node.label, kids) in trans


def test_single_leaf_language():
    a = TreeAutomaton({"s"}, {"a"}, [("s", "a", ())], "s")
    assert a.accepts(leaf("a"))
    assert not a.accepts(parse_tree("a(a,a)"))


def test_undeclared_symbol_is_an_error(catalan):
    with pytest.raises(UndeclaredSymbolError):
        catalan.accepts(leaf("z"))


def test_accepts_agrees_with_exhaustive_runs():
    rng = random.Random(7)
    checked = 0
    for trial in range(60):
        aut = random_kary_automaton(rng, arity=2, n_states=2, n_symbols=2,
                                    n_internal=3, n_leaf=2)
        tree = random_ktree(rng, sorted(aut.alphabet), 2, rng.randint(1, 5))
        assert aut.accepts(tree) == exhaustive_accepts(aut, tree)
        checked += 1
    assert checked == 60


def _caterpillar(spine: int) -> Tree:
    t = leaf("a")
    for _ in range(spine):
        t = Tree("f", (leaf("b"), t))
    return t


def test_deep_caterpillar_is_accepted_without_recursion_error():
    """The 4001-node caterpillar of test_deep_caterpillar_round_trips, with
    and without a witness run."""
    aut = TreeAutomaton({"t", "l"}, {"f", "a", "b"},
                        [("t", "f", ("l", "t")), ("l", "b", ()), ("t", "a", ())], "t")
    t = _caterpillar(2000)
    assert t.size == 4001
    assert aut.derive_states(t) == {"t"}
    assert aut.accepts(t)
    run = accepting_run(aut, t)
    assert len(run) == 4001
    assert run[()] == run[(2,) * 2000] == "t" and run[(2,) * 1999 + (1,)] == "l"
    assert not aut.accepts(Tree("f", (t, leaf("b"))))
    with pytest.raises(UndeclaredSymbolError):
        aut.accepts(Tree("f", (leaf("b"), Tree("f", (leaf("z"), t)))))


def test_deep_caterpillar_built_twice_is_accepted():
    """The derive cache is keyed by value, so looking up a second, separately
    built copy of a cached deep tree compares the two node by node, which
    Tree.__eq__ does with an explicit stack for large trees."""
    aut = TreeAutomaton({"t", "l"}, {"f", "a", "b"},
                        [("t", "f", ("l", "t")), ("l", "b", ()), ("t", "a", ())], "t")
    t = _caterpillar(2000)
    assert aut.accepts(t)
    assert aut.accepts(parse_tree(t.text()))


def test_large_trees_derive_the_states_with_runs():
    """Trees past the recursive size derive exactly the states that have a
    run, as small ones do.  State u derives every tree, so that random
    transitions into it leave large trees some runs."""
    rng = random.Random(19)
    states, symbols = ["s0", "s1", "s2", "u"], ["a", "b"]
    derived_any = set()
    for trial in range(20):
        transitions = [("u", a, ("u",) * k) for a in symbols for k in range(4)]
        transitions += [
            (rng.choice(states[:3]), rng.choice(symbols),
             tuple(rng.choice(states) for _ in range(rng.randint(0, 3))))
            for _ in range(10)
        ]
        aut = TreeAutomaton(states, symbols, transitions, "s0")
        tree = random_ktree(rng, symbols, 3, rng.randint(257, 700))
        derived = aut.derive_states(tree)
        for state in states:
            assert (state in derived) == (count_runs(aut, tree, state) > 0)
        derived_any |= derived
    assert derived_any - {"u"}  # not only the universal state


def test_count_runs_on_fig3_witness(fig3, fig3_t2):
    assert count_runs(fig3, fig3_t2) == 2


def test_encode_tree_sizes_and_round_trip():
    t = parse_tree("f(b,c,d)")
    e = encode_tree(t)
    assert e.size == 2 * t.size - 1
    assert decode_tree(e) == t


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_encode_decode_round_trip_random(seed):
    rng = random.Random(seed)
    t = random_ktree(rng, ["a", "b", "c"], 4, rng.randint(1, 15))
    e = encode_tree(t)
    assert e.size == 2 * t.size - 1
    assert decode_tree(e) == t
    for node_addr, node in e.nodes():
        assert len(node.children) in (0, 2)


def test_decode_rejects_outside_image():
    from taru.automata import DecodeError

    with pytest.raises(DecodeError):
        decode_tree(parse_tree("@(a,b,c)"))
    with pytest.raises(DecodeError):
        decode_tree(parse_tree("a(b,c)"))  # non-@ internal node
    with pytest.raises(DecodeError):
        decode_tree(parse_tree("@(a(x,y),b)"))  # spine must end in a bare leaf


def test_encode_binary_rejects_reserved_symbol():
    a = TreeAutomaton({"s"}, {"@"}, [("s", "@", ())], "s")
    with pytest.raises(AutomatonError):
        encode_binary(a)


def test_encode_binary_parsimony_ternary(ternary_one_tree):
    enc = encode_binary(ternary_one_tree)
    assert enc.is_binary()
    assert len(brute_slice(ternary_one_tree, 4, budget=None)) == 1
    assert len(brute_slice(enc, 7, budget=None)) == 1
    for n in range(1, 8):
        assert len(brute_slice(ternary_one_tree, n, budget=None)) == len(
            brute_slice(enc, 2 * n - 1, budget=None)
        )


def test_encode_binary_parsimony_already_binary(fig3):
    enc = encode_binary(fig3)
    for n in range(1, 8):
        assert len(brute_slice(fig3, n, budget=None)) == len(
            brute_slice(enc, 2 * n - 1, budget=None)
        )


def test_encode_binary_parsimony_random():
    rng = random.Random(11)
    for trial in range(15):
        aut = random_kary_automaton(rng, arity=3, n_states=2, n_symbols=2,
                                    n_internal=3, n_leaf=2)
        enc = encode_binary(aut)
        assert enc.is_binary()
        for n in range(1, 6):
            assert len(brute_slice(aut, n, budget=None)) == len(
                brute_slice(enc, 2 * n - 1, budget=None)
            )


def test_merge_initial_states(catalan):
    a = TreeAutomaton(
        {"s", "t"},
        {"a", "b"},
        [("s", "a", ()), ("t", "b", ())],
        "s",
    )
    merged = merge_initial_states(a.states, a.alphabet, a.transitions, ["s", "t"])
    assert merged.accepts(leaf("a")) and merged.accepts(leaf("b"))
    single = merge_initial_states(a.states, a.alphabet, a.transitions, ["t"])
    assert not single.accepts(leaf("a")) and single.accepts(leaf("b"))
    empty = merge_initial_states(a.states, a.alphabet, a.transitions, [])
    assert empty.initial not in a.states and not empty.transitions
    assert not empty.accepts(leaf("a")) and not empty.accepts(leaf("b"))


def test_binary_validation():
    with pytest.raises(AutomatonError):
        TreeAutomaton({"s"}, {"a"}, [("s", "a", ("s",))], "s").require_binary()

import random
from collections import Counter

import pytest

import taru.engine as taru_engine

from taru.automata import TreeAutomaton, encode_binary
from taru.config import Config, RunStats
from taru.cq import gyo_join_tree, reduce_cq_to_ta
from taru.engine import Engine
from taru.oracles import brute_completions, brute_nfa_count, _enumerate_from
from taru.partition import (
    HoleFilter,
    MainPathError,
    build_partition_nfa,
    main_path,
    partition_layout,
    up_states,
)
from taru.sampling import immediate_extensions, min_hole
from taru.snfa import LabelOracle, NfaCounter, OracleExhausted
from taru.trees import Tree, hole, leaf, parse_tree
from taru.unrolling import UnrolledAutomaton

from genutil import (
    nonempty_levels,
    random_binary_automaton,
    random_partial_tree,
    reference_partition_nfa,
)


class EnumeratedTreeLabel(LabelOracle):
    """Exact tree-language label for brute-force checks."""

    def __init__(self, key, elements):
        self.key = key
        self.elements = tuple(elements)
        self._set = frozenset(self.elements)

    def member(self, element):
        return element in self._set

    def size_est(self):
        return float(len(self.elements))

    def size_bound_bits(self):
        return float(max(1, len(self.elements).bit_length()))

    def new_sampler(self, stream):
        rand = stream.rand()
        elems = self.elements

        def draw():
            if not elems:
                raise OracleExhausted(self.key)
            return elems[rand.below(len(elems))]

        return draw

    def pool(self):
        return list(self.elements)

    def enumerate_all(self):
        return list(self.elements)


def exact_label_factory(automaton):
    memo = {}

    def factory(state, size):
        elems = sorted(
            _enumerate_from(automaton, memo, state, size), key=lambda t: t.text()
        )
        return EnumeratedTreeLabel(f"T:{state}:{size}", elems)

    return factory


# -- main path ----------------------------------------------------------------


def test_main_path_single_root_hole():
    mp = main_path(hole(5))
    assert mp.k == 1
    assert mp.vertices == ((),)
    assert mp.terminal_is_hole


def test_main_path_single_hole_with_parent():
    t = Tree("a", (hole(3), leaf("a")))
    mp = main_path(t)
    assert mp.k == 1
    assert mp.vertices == ((),)
    assert not mp.terminal_is_hole
    assert mp.hole_sizes == (3,)


def test_main_path_nested_chain():
    # Holes at (1,), then inside the right subtree: parents chain downward.
    t = parse_tree("a(1,a(a,3))")
    mp = main_path(t)
    assert mp.k == 2
    assert mp.holes == ((1,), (2, 2))
    assert mp.vertices == ((), (2,))
    assert not mp.terminal_is_hole
    assert t.node(mp.vertices[0]).full_size > t.node(mp.vertices[1]).full_size


def test_main_path_shared_parent():
    # The last two holes share a parent: the chain ends at the deeper hole.
    t = parse_tree("a(1,a(2,4))")
    mp = main_path(t)
    assert mp.k == 3
    assert mp.holes == ((1,), (2, 1), (2, 2))
    assert mp.vertices == ((), (2,), (2, 2))
    assert mp.terminal_is_hole
    assert mp.hole_sizes == (1, 2, 4)


def test_main_path_rejects_non_nested():
    t = parse_tree("a(a(1,a),a(1,a))")
    with pytest.raises(MainPathError):
        main_path(t)


def test_main_path_rejects_complete():
    with pytest.raises(MainPathError):
        main_path(parse_tree("a(a,a)"))


def test_random_partial_trees_have_main_paths(catalan):
    rng = random.Random(13)
    for _ in range(200):
        t = random_partial_tree(rng, {"a"}, rng.choice([5, 7, 9]), rng.randint(0, 4))
        if t.is_complete():
            continue
        mp = main_path(t)
        path_nodes = set(mp.vertices)
        for addr, _ in t.holes():
            assert addr in path_nodes or addr[:-1] in path_nodes


# -- extended runs ------------------------------------------------------------


def _any_state(automaton) -> HoleFilter:
    """Holes match every state."""
    return HoleFilter(automaton.states, lambda s, h: True)


def test_extended_run_single_hole(catalan):
    u = UnrolledAutomaton(catalan, 7)
    assert "r" in up_states(u, hole(7), _any_state(catalan))


def test_extended_run_complete_matches_accepts(fig3):
    u = UnrolledAutomaton(fig3, 7)
    t = parse_tree("a(a(a,a),a(a,a))")
    assert ("s" in up_states(u, t, _any_state(fig3))) == fig3.accepts(t)
    t_bad = parse_tree("a(a(a,a),a)")
    assert ("s" in up_states(u, t_bad, _any_state(fig3))) == fig3.accepts(t_bad)


def test_extended_run_with_nonempty_filter_matches_completions(fig3):
    u = UnrolledAutomaton(fig3, 9)
    alive = nonempty_levels(u)
    rng = random.Random(17)
    live = HoleFilter(fig3.states, lambda s, h: alive[(s, h)])  # one memo for all trees
    for _ in range(120):
        t = random_partial_tree(rng, {"a"}, 9, rng.randint(0, 4))
        has = "s" in up_states(u, t, live)
        completions = brute_completions(fig3, t, "s", 9, budget=None)
        assert has == (len(completions) > 0)


# -- the counting reduction ----------------------------------------------------


def _check_exact(automaton, t, state, size):
    u = UnrolledAutomaton(automaton, size)
    built = build_partition_nfa(partition_layout(u, t, state), exact_label_factory(automaton))
    got = brute_nfa_count(built.nfa, built.nfa.word_length(), budget=None)
    want = len(brute_completions(automaton, t, state, size, budget=None))
    assert got == want, f"{t.text()} from {state}@{size}: nfa {got} != brute {want}"
    return got


def test_partition_nfa_complete_tree(fig3):
    t = parse_tree("a(a(a,a),a(a,a))")
    assert _check_exact(fig3, t, "s", 7) == 1
    t2 = parse_tree("a(a(a,a),a)")
    assert _check_exact(fig3, t2, "s", 5) == 0


def test_partition_nfa_root_hole_counts_whole_slice(fig3):
    from taru.oracles import brute_slice

    for size in (7, 9):
        got = _check_exact(fig3, hole(size), "s", size)
        assert got == len(brute_slice(fig3, size, budget=None))


def test_partition_nfa_shared_parent_fixture(catalan):
    t = parse_tree("a(1,a(2,4))")
    _check_exact(catalan, t, "r", 9)
    t2 = parse_tree("a(1,a(1,3))")
    _check_exact(catalan, t2, "r", 7)


def test_partition_nfa_random_exactness(fig3, catalan, mixed):
    rng = random.Random(29)
    cases = 0
    for automaton, state in ((fig3, "s"), (catalan, "r"), (mixed, "u")):
        for _ in range(80):
            size = rng.choice([5, 7, 9])
            t = random_partial_tree(rng, {"a"}, size, rng.randint(0, 5))
            if t.is_complete():
                continue
            _check_exact(automaton, t, state, size)
            cases += 1
    assert cases >= 150


def test_partition_nfa_random_automata_exactness():
    rng = random.Random(31)
    cases = 0
    while cases < 60:
        automaton = random_binary_automaton(rng)
        state = sorted(automaton.states)[rng.randrange(len(automaton.states))]
        size = rng.choice([5, 7])
        t = random_partial_tree(rng, sorted(automaton.alphabet), size, rng.randint(1, 4))
        if t.is_complete():
            continue
        _check_exact(automaton, t, state, size)
        cases += 1


def test_partition_nfa_size_bound(fig3):
    u = UnrolledAutomaton(fig3, 9)
    rng = random.Random(37)
    bound = 3 * (9 * fig3.size) ** 4
    for _ in range(40):
        t = random_partial_tree(rng, {"a"}, 9, rng.randint(1, 4))
        if t.is_complete():
            continue
        built = build_partition_nfa(partition_layout(u, t, "s"), exact_label_factory(fig3))
        assert built.nfa.size() <= bound


class KeyLabel(LabelOracle):
    """A label that only names its (state, size); enough to compare layouts."""

    def __init__(self, state, size):
        self.key = f"T:{state}:{size}"

    def size_bound_bits(self):
        return 1.0


def _assert_same_nfa(got, want):
    assert got.nfa.word_length() == want.nfa.word_length()
    assert got.nfa.states == want.nfa.states
    assert got.nfa.transitions == want.nfa.transitions
    assert sorted(got.nfa.labels) == sorted(want.nfa.labels)
    assert all(label.key == key for key, label in got.nfa.labels.items())
    assert got.nfa.levels == want.nfa.levels


def _candidate_walks(fig3, catalan, mixed, q1_d1, rescale=False):
    """Random smallest-hole-first walks over fig3, catalan, mixed, the
    encoded q1_d1 CQ automaton and six random automata, ten per automaton
    from random (state, level) cells.  Each step yields the engine, the
    cell, the full alphabet's candidates, the live-symbol candidates and the
    engine's weight of every full candidate.  With `rescale`, each estimate
    of level l is multiplied by (l + 3) / (l + 2) after the build; only
    which estimates are positive steers a walk, so both walk the same
    trees."""
    rng = random.Random(41)
    red = reduce_cq_to_ta(*q1_d1, gyo_join_tree(q1_d1[0]))
    cases = [(fig3, 9), (catalan, 9), (mixed, 9), (encode_binary(red.automaton), 2 * red.n - 1)]
    cases += [(random_binary_automaton(rng, n_symbols=3), 7) for _ in range(6)]
    for automaton, n in cases:
        engine = Engine(automaton, n, Config(seed=1))
        engine.build()
        if rescale:
            # The build's draws left completion counts of the old table in
            # the choice trees.
            for (s, level) in engine.est_table:
                engine.est_table[s, level] *= (level + 3) / (level + 2)
            engine._roots.clear()
        alphabet = sorted(automaton.alphabet)
        states = sorted(automaton.states)
        for _ in range(10):
            state = rng.choice(states)
            level = rng.choice(range(3, n + 1, 2))
            t = hole(level)
            while not t.is_complete():
                addr = min_hole(t)
                full = immediate_extensions(t, addr, alphabet, alphabet)
                if not full:
                    break
                filtered = immediate_extensions(
                    t, addr, engine._leaf_alphabet, engine._node_alphabet
                )
                weights = {c: engine.estimate_partition(c, state, level) for c in full}
                yield engine, state, level, full, filtered, weights
                positive = [c for c in full if weights[c] > 0.0]
                t = rng.choice(positive if positive and rng.random() < 0.8 else full)


def test_forward_builder_and_live_candidates_match_the_full_layout(fig3, catalan, mixed,
                                                                   q1_d1):
    """Along random smallest-hole-first walks, every candidate of the full
    alphabet gets the same partition NFA from the forward builder as from the
    layout-then-prune reference, its layout reports that NFA's size, and the
    engine's live-symbol candidates of positive weight are exactly the full
    alphabet's, in the same order."""
    built = live = narrowed = 0
    for engine, state, level, full, filtered, weights in _candidate_walks(
            fig3, catalan, mixed, q1_d1):
        narrowed += len(filtered) < len(full)
        assert ([c for c in filtered if weights[c] > 0.0]
                == [c for c in full if weights[c] > 0.0])
        for c in full:
            layout = partition_layout(engine.unrolled, c, state)
            got = build_partition_nfa(layout, KeyLabel)
            _assert_same_nfa(
                got, reference_partition_nfa(engine.unrolled, c, state, KeyLabel)
            )
            assert layout.nfa_size(lambda s, h: KeyLabel(s, h).size_bound_bits()) \
                == got.nfa.size()
            built += 1
        live += any(weights[c] > 0.0 for c in full)
    assert built > 1000 and live > 100 and narrowed > 100

    # A chain segment through a completed node, where one state reaches
    # several next ones: a(7, a(a, a(1,1))) when every child pair is allowed.
    fan = TreeAutomaton(
        {"x", "y"}, {"a"},
        [(p, "a", (c, d)) for p in "xy" for c in "xy" for d in "xy"]
        + [("x", "a", ()), ("y", "a", ())],
        "x",
    )
    t = parse_tree("a(7,a(a,a(1,1)))")
    for state in ("x", "y"):
        got = build_partition_nfa(partition_layout(UnrolledAutomaton(fan, 13), t, state),
                                  KeyLabel)
        want = reference_partition_nfa(UnrolledAutomaton(fan, 13), t, state, KeyLabel)
        _assert_same_nfa(got, want)
        fanned = {(tr.src, tr.label) for tr in want.nfa.transitions}
        assert len(fanned) < len(want.nfa.transitions)


def test_completable_is_a_positive_completion_count(fig3, catalan, mixed, q1_d1):
    """Along the same walks, the engine's liveness test passes for exactly
    the candidates of the full alphabet whose completion count is
    positive, so a draw may skip counting a lone live candidate."""
    live = dead = 0
    for engine, state, level, full, _, weights in _candidate_walks(
            fig3, catalan, mixed, q1_d1):
        for c in full:
            assert engine.completable(c, state, level) == (weights[c] > 0.0)
            live += weights[c] > 0.0
            dead += weights[c] == 0.0
    assert live > 300 and dead > 1000


# Built estimates are sums of products of sketch fractions with few bits, so
# their products are exact in any order; rescaled ones are not.
@pytest.mark.parametrize("rescale", [False, True])
def test_layout_sweep_is_the_nfa_counter(fig3, catalan, mixed, q1_d1, monkeypatch, rescale):
    """Along the same walks, the engine counts a completion layout in which
    no state has two live incoming transitions (positive source estimate
    and label size) to exactly the float NfaCounter returns for its NFA, and
    that counter never hashes its stream, so it draws nothing.  Every layout
    with such a live union goes through build_partition_nfa, and no other."""
    built = []

    def recording(layout, label_factory):
        built.append(layout)
        return build_partition_nfa(layout, label_factory)

    monkeypatch.setattr(taru_engine, "build_partition_nfa", recording)
    swept = unions = 0
    walks = _candidate_walks(fig3, catalan, mixed, q1_d1, rescale)
    for engine, state, level, full, _, weights in walks:
        for c in full:
            if c.is_complete() or state not in up_states(engine.unrolled, c, engine._live_holes):
                continue
            nfa = build_partition_nfa(partition_layout(engine.unrolled, c, state),
                                      engine._label).nfa
            if not nfa.transitions:
                assert weights[c] == 0.0
                continue
            stream = engine.root_stream.child("part", 0, state, level, c)
            counter = NfaCounter(nfa, engine.params.nfa, stream, RunStats())
            value = counter.run()
            live_in = Counter(
                tr.dst for tr in nfa.transitions
                if counter.est[tr.src] > 0.0 and nfa.labels[tr.label].size_est() > 0.0
            )
            union = any(m >= 2 for m in live_in.values())
            assert weights[c] == value
            # Counting again counts afresh, to the same float.
            before = len(built)
            assert engine.estimate_partition(c, state, level) == value
            assert (len(built) > before) == union
            if union:
                unions += 1
            else:
                assert stream._k is None
                swept += 1
    assert swept > 300 and unions > 15

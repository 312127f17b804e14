import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import taru.engine
from taru.automata import TreeAutomaton, encode_binary
from taru.config import Config, resolve_engine_params
from taru.cq import sample_cq
from taru.engine import (
    BOT,
    Engine,
    LanguageSampler,
    fpaus,
    fpras_bta,
    fpras_ta,
)
from taru.formats import database_from_text, queries_from_text
from taru.oracles import brute_slice
from taru.rng import Stream
from taru.sampling import EMPTY, FAIL, immediate_extensions, min_hole
from taru.snfa import OracleExhausted
from taru.trees import Tree, hole, parse_tree

from genutil import random_binary_automaton, with_initial


def test_level_one_exact(fig3):
    engine = Engine(fig3, 1, Config())
    engine.build()
    assert engine.estimate("r", 1) == 1.0
    assert engine.estimate("q", 1) == 0.0
    assert engine.estimate("s", 1) == 0.0


def test_level_one_matches_brute(catalan, fig3, mixed):
    for automaton in (catalan, fig3, mixed):
        engine = Engine(automaton, 1, Config())
        engine.build()
        for state in automaton.states:
            truth = len(brute_slice(with_initial(automaton, state), 1, budget=None))
            assert engine.estimate(state, 1) == float(truth)


def test_singleton_channels_are_exact(catalan):
    # One derivation channel per split: every level estimate is an exact
    # product, no sampling anywhere.
    engine = Engine(catalan, 11, Config())
    engine.build()
    for level in (3, 5, 7, 9, 11):
        truth = len(brute_slice(catalan, level, budget=None))
        assert engine.estimate("r", level) == float(truth)


def test_even_levels_are_exact_zero(fig3):
    engine = Engine(fig3, 8, Config())
    engine.build()
    for state in fig3.states:
        for level in (2, 4, 6, 8):
            assert engine.estimate(state, level) == 0.0


def test_zero_propagation_empty_language():
    # No leaf transitions at all: everything is zero, exactly.
    aut = TreeAutomaton({"s"}, {"a"}, [("s", "a", ("s", "s"))], "s")
    res = fpras_bta(aut, 7, Config())
    assert res.estimate == 0.0


def test_fpras_even_size_is_exact_zero(catalan):
    res = fpras_bta(catalan, 10, Config())
    assert res.estimate == 0.0
    assert res.certificate.get("exact") == "even-size"


def test_fpras_catalan_within_tolerance(catalan):
    truth = 14
    res = fpras_bta(catalan, 9, Config(epsilon=0.2, seed=12))
    assert abs(res.estimate - truth) <= 0.2 * truth


def test_fpras_statistical_contract_mixed(mixed):
    """Over seeded runs on a fixture with genuine channel overlap, at least
    90 percent of estimates land within (1 +- 0.2) of the exact count."""
    truth = len(brute_slice(mixed, 9))
    hits = 0
    runs = 60
    for seed in range(runs):
        est = fpras_bta(mixed, 9, Config(epsilon=0.2, delta=0.1, seed=seed)).estimate
        if abs(est - truth) <= 0.2 * truth:
            hits += 1
    assert hits >= 0.9 * runs


def test_estimate_partition_exact_cases(fig3):
    engine = Engine(fig3, 7, Config())
    engine.build()
    accepted = parse_tree("a(a(a,a),a(a,a))")
    assert engine.estimate_partition(accepted, "s", 7) == 1.0
    rejected = parse_tree("a(a(a(a,a),a),a)")
    assert engine.estimate_partition(rejected, "s", 7) == 0.0
    # Single root hole spans the whole slice estimate.
    assert engine.estimate_partition(hole(7), "s", 7) == pytest.approx(
        engine.estimate("s", 7), rel=0.25
    )


def test_estimate_partition_zero_iff_uncompletable(fig3):
    from taru.oracles import brute_completions

    engine = Engine(fig3, 9, Config())
    engine.build()
    rng = random.Random(3)
    from genutil import random_partial_tree

    for _ in range(60):
        t = random_partial_tree(rng, {"a"}, 9, rng.randint(0, 4))
        est = engine.estimate_partition(t, "s", 9)
        truth = len(brute_completions(fig3, t, "s", 9, budget=None))
        assert (est == 0.0) == (truth == 0)


def test_determinism_same_seed(mixed):
    a = fpras_bta(mixed, 9, Config(seed=5)).estimate
    b = fpras_bta(mixed, 9, Config(seed=5)).estimate
    assert a == b
    c = fpras_bta(mixed, 9, Config(seed=6)).estimate
    assert isinstance(c, float)


def test_determinism_sampler(mixed):
    s1 = LanguageSampler(mixed, 9, Config(seed=8))
    s2 = LanguageSampler(mixed, 9, Config(seed=8))
    seq1 = [s1.draw() for _ in range(20)]
    seq2 = [s2.draw() for _ in range(20)]
    assert seq1 == seq2


def test_fpras_ta_routes_through_encoding(ternary_one_tree):
    res = fpras_ta(ternary_one_tree, 4, Config(seed=2))
    assert res.estimate == pytest.approx(1.0, rel=0.2)
    assert res.certificate.get("encoded") is True
    handle = LanguageSampler(ternary_one_tree, 4, Config(seed=2))
    direct = fpras_bta(encode_binary(ternary_one_tree), 7, Config(seed=2))
    assert handle.count().estimate == direct.estimate
    assert fpras_ta(ternary_one_tree, 2, Config()).estimate == 0.0


def test_fpras_ta_leaf_count():
    aut = TreeAutomaton({"s"}, {"a", "b", "c"},
                        [("s", "a", ()), ("s", "b", ())], "s", arity=2)
    res = fpras_ta(aut, 1, Config())
    assert res.estimate == 2.0


def test_sampler_emits_members_of_the_slice(fig3):
    handle = LanguageSampler(fig3, 9, Config(seed=4))
    support = set(brute_slice(fig3, 9).trees)
    got = set()
    for _ in range(60):
        t = handle.draw()
        if isinstance(t, Tree):
            assert t in support
            got.add(t)
    assert got


def test_sampler_fail_rate_bounded(mixed):
    handle = LanguageSampler(mixed, 9, Config(seed=9))
    fails = 0
    draws = 400
    for _ in range(draws):
        if handle.draw() == "FAIL":
            fails += 1
    assert fails / draws <= 0.5


def test_sampler_empty_language():
    aut = TreeAutomaton({"s"}, {"a"}, [("s", "a", ("s", "s"))], "s")
    handle = LanguageSampler(aut, 5, Config())
    assert handle.draw() == "EMPTY"


def test_sampler_kary_decodes(ternary_one_tree):
    handle = LanguageSampler(ternary_one_tree, 4, Config(seed=1))
    target = parse_tree("f(b,b,b)")
    seen = set()
    for _ in range(30):
        t = handle.draw()
        if isinstance(t, Tree):
            seen.add(t)
    assert seen == {target}


def test_fpaus_empty_slice_always_bottom(catalan):
    sampler = fpaus(catalan, 6, Config())
    assert all(sampler.draw() == BOT for _ in range(50))


def test_fpaus_bottom_rate(mixed):
    sampler = fpaus(mixed, 9, Config(seed=3, delta=0.4))
    bottoms = 0
    draws = 300
    for _ in range(draws):
        out = sampler.draw()
        if out == BOT:
            bottoms += 1
        else:
            assert mixed.accepts(out)
    assert bottoms / draws <= 0.4


def test_theory_profile_epsilon_clamp():
    """The sketch size is the formula's exact integer under the clamped
    epsilon (4nm)**-18: ceil(log2(1/delta)**2 (nm)**13 / eps**5)."""
    params = resolve_engine_params(Config(profile="theory"), 3, 3)
    log2_inv_delta = Fraction(math.log2(1 / 0.1))
    assert params.alpha == math.ceil(log2_inv_delta**2 * 9**13 * 36**90)
    assert params.alpha > 10**150  # astronomically large, never filled


def test_theory_profile_runs_on_union_free_instance():
    """Two states, n=3, one derivation channel: the literal-formula profile
    never needs a sample, so it completes and is exact, and its draws walk
    the choice tree without reading a sketch."""
    aut = TreeAutomaton(
        {"s0", "s1"}, {"a"},
        [("s0", "a", ("s1", "s1")), ("s1", "a", ())],
        "s0",
    )
    truth = len(brute_slice(aut, 3))
    assert truth == 1
    res = fpras_bta(aut, 3, Config(profile="theory", seed=0))
    assert res.estimate == float(truth)
    sampler = fpaus(aut, 3, Config(profile="theory", seed=1))
    assert [sampler.draw() for _ in range(3)] == [parse_tree("a(a,a)")] * 3
    assert not sampler.handle.engine._sketches


def test_random_automata_zero_law():
    rng = random.Random(19)
    for trial in range(25):
        aut = random_binary_automaton(rng)
        n = rng.choice([3, 5, 7])
        truth = len(brute_slice(aut, n, budget=None))
        est = fpras_bta(aut, n, Config(seed=trial)).estimate
        if truth == 0:
            assert est == 0.0
        else:
            assert est > 0.0


def test_fig3_top_slice_estimate(fig3):
    truth = len(brute_slice(fig3, 13))
    est = fpras_bta(fig3, 13, Config(seed=0)).estimate
    assert abs(est - truth) <= 0.2 * truth


def test_tree_label_oracle_contract(catalan):
    """The sketch-backed tree-language oracle: membership agrees with the
    automaton, sizes with the table, and sample replay is near uniform."""
    from taru.engine import _SketchLabel

    engine = Engine(catalan, 11, Config(seed=6))
    engine.build()
    label = _SketchLabel(engine, "r", 7)
    support = set(brute_slice(catalan, 7).trees)
    assert len(support) == 5
    for t in support:
        assert label.member(t)
    assert not label.member(parse_tree("a(a,a)"))
    assert label.size_est() == pytest.approx(5.0, rel=0.25)
    counts = Counter()
    for seed in range(40):
        draw = label.new_sampler(Stream.from_seed(seed).child("lab"))
        for _ in range(12):
            counts[draw()] += 1
    total = sum(counts.values())
    assert set(counts) <= support
    tv = 0.5 * sum(abs(counts.get(t, 0) / total - 1 / 5) for t in support)
    assert tv <= 0.1


def test_constant_sketch_replays_its_tree_without_randomness(monkeypatch, catalan):
    """A sketch holding one tree is replayed len(pool) times unshuffled,
    and a state with one leaf symbol draws its leaf, both without reading
    their streams."""
    from taru.engine import _SketchLabel

    def no_rand(stream):
        raise AssertionError("a forced draw read its stream")

    engine = Engine(catalan, 11, Config(seed=6))
    engine.build()
    label = _SketchLabel(engine, "r", 3)
    pool = engine.sketch("r", 3)
    assert pool and all(t == parse_tree("a(a,a)") for t in pool)
    monkeypatch.setattr(Stream, "rand", no_rand)
    draw = label.new_sampler(Stream.from_seed(1).child("lab"))
    assert [draw() for _ in pool] == pool
    with pytest.raises(OracleExhausted):
        draw()
    assert engine.sample("r", 1, Stream.from_seed(1)) == parse_tree("a")


def test_nfa_sampler_failures_reach_the_certificate(fig3):
    sampler = fpaus(fig3, 13, Config(seed=1))
    for _ in range(50):
        sampler.draw()
    warnings = sampler.handle.count().certificate["warnings"]
    assert warnings["nfa_sampler_failures"] > 0


def test_structure_counters_reach_the_certificate_and_are_pinned(fig3):
    """Completion layouts made and partial trees pruned by the run check, at
    seed 1: after a count and after fifty draws.  Beside them, the layouts
    whose count needed the NFA counter: none for the count, four for the
    draws.  A draw counts only candidates with a live sibling."""
    warnings = fpras_bta(fig3, 13, Config(seed=1)).certificate["warnings"]
    assert (warnings["partition_nfas"], warnings["pruned_by_run_check"]) == (10, 18)
    assert warnings["partition_unions"] == 0
    sampler = fpaus(fig3, 11, Config(seed=1))
    for _ in range(50):
        sampler.draw()
    warnings = sampler.handle.count().certificate["warnings"]
    assert (warnings["partition_nfas"], warnings["pruned_by_run_check"]) == (41, 45)
    assert warnings["partition_unions"] == 4


def test_fpras_ta_on_binary_arity_input_counts_at_size_n(mixed):
    """A binary input is never encoded: the general route is the binary
    estimator at the same size."""
    res_general = fpras_ta(mixed, 5, Config(seed=13))
    res_direct = fpras_bta(mixed, 5, Config(seed=13))
    assert res_general.estimate == res_direct.estimate
    assert res_general.certificate == res_direct.certificate


def test_estimate_partition_statistical_coverage(fig3, mixed):
    """Completion estimates stay within 25 percent of brute force in at
    least 90 percent of 200 seeded runs on small partial-tree fixtures."""
    from taru.oracles import brute_completions
    from taru.trees import parse_tree as pt

    fixtures = [
        (mixed, "u", pt("a(3,5)")),
        (mixed, "u", pt("a(a(1,3),3)")),
        (fig3, "s", pt("a(3,5)")),
    ]
    runs = 200
    for automaton, state, partial in fixtures:
        size = partial.full_size
        truth = len(brute_completions(automaton, partial, state, size, budget=None))
        assert truth > 0
        hits = 0
        for seed in range(runs):
            engine = Engine(automaton, size, Config(seed=seed))
            engine.build()
            est = engine.estimate_partition(partial, state, size)
            if abs(est - truth) <= 0.25 * truth:
                hits += 1
        assert hits >= 0.9 * runs, f"{partial.text()}: {hits}/{runs}"


def test_seed_one_estimates_and_draws_are_pinned(fig3, mixed):
    """Speed-ups must leave every estimate and every drawn tree unchanged
    for the same seed; these are the seed-1 values."""
    assert fpras_bta(fig3, 13, Config(seed=1)).estimate == 100.0
    assert fpras_bta(mixed, 11, Config(seed=1)).estimate == 22.796875
    pinned = [
        (fig3, 13, [
            "a(a(a,a(a,a)),a(a(a(a,a),a),a))",
            "a(a,a(a(a,a(a(a,a),a)),a(a,a)))",
            "a(a(a,a(a,a)),a(a(a,a(a,a)),a))",
        ]),
        (mixed, 11, [
            "a(a(a,a),a(a,a(a(a,a),a)))",
            "a(a(a,a(a(a,a),a)),a(a,a))",
            "a(a(a,a(a(a(a,a),a),a)),a)",
        ]),
    ]
    for automaton, n, texts in pinned:
        sampler = fpaus(automaton, n, Config(seed=1))
        assert [sampler.draw().text() for _ in texts] == texts


ALL_AMBIGUOUS = TreeAutomaton(
    {"x", "y"},
    {"a"},
    [(p, "a", (c, c)) for p in "xy" for c in "xy"] + [("x", "a", ()), ("y", "a", ())],
    "x",
)


def _deepest_sketch_fill(monkeypatch, automaton, n) -> int:
    """Most Python frames between this call and a sketch-entry draw while
    counting the slice."""
    top = sys._getframe()
    depths = [0]
    draw = Engine.sketch_entry

    def recording(self, *args):
        frame, depth = sys._getframe(), 0
        while frame is not top:
            frame, depth = frame.f_back, depth + 1
        depths.append(depth)
        return draw(self, *args)

    monkeypatch.setattr(Engine, "sketch_entry", recording)
    fpras_bta(automaton, n, Config(seed=1))
    monkeypatch.setattr(Engine, "sketch_entry", draw)
    return max(depths)


def test_lazy_sketch_fills_do_not_nest_deeper_with_n(monkeypatch, fig3):
    """Sketches are filled when first read.  The build reads them in level
    order, so once fills nest at all, a larger slice adds at most one nested
    fill (8 frames)."""
    # fpras_bta(fig3, 13) fills sketches from the build alone.
    unnested = _deepest_sketch_fill(monkeypatch, fig3, 13)
    for automaton, small, large in ((fig3, 17, 21), (ALL_AMBIGUOUS, 9, 11)):
        shallow = _deepest_sketch_fill(monkeypatch, automaton, small)
        deep = _deepest_sketch_fill(monkeypatch, automaton, large)
        assert shallow > unnested
        assert deep - shallow <= 8


def test_sketch_fills_made_by_draws_do_not_nest_deeper_with_n(monkeypatch):
    """Draws fill the sketches their completion NFAs read, which can fill
    lower sketches in turn; on a dense random automaton that chain is as
    deep at n = 27 as at n = 23."""
    automaton = random_binary_automaton(
        random.Random(9), n_states=3, n_symbols=1, n_internal=7, n_leaf=2
    )
    draw = Engine.sketch_entry
    depths = []
    for n in (23, 27):
        sampler = fpaus(automaton, n, Config(seed=1))
        active, deepest = [0], [0]

        def recording(self, *args):
            active[0] += 1
            deepest[0] = max(deepest[0], active[0])
            try:
                return draw(self, *args)
            finally:
                active[0] -= 1

        monkeypatch.setattr(Engine, "sketch_entry", recording)
        for _ in range(20):
            sampler.draw()
        monkeypatch.setattr(Engine, "sketch_entry", draw)
        depths.append(deepest[0])
    assert depths[0] > 1
    assert depths[1] <= depths[0]


def _counting_walk():
    """A stand-in for sample_tree whose walk counts every candidate: the
    weight of a candidate is estimate_partition's (the count of a live one,
    else 0.0), and zero weights stay in for weighted_index to pass over.
    Each partial tree's candidates and weights are kept per choice-tree root
    across draws, and the engine's choice tree is left ungrown."""
    expansions = {}

    def walk(root, leaf_symbols, node_symbols, live, estimator, slice_estimate, stream,
             stats):
        if slice_estimate <= 0.0:
            return EMPTY
        rand = stream.rand()
        memo = expansions.setdefault(root, {})
        t = root.tree
        phi = 1.0
        while not t.is_complete():
            hit = memo.get(t)
            if hit is None:
                options = immediate_extensions(t, min_hole(t), leaf_symbols, node_symbols)
                weights = [estimator(c) if live(c) else 0.0 for c in options]
                hit = memo[t] = (options, weights)
            options, weights = hit
            if sum(weights) <= 0.0:
                return FAIL
            k = rand.weighted_index(weights)
            phi *= weights[k] / sum(weights)
            t = options[k]
        accept = 1.0 / (2.0 * phi * slice_estimate)
        if accept > 1.0:
            accept = 1.0
            stats.clamped_accepts += 1
        return t if rand.bernoulli(accept) else FAIL

    return walk


def test_uncounted_lone_candidates_change_no_draw(monkeypatch, fig3, mixed, q1_d1):
    """The first 200 draws of two tree samplers and a CQ sampler, at two
    seeds, equal those of a walk that counts every candidate."""
    q1, d1 = q1_d1
    makers = [
        lambda seed: fpaus(fig3, 13, Config(seed=seed)),
        lambda seed: fpaus(mixed, 11, Config(seed=seed)),
        lambda seed: sample_cq(q1, d1, None, Config(seed=seed)),
    ]
    for make in makers:
        for seed in (1, 2):
            sampler = make(seed)
            drawn = [sampler.draw() for _ in range(200)]
            with monkeypatch.context() as m:
                m.setattr(taru.engine, "sample_tree", _counting_walk())
                counting = make(seed)
                assert [counting.draw() for _ in range(200)] == drawn


def test_cq_sampling_builds_no_empty_partition_nfa(monkeypatch):
    """Dead candidates are pruned before any partition NFA is built.  A
    length-2 path query over a dense graph has real choices whose layouts
    need the NFA counter."""
    built = []
    build = taru.engine.build_partition_nfa

    def recording(*args):
        out = build(*args)
        built.append(out)
        return out

    monkeypatch.setattr(taru.engine, "build_partition_nfa", recording)
    edges = ["0,2", "0,5", "1,3", "1,4", "2,0", "2,5", "3,0", "3,5", "4,2", "4,3", "5,1", "5,4"]
    db = database_from_text("".join(f"E({e}).\n" for e in edges) + "S(0).\nS(1).\nS(2).\n")
    (query,) = queries_from_text("Q(x,z) :- S(x), E(x,y), E(y,z).\n")
    sampler = sample_cq(query, db, None, Config(seed=1))
    for _ in range(10):
        sampler.draw()
    assert built
    assert all(b.nfa.transitions for b in built)


def test_pruned_partial_trees_have_zero_nfa_estimates(monkeypatch, fig3):
    """Every partial tree the run check prunes also gets exactly 0.0 from
    its completion-counting NFA, from every state the check rules out."""
    pruned = set()
    check = taru.engine.up_states

    def recording(unrolled, t, hole_filter):
        states = check(unrolled, t, hole_filter)
        pruned.update((t, s) for s in fig3.states - states)
        return states

    monkeypatch.setattr(taru.engine, "up_states", recording)
    sampler = fpaus(fig3, 11, Config(seed=1))
    for _ in range(50):
        sampler.draw()
    assert sampler.handle.stats.pruned_by_run_check > 0
    assert pruned

    monkeypatch.setattr(taru.engine, "up_states", lambda unrolled, t, hole_filter: fig3.states)
    unpruned = Engine(fig3, 11, Config(seed=1))
    unpruned.build()
    for t, state in pruned:
        assert unpruned.estimate_partition(t, state, t.full_size) == 0.0


def test_deep_partial_tree_counts_without_recursion(catalan):
    """A partial tree 600 levels deep with one hole at the bottom has exactly
    one completion at level 1201: the run check and the completion layout
    take no recursion per level."""
    t = parse_tree("a(a," * 600 + "1" + ")" * 600)
    engine = Engine(catalan, 1201, Config(seed=1))
    engine.build()
    assert engine.completable(t, "r", 1201)
    assert engine.estimate_partition(t, "r", 1201) == 1.0


def test_every_draw_of_a_non_member_raises(fig3, fig3_t1):
    """Only trees that passed are remembered: a non-member fails its check on
    the first draw and again on a later one."""
    handle = LanguageSampler(fig3, 9, Config(seed=1))
    assert not handle.empty and not fig3.accepts(fig3_t1)
    handle.engine.sample = lambda state, level, stream: fig3_t1
    for _ in range(2):
        with pytest.raises(AssertionError, match="non-member"):
            handle.draw()


def test_each_distinct_draw_is_checked_once(monkeypatch, fig3):
    """A repeat of a drawn tree returns the object that passed, unchecked."""
    checked = []
    accepts = TreeAutomaton.accepts

    def counted(self, tree):
        checked.append(tree)
        return accepts(self, tree)

    monkeypatch.setattr(TreeAutomaton, "accepts", counted)
    handle = LanguageSampler(fig3, 13, Config(seed=2))
    drawn = [t for t in (handle.draw() for _ in range(60)) if isinstance(t, Tree)]
    assert len(drawn) > len(set(drawn)) > 1
    assert sorted(map(id, checked)) == sorted({id(t) for t in drawn})

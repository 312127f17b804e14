"""Acceptance suite: one test per criterion, each printing a pass line with
its measurements.  Tolerances and budgets are pinned here; every randomized
check runs with fixed seeds, so the whole suite is deterministic."""

import json
import random
import time
from collections import Counter

import pytest

from taru.automata import encode_binary
from taru.config import Config
from taru.cq import brute_cq_count, gyo_join_tree, reduce_cq_to_ta
from taru.engine import Engine, LanguageSampler, fpras_bta
from taru.oracles import (
    brute_completions,
    brute_nfa_count,
    brute_slice,
)
from taru.partition import build_partition_nfa, partition_layout
from taru.snfa import count_succinct_nfa, sample_word
from taru.rng import Stream
from taru.trees import Tree
from taru.unrolling import UnrolledAutomaton

from genutil import (
    random_cq_db,
    random_explicit_nfa,
    random_kary_automaton,
    random_nwa,
    random_partial_tree,
    random_structured_circuit,
)
from test_cq import _decomposition_for
from test_partition import exact_label_factory


def _report(name: str, detail: str):
    print(f"ACCEPTANCE {name}: PASS  ({detail})")


def test_criterion_01_reduction_exactness(q1_d1):
    """Answer counting reduces to slice counting with an exact bijection."""
    started = time.time()
    rng = random.Random(101)
    cases = 0
    hand = [q1_d1]
    for query, db in hand:
        hd = gyo_join_tree(query)
        red = reduce_cq_to_ta(query, db, hd)
        count, answers = brute_cq_count(query, db)
        trees = brute_slice(red.automaton, red.n, budget=None).trees
        assert len(trees) == count
        decoded = [red.decode_answer(t) for t in trees]
        assert len(set(decoded)) == len(decoded)
        assert set(decoded) == answers
        cases += 1
    while cases < 101:
        query, db = random_cq_db(rng, max_atoms=3, domain=4)
        hd = _decomposition_for(rng, query)
        red = reduce_cq_to_ta(query, db, hd)
        count, answers = brute_cq_count(query, db)
        trees = brute_slice(red.automaton, red.n, budget=None).trees
        assert len(trees) == count, f"case {cases}: {len(trees)} != {count}"
        decoded = [red.decode_answer(t) for t in trees]
        assert len(set(decoded)) == len(decoded)
        assert set(decoded) == answers
        cases += 1
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report("1 reduction-exactness", f"{cases} fixtures, {elapsed:.1f}s")


def test_criterion_02_completion_nfa_exactness(catalan, fig3, mixed):
    """The completion-counting NFA matches brute-force completion counts,
    integer for integer, on discipline-grown partial trees."""
    started = time.time()
    rng = random.Random(202)
    cases = 0
    pool = [(catalan, "r"), (fig3, "s"), (mixed, "u")]
    while cases < 200:
        automaton, state = pool[cases % len(pool)]
        size = rng.choice([5, 7, 9])
        t = random_partial_tree(rng, {"a"}, size, rng.randint(0, 5))
        if t.is_complete():
            continue
        unrolled = UnrolledAutomaton(automaton, size)
        built = build_partition_nfa(partition_layout(unrolled, t, state),
                                    exact_label_factory(automaton))
        got = brute_nfa_count(built.nfa, built.nfa.word_length(), budget=None)
        want = len(brute_completions(automaton, t, state, size, budget=None))
        assert got == want, f"{t.text()} from {state}@{size}: {got} != {want}"
        cases += 1
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report("2 completion-count-exactness", f"{cases} partial trees, {elapsed:.1f}s")


def test_criterion_03_encoding_parsimony(ternary_one_tree, fig3):
    """Slice counts survive the binary encoding at size 2n-1."""
    started = time.time()
    rng = random.Random(303)
    fixtures = [ternary_one_tree, fig3]
    for arity in (2, 3, 4):
        for _ in range(4):
            fixtures.append(
                random_kary_automaton(rng, arity=arity, n_states=2, n_symbols=2,
                                      n_internal=3, n_leaf=2)
            )
    pairs = 0
    for automaton in fixtures:
        encoded = encode_binary(automaton)
        for n in range(1, 8):
            want = len(brute_slice(automaton, n, budget=None))
            got = len(brute_slice(encoded, 2 * n - 1, budget=None))
            assert got == want, f"n={n}: {got} != {want}"
            pairs += 1
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report("3 encoding-parsimony", f"{len(fixtures)} automata x n<=7, {elapsed:.1f}s")


def test_criterion_04_fpras_statistical_contract(catalan, fig3, root_witness, mixed):
    """With epsilon=0.2, delta=0.1, at least 90 percent of 200 seeded runs
    land in (1 +- 0.2) of the exact count, per fixture with count in [1, 50];
    zero-count fixtures must be exactly zero."""
    grid = [
        ("catalan", catalan, range(5, 12)),
        ("fig3", fig3, range(5, 14)),
        ("root-witness", root_witness, range(7, 14)),
        ("mixed", mixed, range(5, 12)),
    ]
    runs = 200
    lines = []
    for name, automaton, sizes in grid:
        for n in sizes:
            truth = len(brute_slice(automaton, n, budget=None))
            if truth == 0:
                est = fpras_bta(automaton, n, Config(seed=0)).estimate
                assert est == 0.0
                continue
            if truth > 50:
                continue
            started = time.time()
            hits = 0
            for seed in range(runs):
                cfg = Config(epsilon=0.2, delta=0.1, seed=seed)
                est = fpras_bta(automaton, n, cfg).estimate
                if abs(est - truth) <= 0.2 * truth:
                    hits += 1
            elapsed = time.time() - started
            assert elapsed < 300.0, f"{name} n={n} took {elapsed:.0f}s"
            assert hits >= 0.9 * runs, f"{name} n={n}: {hits}/{runs} in band"
            lines.append(f"{name}@{n}:{hits}/{runs} {elapsed:.0f}s")
    _report("4 fpras-statistical", "; ".join(lines))


def test_criterion_05_sampler_uniformity(catalan, fig3, root_witness, mixed):
    """Per seed, 10,000 accepted draws stay within total variation 0.05 of
    uniform and the per-draw failure rate stays at most 1/2, for five seeds
    per fixture; the chi-square goodness-of-fit test at significance 0.01
    runs on the five seeds pooled.  (A fixed-significance test applied to
    every seed separately would reject a perfectly uniform sampler about one
    time in twenty per seed, so the significance test uses all the evidence
    while the distance bound stays per seed.)"""
    from scipy import stats

    started = time.time()
    grid = [
        ("catalan", catalan, 9),
        ("fig3", fig3, 9),
        ("mixed", mixed, 9),
        ("root-witness", root_witness, 13),
    ]
    lines = []
    for name, automaton, n in grid:
        support = list(brute_slice(automaton, n).trees)
        assert 2 <= len(support) <= 50
        index = {t: i for i, t in enumerate(support)}
        pooled = [0] * len(support)
        for seed in range(5):
            handle = LanguageSampler(automaton, n, Config(seed=seed))
            counts = [0] * len(support)
            accepted = fails = draws = 0
            while accepted < 10_000:
                t = handle.draw()
                draws += 1
                if isinstance(t, Tree):
                    counts[index[t]] += 1
                    accepted += 1
                else:
                    fails += 1
            fail_rate = fails / draws
            assert fail_rate <= 0.5, f"{name}@{n} seed {seed}: fail rate {fail_rate:.2f}"
            tv = 0.5 * sum(abs(c / accepted - 1 / len(support)) for c in counts)
            assert tv <= 0.05, f"{name}@{n} seed {seed}: TV {tv:.3f}"
            for i, c in enumerate(counts):
                pooled[i] += c
        p = stats.chisquare(pooled).pvalue
        assert p > 0.01, f"{name}@{n}: pooled chi2 p {p:.4f}"
        lines.append(f"{name}@{n} p={p:.3f}")
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report("5 sampler-uniformity", f"{'; '.join(lines)}, {elapsed:.0f}s")


def test_criterion_06_succinct_nfa_contract():
    """Random explicit-label NFAs: estimates within 20 percent of brute force
    in at least 90 percent of seeded runs; word sampling within TV 0.05."""
    started = time.time()
    rng = random.Random(606)
    cases = nonzero = good = zeros = 0
    word_checks = 0
    while cases < 100:
        nfa = random_explicit_nfa(
            rng,
            n_states=rng.randint(2, 6),
            max_label=8,
            n_transitions=rng.randint(3, 10),
        )
        k = rng.randint(1, 5)
        truth = brute_nfa_count(nfa, k, budget=None)
        result = count_succinct_nfa(nfa, k, Config(seed=cases))
        if truth == 0:
            assert result.estimate == 0.0
            zeros += 1
        else:
            nonzero += 1
            if abs(result.estimate - truth) <= 0.2 * truth:
                good += 1
            if truth <= 50 and word_checks < 5:
                word_checks += 1
                stream = Stream.from_seed(9000 + cases)
                counts = Counter()
                i = 0
                while sum(counts.values()) < 10_000 and i < 300_000:
                    w = sample_word(result, stream.child(i))
                    i += 1
                    if isinstance(w, tuple):
                        counts[w] += 1
                total = sum(counts.values())
                assert total >= 10_000
                tv = 0.5 * (
                    sum(abs(c / total - 1 / truth) for c in counts.values())
                    + (truth - len(counts)) / truth
                )
                assert tv <= 0.05, f"case {cases}: word TV {tv:.3f}"
        cases += 1
    assert nonzero >= 30
    assert good >= 0.9 * nonzero
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(
        "6 succinct-nfa",
        f"{cases} NFAs ({zeros} empty), {good}/{nonzero} in band, "
        f"{word_checks} word-sampling checks, {elapsed:.0f}s",
    )


def test_criterion_07_exact_zero_laws(catalan, fig3):
    """Whenever brute force says zero, the estimators say exactly zero."""
    from taru.automata import TreeAutomaton
    from taru.cq import Atom, ConjunctiveQuery, Database, Var, count_cq
    from taru.snfa import ExplicitLabel, SuccinctNFA

    checks = 0
    for n in (2, 4, 6, 8, 10):
        assert fpras_bta(catalan, n, Config(seed=n)).estimate == 0.0
        assert fpras_bta(fig3, n, Config(seed=n)).estimate == 0.0
        checks += 2
    for n in (1, 3, 5):  # witness needs at least 7 nodes
        assert fpras_bta(fig3, n, Config(seed=n)).estimate == 0.0
        checks += 1
    no_leaves = TreeAutomaton({"s"}, {"a"}, [("s", "a", ("s", "s"))], "s")
    for n in (1, 3, 5, 7):
        assert fpras_bta(no_leaves, n, Config(seed=n)).estimate == 0.0
        checks += 1
    labels = {"A": ExplicitLabel("A", ("a",))}
    dead = SuccinctNFA(["s", "m", "f"], [("s", "A", "m")], "s", "f", labels)
    for k in (1, 2, 3):
        assert count_succinct_nfa(dead, k, Config(seed=k)).estimate == 0.0
        checks += 1
    q = ConjunctiveQuery("Q", ("x",), (Atom("R", (Var("x"),)),))
    db = Database({"R": set()})
    assert count_cq(q, db, None, Config(seed=1)).estimate == 0.0
    checks += 1
    _report("7 exact-zero-laws", f"{checks} cases, all exactly zero")


def test_criterion_08_application_parsimony():
    """Circuit, nested-word and existential-CSP reductions preserve counts
    exactly at desk scale."""
    from itertools import product as iproduct

    from taru.applications import (
        Ecsp,
        brute_ecsp_count,
        brute_nwa_count,
        dnnf_to_ta,
        ecsp_to_cq,
        nwa_to_bta,
        nwa_tree_size,
        truth_table_count,
    )

    started = time.time()
    rng = random.Random(808)
    for trial in range(50):
        n_vars = rng.randint(2, 12)
        circuit, vtree = random_structured_circuit(rng, n_vars)
        automaton, n = dnnf_to_ta(circuit, vtree)
        want = truth_table_count(circuit)
        got = len(brute_slice(automaton, n, budget=None))
        assert got == want, f"circuit {trial}: {got} != {want}"
    nwa_checks = 0
    for trial in range(30):
        nwa = random_nwa(rng)
        automaton = nwa_to_bta(nwa)
        for n in range(0, 7):
            want = brute_nwa_count(nwa, n)
            got = len(brute_slice(automaton, nwa_tree_size(n), budget=None))
            assert got == want, f"nwa {trial} n={n}: {got} != {want}"
            nwa_checks += 1
    for trial in range(30):
        n_vars = rng.randint(1, 3)
        names = [f"v{i}" for i in range(n_vars)]
        domain = ("0", "1", "2")[: rng.randint(1, 3)]
        constraints = []
        for _ in range(rng.randint(1, 2)):
            scope = tuple(rng.sample(names, rng.randint(1, n_vars)))
            rows = frozenset(
                row for row in iproduct(domain, repeat=len(scope))
                if rng.random() < 0.6
            )
            constraints.append((scope, rows))
        e = Ecsp(tuple(rng.sample(names, rng.randint(1, n_vars))), tuple(names),
                 domain, tuple(constraints))
        want = brute_ecsp_count(e)
        query, db = ecsp_to_cq(e)
        got = brute_cq_count(query, db)[0]
        assert got == want, f"ecsp {trial}: {got} != {want}"
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(
        "8 application-parsimony",
        f"50 circuits, 30 NWAs ({nwa_checks} lengths), 30 ECSPs, {elapsed:.0f}s",
    )


def test_criterion_09_cli_determinism(tmp_path, capsys):
    """Any subcommand run twice with the same inputs and seed emits
    byte-identical JSON apart from elapsed_ms."""
    from taru.cli import run

    aut = tmp_path / "cat.json"
    aut.write_text(json.dumps({
        "arity": 2, "alphabet": ["a"], "states": ["r"], "initial": "r",
        "transitions": [
            {"from": "r", "symbol": "a", "children": ["r", "r"]},
            {"from": "r", "symbol": "a", "children": []},
        ]}))
    mixed_path = tmp_path / "mixed.json"
    mixed_path.write_text(json.dumps({
        "arity": 2, "alphabet": ["a"],
        "states": ["u", "p", "l", "r"], "initial": "u",
        "transitions": [
            {"from": "u", "symbol": "a", "children": ["p", "r"]},
            {"from": "u", "symbol": "a", "children": ["r", "p"]},
            {"from": "p", "symbol": "a", "children": ["l", "r"]},
            {"from": "l", "symbol": "a", "children": []},
            {"from": "r", "symbol": "a", "children": ["r", "r"]},
            {"from": "r", "symbol": "a", "children": []},
        ]}))
    nfa = tmp_path / "nfa.json"
    nfa.write_text(json.dumps({
        "states": ["x0", "x1", "x2"], "initial": "x0", "final": "x2",
        "transitions": [
            {"from": "x0", "to": "x1", "label": ["a", "b"]},
            {"from": "x1", "to": "x2", "label": ["b", "c"]},
        ]}))
    q = tmp_path / "q.txt"
    q.write_text("Q(x) :- A(x), E(x,y).\n")
    d = tmp_path / "d.txt"
    d.write_text("A(1).\nA(2).\nE(1,3).\nE(2,3).\nE(2,4).\n")
    commands = [
        ["count", "--automaton", str(mixed_path), "--n", "9", "--seed", "7"],
        ["count", "--automaton", str(aut), "--n", "9", "--mode", "brute"],
        ["nfa-count", "--nfa", str(nfa), "--k", "2", "--seed", "3"],
        ["cq-count", "--query", str(q), "--database", str(d), "--seed", "5"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            code = run(argv)
            captured = capsys.readouterr()
            assert code == 0
            payload = json.loads(captured.out.strip().splitlines()[-1])
            payload.pop("elapsed_ms")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1], f"nondeterministic output for {argv}"
    _report("9 determinism", f"{len(commands)} subcommands byte-identical")


def test_criterion_10_theory_profile_smoke():
    """The literal-formula profile executes end to end on a two-state
    instance whose estimates never demand a sample, and is exact there."""
    from taru.automata import TreeAutomaton

    started = time.time()
    aut = TreeAutomaton(
        {"s0", "s1"}, {"a"},
        [("s0", "a", ("s1", "s1")), ("s1", "a", ())],
        "s0",
    )
    truth = len(brute_slice(aut, 3))
    cfg = Config(profile="theory", epsilon=0.2, delta=0.1, seed=0)
    result = fpras_bta(aut, 3, cfg)
    assert result.certificate["profile"] == "theory"
    assert abs(result.estimate - truth) <= 0.2 * truth
    assert result.estimate == float(truth)
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report("10 theory-profile", f"estimate {result.estimate} = truth {truth}, {elapsed:.2f}s")

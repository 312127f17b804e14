import random
from collections import Counter

import pytest

from taru.config import Config, RunStats, resolve_nfa_params
from taru.oracles import brute_nfa_count
from taru.rng import Stream
from taru.sampling import EMPTY, FAIL
from taru.snfa import (
    ExplicitLabel,
    NfaCounter,
    NfaError,
    SuccinctNFA,
    count_succinct_nfa,
    prune_to_paths,
    sample_word,
    unroll_nfa,
)

from genutil import frontier_rhos, random_explicit_nfa


def chain_nfa():
    labels = {
        "A": ExplicitLabel("A", ("a", "b")),
        "B": ExplicitLabel("B", ("b", "c")),
    }
    return SuccinctNFA(
        ["x0", "x1", "x2"],
        [("x0", "A", "x1"), ("x1", "B", "x2")],
        "x0", "x2", labels,
    )


def cycle_nfa():
    labels = {"A": ExplicitLabel("A", ("a",)), "B": ExplicitLabel("B", ("b",))}
    return SuccinctNFA(
        ["p", "q"], [("p", "A", "q"), ("q", "B", "p")], "p", "p", labels
    )


def test_unroll_matches_brute_counts():
    nfa = cycle_nfa()
    for k in (2, 4):
        u = unroll_nfa(nfa, k)
        assert u.is_leveled()
        assert brute_nfa_count(u, k, budget=None) == brute_nfa_count(nfa, k, budget=None)
    # Odd lengths cannot return to p.
    assert brute_nfa_count(unroll_nfa(nfa, 3), 3, budget=None) == 0


def test_unroll_k1_direct_edges():
    labels = {"A": ExplicitLabel("A", ("a", "b", "c"))}
    nfa = SuccinctNFA(["s", "f"], [("s", "A", "f")], "s", "f", labels)
    u = unroll_nfa(nfa, 1)
    assert u.word_length() == 1
    assert brute_nfa_count(u, 1, budget=None) == 3


def test_unroll_already_leveled_is_isomorphic():
    nfa = chain_nfa()
    u = unroll_nfa(nfa, 2)
    assert len(u.states) == len(nfa.states)
    assert len(u.transitions) == len(nfa.transitions)
    assert brute_nfa_count(u, 2, budget=None) == 4


def _word_member(u):
    """The counter's own membership check, which needs no run()."""
    params = resolve_nfa_params(Config(), max(1, u.size()), u.word_length())
    counter = NfaCounter(u, params, Stream.from_seed(0), RunStats())
    return lambda state, word: counter._word_member(word, state)


def test_word_membership_chain():
    u = unroll_nfa(chain_nfa(), 2)
    final = u.final
    word_membership = _word_member(u)
    assert word_membership(final, ("a", "b"))
    assert word_membership(final, ("b", "c"))
    assert not word_membership(final, ("c", "a"))
    assert not word_membership(final, ("a",))


def test_word_membership_empty_nfa():
    labels = {"A": ExplicitLabel("A", ("a",))}
    nfa = SuccinctNFA(["s", "m", "f"], [("s", "A", "m")], "s", "f", labels)
    u = prune_to_paths(unroll_nfa(nfa, 2))
    assert not u.transitions
    assert not _word_member(u)(u.final, ("a", "a"))


def _estimate(nfa, k, seed=0, **kw):
    return count_succinct_nfa(nfa, k, Config(seed=seed, **kw))


def test_count_chain_exact():
    # Singleton unions everywhere: the sweep multiplies exact label sizes.
    res = _estimate(chain_nfa(), 2)
    assert res.estimate == 4.0


def test_count_disconnected_final_is_zero():
    labels = {"A": ExplicitLabel("A", ("a",))}
    nfa = SuccinctNFA(["s", "m", "f"], [("s", "A", "m")], "s", "f", labels)
    assert _estimate(nfa, 3).estimate == 0.0


def test_count_overlapping_diamond():
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
    truth = brute_nfa_count(nfa, 2, budget=None)
    assert truth == 3
    hits = 0
    for seed in range(30):
        est = _estimate(nfa, 2, seed=seed).estimate
        if abs(est - truth) <= 0.2 * truth:
            hits += 1
    assert hits >= 27


def test_theory_profile_counts_overlap_from_label_pools():
    """Under the theory profile an explicit label's overlap with an earlier
    transition is counted from its pool, as under the practical profile, so
    a two-symbol overlap is exact and needs no sampled word."""
    labels = {
        "A": ExplicitLabel("A", ("a", "b")),
        "B": ExplicitLabel("B", ("b", "c")),
    }
    nfa = SuccinctNFA(
        ["x", "y"], [("x", "A", "y"), ("x", "B", "y"), ("y", "A", "y")],
        "x", "y", labels,
    )
    assert brute_nfa_count(nfa, 2, budget=None) == 6
    res = count_succinct_nfa(nfa, 2, Config(profile="theory", seed=0))
    assert res.estimate == 6.0


def test_count_random_nfas_against_brute():
    rng = random.Random(41)
    cases = nonzero = good = 0
    while cases < 60:
        nfa = random_explicit_nfa(rng, n_states=rng.randint(2, 6),
                                  max_label=8, n_transitions=rng.randint(3, 9))
        k = rng.randint(1, 5)
        truth = brute_nfa_count(nfa, k, budget=None)
        est = _estimate(nfa, k, seed=cases).estimate
        if truth == 0:
            assert est == 0.0
        else:
            nonzero += 1
            if abs(est - truth) <= 0.2 * truth:
                good += 1
        cases += 1
    assert nonzero >= 20
    assert good >= 0.9 * nonzero


def test_sampler_unique_path():
    labels = {"A": ExplicitLabel("A", ("a",)), "B": ExplicitLabel("B", ("b",))}
    nfa = SuccinctNFA(["s", "m", "f"], [("s", "A", "m"), ("m", "B", "f")],
                      "s", "f", labels)
    res = _estimate(nfa, 2)
    seen = set()
    stream = Stream.from_seed(5)
    for i in range(40):
        w = sample_word(res, stream.child(i))
        if isinstance(w, tuple):
            seen.add(w)
    assert seen == {("a", "b")}


def test_sampler_empty_language():
    labels = {"A": ExplicitLabel("A", ("a",))}
    nfa = SuccinctNFA(["s", "m", "f"], [("s", "A", "m")], "s", "f", labels)
    res = _estimate(nfa, 2)
    assert sample_word(res, Stream.from_seed(0)) == EMPTY


def test_sampler_near_uniform_on_chain():
    # 4-word chain: {a,b} then {b,c}.
    res = _estimate(chain_nfa(), 2, seed=3)
    words = [("a", "b"), ("a", "c"), ("b", "b"), ("b", "c")]
    counts = Counter()
    stream = Stream.from_seed(11)
    i = 0
    while sum(counts.values()) < 10_000:
        w = sample_word(res, stream.child(i))
        i += 1
        if isinstance(w, tuple):
            counts[w] += 1
    total = sum(counts.values())
    assert set(counts) <= set(words)
    tv = 0.5 * sum(abs(counts.get(w, 0) / total - 0.25) for w in words)
    assert tv <= 0.05


def test_sampler_near_uniform_with_overlap():
    labels = {
        "A": ExplicitLabel("A", ("a", "b", "c")),
        "B": ExplicitLabel("B", ("b", "c", "d")),
        "C": ExplicitLabel("C", ("e",)),
    }
    nfa = SuccinctNFA(
        ["s", "m1", "m2", "f"],
        [("s", "A", "m1"), ("s", "B", "m2"), ("m1", "C", "f"), ("m2", "C", "f")],
        "s", "f", labels,
    )
    support = {("a", "e"), ("b", "e"), ("c", "e"), ("d", "e")}
    assert brute_nfa_count(nfa, 2, budget=None) == 4
    res = _estimate(nfa, 2, seed=1)
    counts = Counter()
    stream = Stream.from_seed(2)
    i = 0
    while sum(counts.values()) < 8_000:
        w = sample_word(res, stream.child(i))
        i += 1
        if isinstance(w, tuple):
            counts[w] += 1
    total = sum(counts.values())
    assert set(counts) <= support
    tv = 0.5 * sum(abs(counts.get(w, 0) / total - 1 / len(support)) for w in support)
    assert tv <= 0.05


def test_rho_stays_below_one_minus_inverse_size():
    rng = random.Random(53)
    seen = 0
    for trial in range(40):
        nfa = random_explicit_nfa(rng, n_states=rng.randint(3, 6),
                                  n_transitions=rng.randint(4, 9))
        k = rng.randint(2, 4)
        res = _estimate(nfa, k, seed=trial)
        if res.counter is None:
            continue
        r = max(2, len(res.counter.nfa.transitions))
        for rho in frontier_rhos(res.counter):
            assert rho <= 1 - 1 / r + 0.05
            seen += 1
    assert seen >= 0  # rho loops only run at genuinely ambiguous frontiers


def test_z_order_invariance_on_symmetric_fixture():
    """Permuting transitions with equal weights leaves the accepted-symbol
    distribution unchanged (up to sampling noise)."""

    def build(order):
        labels = {
            "A": ExplicitLabel("A", ("a", "b")),
            "B": ExplicitLabel("B", ("b", "c")),
            "C": ExplicitLabel("C", ("e",)),
        }
        trans = {
            "t1": ("s", "A", "m1"),
            "t2": ("s", "B", "m2"),
        }
        listed = [trans[name] for name in order]
        listed += [("m1", "C", "f"), ("m2", "C", "f")]
        return SuccinctNFA(["s", "m1", "m2", "f"], listed, "s", "f", labels)

    def histogram(nfa, seed):
        res = _estimate(nfa, 2, seed=seed)
        counts = Counter()
        stream = Stream.from_seed(100 + seed)
        i = 0
        while sum(counts.values()) < 4000:
            w = sample_word(res, stream.child(i))
            i += 1
            if isinstance(w, tuple):
                counts[w[0]] += 1
        total = sum(counts.values())
        return {sym: c / total for sym, c in counts.items()}

    h1 = histogram(build(["t1", "t2"]), seed=0)
    h2 = histogram(build(["t2", "t1"]), seed=0)
    symbols = set(h1) | set(h2)
    tv = 0.5 * sum(abs(h1.get(s, 0) - h2.get(s, 0)) for s in symbols)
    assert tv <= 0.05


def test_walk_draws_and_rho_values_are_pinned():
    """Counts, words and rho values recorded while frontier picks went
    through Rand.weighted_index; the binary-search pick keeps every one."""
    labels = {
        "A": ExplicitLabel("A", ("a", "b", "c")),
        "B": ExplicitLabel("B", ("b", "c", "d")),
        "C": ExplicitLabel("C", ("e",)),
    }
    nfa = SuccinctNFA(
        ["s", "m1", "m2", "f"],
        [("s", "A", "m1"), ("s", "B", "m2"), ("m1", "C", "f"), ("m2", "C", "f")],
        "s", "f", labels,
    )
    res = _estimate(nfa, 2, seed=1)
    stream = Stream.from_seed(2)
    assert res.estimate == 4.171875
    assert [sample_word(res, stream.child(i)) for i in range(12)] == [
        ("c", "e"), ("b", "e"), FAIL, ("a", "e"), ("a", "e"), ("b", "e"),
        ("b", "e"), FAIL, ("a", "e"), ("d", "e"), ("d", "e"), ("d", "e"),
    ]
    assert frontier_rhos(res.counter) == [0.3225, 0.345]

    nfa = random_explicit_nfa(random.Random(65), n_states=4, n_transitions=8,
                              max_label=4, universe_size=6)
    res = _estimate(nfa, 3, seed=65)
    stream = Stream.from_seed(5)
    assert res.estimate == 70.59375
    assert [sample_word(res, stream.child(i)) for i in range(10)] == [
        ("a", "b", "d"), ("d", "f", "b"), ("d", "e", "b"), FAIL, FAIL,
        ("d", "d", "f"), FAIL, ("e", "e", "d"), ("a", "f", "d"), FAIL,
    ]
    assert frontier_rhos(res.counter) == [0.3225, 0.0675, 0.0825, 0.4175]


def test_explicit_label_contract():
    lab = ExplicitLabel("L", ("a", "b", "c"))
    assert lab.size_est() == 3.0
    assert lab.member("a") and not lab.member("z")
    draw = lab.new_sampler(Stream.from_seed(4))
    seen = {draw() for _ in range(60)}
    assert seen == {"a", "b", "c"}


@pytest.mark.parametrize("elements", [(), ("a", "a")], ids=["empty", "duplicate"])
def test_explicit_label_rejects_empty_and_duplicate_symbols(elements):
    """A label that listed a symbol twice would count it twice: size_est
    counts the listed elements, while brute force counts distinct words."""
    with pytest.raises(NfaError):
        SuccinctNFA(["s", "f"], [("s", "k", "f")], "s", "f",
                    {"k": ExplicitLabel("k", elements)})


def test_one_symbol_label_draws_without_randomness(monkeypatch):
    def no_rand(stream):
        raise AssertionError("a forced draw read its stream")

    lab = ExplicitLabel("&", ("&",))
    monkeypatch.setattr(Stream, "rand", no_rand)
    draw = lab.new_sampler(Stream.from_seed(4).child("label"))
    assert [draw() for _ in range(20)] == ["&"] * 20


def test_certificate_reports_sampler_failures():
    result = count_succinct_nfa(chain_nfa(), 2, Config(seed=3))
    warnings = result.certificate["warnings"]
    assert warnings["nfa_sampler_failures"] == result.counter.stats.nfa_sampler_failures


def test_word_membership_matches_brute_enumeration():
    rng = random.Random(61)
    for trial in range(25):
        nfa = random_explicit_nfa(rng, n_states=rng.randint(2, 5),
                                  max_label=4, universe_size=5,
                                  n_transitions=rng.randint(2, 6))
        k = rng.randint(1, 4)
        u = unroll_nfa(nfa, k)
        if not u.transitions:
            continue
        # Brute: every word over the label universe of the right length.
        from itertools import product as iproduct

        universe = sorted({a for lab in u.labels.values() for a in lab.elements})
        accepted = set()
        word_membership = _word_member(u)
        for w in iproduct(universe, repeat=k):
            if word_membership(u.final, w):
                accepted.add(w)
        from taru.oracles import brute_nfa_count

        assert len(accepted) == brute_nfa_count(u, k, budget=None)


def test_subset_deviation_bound_with_large_sketches():
    """On a small fixture with generously sized sketches, the sketch-measured
    complement fractions track the true ones within epsilon / size for a
    sample of random subsets."""
    import random as pyrandom

    from taru.config import NfaParams
    from taru.snfa import NfaCounter, prune_to_paths

    labels = {
        "A": ExplicitLabel("A", ("a", "b", "c")),
        "B": ExplicitLabel("B", ("b", "c", "d")),
        "C": ExplicitLabel("C", ("e", "f")),
    }
    nfa = SuccinctNFA(
        ["s", "m1", "m2", "f"],
        [("s", "A", "m1"), ("s", "B", "m2"), ("m1", "C", "f"), ("m2", "C", "f")],
        "s", "f", labels,
    )
    leveled = prune_to_paths(unroll_nfa(nfa, 2))
    eps = 0.8
    r = leveled.size()
    params = NfaParams(d_trials=64, beta=4000, m_rho=32, walk_cap=2048)
    counter = NfaCounter(leveled, params, Stream.from_seed(7).child("dev"), RunStats())
    counter.run()
    rng = pyrandom.Random(5)
    states = [s for s in leveled.states
              if s not in (leveled.initial,) and counter.est.get(s, 0) > 0]
    checked = 0
    for state in states:
        pool = counter.word_pool(state)
        n_words = {
            s2: {w for w in _all_words(counter, s2)} for s2 in states
        }
        true_set = n_words[state]
        earlier = [s2 for s2 in states
                   if counter.nfa.levels[s2] == counter.nfa.levels[state]
                   and s2 != state]
        for _ in range(100):
            subset = [s2 for s2 in earlier if rng.random() < 0.5]
            blocked = set().union(*(n_words[s2] for s2 in subset)) if subset else set()
            sketch_frac = sum(1 for w in pool if w not in blocked) / len(pool)
            true_frac = (
                sum(1 for w in true_set if w not in blocked) / len(true_set)
            )
            assert abs(sketch_frac - true_frac) <= eps / r + 0.02
            checked += 1
    assert checked >= 100


def _all_words(counter, state):
    from itertools import product as iproduct

    universe = sorted(
        {a for lab in counter.nfa.labels.values() for a in lab.elements}
    )
    k = counter.nfa.levels[state]
    out = set()
    for w in iproduct(universe, repeat=k):
        if counter._word_member(w, state):
            out.add(w)
    return out

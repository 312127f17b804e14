import random

import pytest

from taru.config import RunStats
from taru.oracles import brute_completions
from taru.rng import Rand, Stream
from taru.sampling import (
    EMPTY,
    FAIL,
    ChoiceNode,
    SamplingError,
    immediate_extensions,
    min_hole,
    sample_tree,
)
from taru.trees import Tree, hole, leaf, parse_tree

from genutil import random_partial_tree


def test_min_hole_single():
    t = Tree("a", (hole(5), leaf("a")))
    assert min_hole(t) == (1,)


def test_min_hole_size_break():
    t = Tree("a", (hole(5), hole(3)))
    assert min_hole(t) == (2,)


def test_min_hole_address_tie_break():
    # Equal sizes at addresses (1,2) and (2,1): the lexicographically
    # smaller address wins.
    t = Tree(
        "a",
        (
            Tree("a", (leaf("a"), hole(3))),
            Tree("a", (hole(3), leaf("a"))),
        ),
    )
    assert min_hole(t) == (1, 2)


def test_min_hole_requires_a_hole():
    with pytest.raises(SamplingError):
        min_hole(parse_tree("a(b,c)"))


def test_extensions_leaf_fill():
    t = hole(1)
    out = immediate_extensions(t, (), {"a", "b"}, {"a"})
    assert [x.label for x in out] == ["a", "b"]


def test_extensions_split_counts():
    t = hole(5)
    out = immediate_extensions(t, (), {"b"}, {"a"})
    assert len(out) == 3  # j in {1, 2, 3}
    assert all(x.full_size == 5 and x.label == "a" for x in out)
    assert immediate_extensions(hole(2), (), {"a"}, {"a"}) == []


def test_extensions_partition_completions(catalan):
    """Union over extensions equals the parent's completions, disjointly."""
    rng = random.Random(5)
    for trial in range(40):
        size = rng.choice([5, 7, 9])
        t = random_partial_tree(rng, {"a"}, size, rng.randint(0, 3))
        if t.is_complete():
            continue
        u = min_hole(t)
        parent = set(brute_completions(catalan, t, "r", size, budget=None))
        union = set()
        for child in immediate_extensions(t, u, {"a"}, {"a"}):
            part = set(brute_completions(catalan, child, "r", size, budget=None))
            assert not (union & part), "extension completions overlap"
            union |= part
        assert union == parent


def _positive(estimator):
    """The liveness test sample_tree needs beside an estimator."""
    return lambda t: estimator(t) > 0.0


def test_sample_tree_empty():
    out = sample_tree(ChoiceNode(hole(3)), {"a"}, {"a"}, lambda t: True, lambda t: 1.0, 0.0,
                      Stream.from_seed(0), RunStats())
    assert out == EMPTY


def test_sample_tree_unique_language():
    # Estimator that admits only the left-chain tree of size 5.
    target = parse_tree("a(a(a,a),a)")

    def estimator(t):
        return 1.0 if _compatible(t, target) else 0.0

    def _compatible(partial: Tree, goal: Tree) -> bool:
        if partial.is_hole():
            return partial.label == goal.size
        if partial.label != goal.label or len(partial.children) != len(goal.children):
            return False
        return all(_compatible(p, g) for p, g in zip(partial.children, goal.children))

    seen = set()
    for i in range(40):
        out = sample_tree(ChoiceNode(hole(5)), {"a"}, {"a"}, _positive(estimator), estimator,
                          1.0, Stream.from_seed(i), RunStats())
        if isinstance(out, Tree):
            seen.add(out)
    assert seen == {target}


def _unpruned_sample_tree(level, alphabet, estimator, slice_estimate, stream):
    """sample_tree's walk with zero-weight candidates left in."""
    rand = stream.rand()
    t = hole(level)
    phi = 1.0
    while not t.is_complete():
        options = immediate_extensions(t, min_hole(t), alphabet, alphabet)
        weights = [estimator(c) for c in options]
        if sum(weights) <= 0.0:
            return FAIL
        k = rand.weighted_index(weights)
        phi *= weights[k] / sum(weights)
        t = options[k]
    return t if rand.bernoulli(min(1.0, 1.0 / (2.0 * phi * slice_estimate))) else FAIL


def test_sample_tree_expansion_memo_changes_no_draw():
    """Draws that share a choice tree equal draws that each grow their own,
    and dropping zero-weight candidates changes no draw."""

    def estimator(t):
        return float(t.size)

    def pruning_estimator(t):
        # Zero for every b-rooted candidate and some others.
        return 0.0 if t.label == "b" or t.size % 4 == 0 else float(t.size)

    for est in (estimator, pruning_estimator):
        root = ChoiceNode(hole(7))
        for i in range(30):
            plain = sample_tree(ChoiceNode(hole(7)), {"a", "b"}, {"a", "b"}, _positive(est),
                                est, 50.0, Stream.from_seed(i), RunStats())
            shared = sample_tree(root, {"a", "b"}, {"a", "b"}, _positive(est), est, 50.0,
                                 Stream.from_seed(i), RunStats())
            assert shared == plain
            assert plain == _unpruned_sample_tree(
                7, {"a", "b"}, est, 50.0, Stream.from_seed(i)
            )
        assert root.cum is not None
    expanded, nodes = [], [root]
    while nodes:
        node = nodes.pop()
        if node.cum is not None:
            expanded.append(node)
            nodes.extend(c for c in node.children if c is not None)
    assert any(len(node.options)
               < len(immediate_extensions(node.tree, min_hole(node.tree), {"a", "b"},
                                          {"a", "b"}))
               for node in expanded)


def test_lone_live_candidates_are_not_counted():
    """The estimator is asked only at nodes with two or more live
    candidates; a lone live one is weighted 1.0, and the draws equal those
    of the walk that counts every candidate."""
    def live(t):
        return all(n.label != "b" or n.children for _, n in t.nodes())

    asked = set()

    def estimator(t):
        asked.add(t)
        return float(t.size) if live(t) else 0.0

    root = ChoiceNode(hole(7))
    drawn = [sample_tree(root, {"a", "b"}, {"a", "b"}, live, estimator, 50.0,
                         Stream.from_seed(i), RunStats()) for i in range(30)]
    counted = set(asked)
    assert drawn == [_unpruned_sample_tree(7, {"a", "b"}, estimator, 50.0, Stream.from_seed(i))
                     for i in range(30)]
    lone = real = 0
    nodes = [root]
    while nodes:
        node = nodes.pop()
        if node.cum is None:
            continue
        nodes.extend(c for c in node.children if c is not None)
        if len(node.options) == 1:
            lone += 1
            assert node.weights == [1.0] and node.options[0] not in counted
        else:
            real += 1
            assert all(c in counted for c in node.options)
    assert lone > 10 and real > 10


def test_sample_tree_pass_count_bookkeeping(monkeypatch):
    """One loop pass per node: a size-i draw expands exactly i nodes on its
    path, and the acceptance coin reads the branch product of the recorded
    ratios."""
    coins = []
    bernoulli = Rand.bernoulli

    def recorded_bernoulli(rand, p):
        coins.append(p)
        return bernoulli(rand, p)

    monkeypatch.setattr(Rand, "bernoulli", recorded_bernoulli)
    root = ChoiceNode(hole(7))
    out = sample_tree(root, {"a"}, {"a"}, lambda t: True, lambda t: 1.0, 5.0,
                      Stream.from_seed(3), RunStats())
    assert out == FAIL or isinstance(out, Tree)
    expanded, phi, node = 0, 1.0, root
    while node.cum is not None:
        expanded += 1
        (k,) = [k for k, c in enumerate(node.children) if c is not None]
        phi *= node.weights[k] / node.total
        node = node.children[k]
    assert expanded == 7
    assert node.tree.is_complete() and node.tree.size == 7
    assert 0.0 < phi <= 1.0
    assert coins == [min(1.0, 1.0 / (2.0 * phi * 5.0))]

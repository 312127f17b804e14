"""Top-down uniform tree sampling via partial trees.

A sample from the size-i language of a state is grown from a single hole of
size i.  Each round expands the smallest hole into every compatible root
symbol and left/right size split; one branch is chosen with probability
proportional to an estimate of how many completions it admits.  Only
ratios of estimates are read, so a branch that is the only one with a
completion is taken without estimating it.  A final acceptance coin with
probability 1/(2 * branch-product * slice-estimate) makes accepted outputs
exactly uniform, because the product of branch probabilities cancels.
"""

from __future__ import annotations

from typing import Callable

from .config import RunStats
from .rng import Stream, cumulative
from .trees import Tree, hole, leaf

FAIL = "FAIL"
EMPTY = "EMPTY"


class SamplingError(ValueError):
    pass


def min_hole(t: Tree) -> tuple[int, ...]:
    """Address of the smallest hole; ties go to the lexicographically
    smallest node address."""
    best = None
    for addr, size in t.holes():
        key = (size, addr)
        if best is None or key < best:
            best = key
    if best is None:
        raise SamplingError("tree is complete, no hole to pick")
    return best[1]


def immediate_extensions(
    t: Tree, address: tuple[int, ...], leaf_symbols, node_symbols
) -> list[Tree]:
    """All one-step expansions of the hole at the address, symbols in sorted
    order.

    A hole of size 1 becomes a leaf labelled from leaf_symbols; a hole of
    size v >= 3 becomes a node labelled from node_symbols with two fresh
    holes of sizes j and v-1-j for each j in [1, v-2].  When the two sets
    hold every symbol of a leaf, resp. binary, transition, the resulting
    partial trees partition the completions of t over that hole; any other
    symbol would only add candidates with none.  Size-2 holes admit no
    expansion (no two-node trees with 0/2 children).
    """
    node = t.node(address)
    if not node.is_hole():
        raise SamplingError(f"no hole at address {address}")
    v = node.label
    if v == 1:
        return [t.replace(address, leaf(a)) for a in sorted(leaf_symbols)]
    return [
        t.replace(address, Tree(a, (hole(j), hole(v - 1 - j))))
        for a in sorted(node_symbols)
        for j in range(1, v - 1)
    ]


class ChoiceNode:
    """One partial tree on the walk from a root hole: its live candidates,
    their weights (1.0 for a lone one, which is not counted), total and
    running sums, and a child node per candidate, made when that candidate
    is first picked.  The smallest hole is always expanded first, so each
    partial tree has one parent and the nodes form a tree."""

    __slots__ = ("tree", "options", "weights", "total", "cum", "children")

    def __init__(self, tree: Tree):
        self.tree = tree
        self.cum = None  # set, with the rest, when the node is expanded

    def expand(self, leaf_symbols, node_symbols, live: Callable[[Tree], bool],
               estimator: Callable[[Tree], float]) -> None:
        options = list(filter(live, immediate_extensions(
            self.tree, min_hole(self.tree), leaf_symbols, node_symbols)))
        if len(options) > 1:
            weights = list(map(estimator, options))
        else:
            # A lone live candidate is picked whatever its weight: w / w is
            # 1.0 for every positive w, and Rand.pick over one running sum
            # returns 0 after its one random().  So it is not counted.
            weights = [1.0] * len(options)
        self.options = options
        self.weights = weights
        self.total = sum(weights)
        self.children = [None] * len(options)
        self.cum = cumulative(weights)

    def child(self, k: int) -> "ChoiceNode":
        node = self.children[k]
        if node is None:
            node = self.children[k] = ChoiceNode(self.options[k])
        return node


def sample_tree(
    root: ChoiceNode,
    leaf_symbols,
    node_symbols,
    live: Callable[[Tree], bool],
    estimator: Callable[[Tree], float],
    slice_estimate: float,
    stream: Stream,
    stats: RunStats,
):
    """One draw from the trees of the language behind `estimator` that
    complete `root`'s partial tree (a single hole, for a whole slice),
    grown with the symbols `immediate_extensions` takes; returns a complete
    Tree, FAIL, or EMPTY.  A clamped acceptance probability bumps
    `stats.clamped_accepts`.

    `live(c)` must hold exactly when `estimator(c) > 0`.  Candidates it
    rejects are dropped: `weighted_index` never picks a weight of zero and
    it adds nothing to the total, so `Rand.pick` picks what it would.  The
    estimator is asked only where two or more candidates are live, and once
    per candidate: the choice tree under `root` keeps every weight across
    draws, so it must only be shared between draws with the same live test
    and estimator."""
    if slice_estimate <= 0.0:
        return EMPTY
    rand = stream.rand()
    node = root
    phi = 1.0
    while not node.tree.is_complete():
        if node.cum is None:
            node.expand(leaf_symbols, node_symbols, live, estimator)
        if node.total <= 0.0:
            return FAIL
        k = rand.pick(node.cum)
        phi *= node.weights[k] / node.total
        node = node.child(k)
    accept = 1.0 / (2.0 * phi * slice_estimate)
    if accept > 1.0:
        accept = 1.0
        stats.clamped_accepts += 1
    if rand.bernoulli(accept):
        return node.tree
    return FAIL

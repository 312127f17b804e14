"""Exact answers for the benchmark inputs, computed without importing taru.

Trees are plain nested tuples ``(label, (child, ...))``; a program tree is
converted with ``as_tuple``, which reads only its ``label`` and ``children``
attributes.  Automata are the benchmark's own transition tables, the same
tables the workloads hand to ``taru.TreeAutomaton``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, sqrt


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _internal(n: int) -> int:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"binary trees have an odd size, not {n}")
    return (n - 1) // 2


def exact_catalan(n: int) -> int:
    """Every binary tree of size n over one symbol."""
    return catalan(_internal(n))


def exact_fig3(n: int) -> int:
    """Trees with a node whose two children are both internal: all trees
    minus the 2^(m-1) caterpillars, in which every internal node has a leaf
    child."""
    m = _internal(n)
    return catalan(m) - (2 ** (m - 1) if m >= 1 else 1)


def exact_root_witness(n: int) -> int:
    """Trees whose root has two internal children: all trees minus those
    with a leaf as left or as right root child (never both once m >= 2)."""
    m = _internal(n)
    if m < 3:
        return 0
    return catalan(m) - 2 * catalan(m - 1)


@lru_cache(maxsize=None)
def binary_trees(n: int) -> tuple:
    """All binary trees of size n over the fixtures' one symbol "a"."""
    if n == 1:
        return (("a", ()),)
    out = []
    for left in range(1, n - 1, 2):
        for lt in binary_trees(left):
            for rt in binary_trees(n - 1 - left):
                out.append(("a", (lt, rt)))
    return tuple(out)


def derive(transitions, tree) -> frozenset:
    """States from which the transition table derives the tree (bottom up)."""
    label, kids = tree
    kid_states = [derive(transitions, k) for k in kids]
    return frozenset(
        src
        for src, symbol, children in transitions
        if symbol == label
        and len(children) == len(kids)
        and all(c in s for c, s in zip(children, kid_states))
    )


def accepts(fixture, tree) -> bool:
    transitions, initial = fixture
    return initial in derive(transitions, tree)


def slice_texts(fixture, n: int) -> list[str]:
    """Text of every accepted tree of size n, by enumeration and run check."""
    return [text(t) for t in binary_trees(n) if accepts(fixture, t)]


def as_tuple(tree) -> tuple:
    return (tree.label, tuple(as_tuple(c) for c in tree.children))


def size(tree) -> int:
    return 1 + sum(size(c) for c in tree[1])


def text(tree) -> str:
    label, kids = tree
    if not kids:
        return label
    return label + "(" + ",".join(text(k) for k in kids) + ")"


def union_answers(edges, starts) -> set:
    """Answers (x, y) of the union over start relations P of
    Q(x, y) :- P(x), E(x, y), by a plain nested-loop join."""
    out = set()
    for start in starts:
        for x in start:
            for a, b in edges:
                if a == x:
                    out.add((x, b))
    return out


def within(estimate: float, truth: int, epsilon: float) -> bool:
    return abs(estimate - truth) <= epsilon * truth


def uniformity(counts: dict, support: list[str]) -> tuple[float, float]:
    """Total-variation distance of the draw counts from uniform over the
    support, and the threshold it must not exceed.

    The threshold is 0.05, the per-seed distance the acceptance suite allows
    a 10,000-draw sample, plus twice the expected distance of a perfectly
    uniform sampler at this sample size, 0.4 * sqrt(K / D) for K cells and D
    draws.  Draws outside the support count fully against the sampler.
    """
    draws = sum(counts.values())
    k = len(support)
    inside = {t: counts.get(t, 0) for t in support}
    outside = draws - sum(inside.values())
    tv = 0.5 * (sum(abs(c / draws - 1.0 / k) for c in inside.values()) + outside / draws)
    return tv, 0.05 + 0.8 * sqrt(k / draws)

"""Counting completions of a partial tree through a succinct NFA.

Partial trees produced by smallest-hole-first expansion have nested holes:
their parents sit on one root-to-leaf chain, the *main path*.  Filling the
holes in order turns a completion into a word t_1 ... t_k of whole subtrees,
and the ways a run can thread states along the main path form an NFA whose
transitions carry entire tree languages as labels.  Completions of the
partial tree then correspond one-to-one to accepted words of the form
'&' t_1 ... t_k, so counting completions reduces to counting NFA words of
length (number of holes) + 1.

The NFA is laid out forward, level by level: level l holds states q@l for
the base states a run can carry at the l-th main-path vertex, and
transitions leave only the states reached from s0.  One reversed pass then
drops the transitions that cannot reach se.  States keep their level-major,
sorted order and transitions their emission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .automata import UndeclaredSymbolError
from .snfa import ExplicitLabel, LabelOracle, NfaTransition, SuccinctNFA
from .trees import Tree
from .unrolling import UnrolledAutomaton

AMP = "&"


class MainPathError(ValueError):
    """The partial tree did not arise from smallest-hole-first expansion."""


@dataclass(frozen=True)
class MainPath:
    holes: tuple[tuple[int, ...], ...]
    hole_sizes: tuple[int, ...]
    vertices: tuple[tuple[int, ...], ...]
    vertex_sizes: tuple[int, ...]
    terminal_is_hole: bool

    @property
    def k(self) -> int:
        return len(self.holes)


def _is_prefix(a: tuple, b: tuple) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def main_path(t: Tree) -> MainPath:
    """Order the holes so each one's parent is an ancestor of the next, and
    collect the chain of their parents.  When the last two holes share a
    parent the chain ends at the deeper hole itself; a lone hole at the root
    is its own chain."""
    holes = t.holes()
    if not holes:
        raise MainPathError("complete tree has no main path")
    addrs = [addr for addr, _ in holes]
    # Parent depth first, then left child before right child.
    addrs.sort(key=lambda a: (len(a), a))
    parents = [a[:-1] if a else None for a in addrs]
    k = len(addrs)
    for i in range(k - 1):
        if parents[i] is None or not _is_prefix(parents[i], addrs[i + 1]):
            raise MainPathError(
                f"hole nesting violated between {addrs[i]} and {addrs[i + 1]}; "
                "the tree was not grown smallest-hole-first"
            )
    for i in range(k - 2):
        if parents[i] == parents[i + 1]:
            raise MainPathError(
                f"holes {addrs[i]} and {addrs[i + 1]} share a parent but are "
                "not the last two on the chain"
            )
    vertices = []
    terminal_is_hole = False
    for i, addr in enumerate(addrs):
        if parents[i] is None:
            # Hole at the root: it must be the only node.
            if k != 1:
                raise MainPathError("root hole in a tree with several holes")
            vertices.append(addr)
            terminal_is_hole = True
        elif i == k - 1 and k >= 2 and parents[i] == parents[i - 1]:
            vertices.append(addr)
            terminal_is_hole = True
        else:
            vertices.append(parents[i])
    hole_sizes = tuple(t.node(a).label for a in addrs)
    vertex_sizes = tuple(t.node(v).full_size for v in vertices)
    for i in range(k - 1):
        if vertex_sizes[i] <= vertex_sizes[i + 1]:
            raise MainPathError("main path subtree sizes must strictly decrease")
    return MainPath(tuple(addrs), hole_sizes, tuple(vertices), vertex_sizes, terminal_is_hole)


class HoleFilter:
    """Restricts a hole of size h to the states s with allowed(s, h).  Each
    size is asked about once, and the up_states answers for partial trees
    under the filter are kept across calls, so allowed must give the same
    answer every time it is asked."""

    def __init__(self, states, allowed: Callable[[str, int], bool]):
        self.states = frozenset(states)
        self.allowed = allowed
        self.memo: dict[Tree, frozenset[str]] = {}
        self._at: dict[int, frozenset[str]] = {}

    def at(self, size: int) -> frozenset[str]:
        hit = self._at.get(size)
        if hit is None:
            hit = self._at[size] = frozenset(s for s in self.states if self.allowed(s, size))
        return hit


def _derived(base, t: Tree) -> frozenset[str]:
    """States deriving the complete tree; none if it uses an undeclared
    symbol."""
    try:
        return base.derive_states(t)
    except UndeclaredSymbolError:
        return frozenset()


def up_states(
    unrolled: UnrolledAutomaton,
    t: Tree,
    hole_filter: Optional[HoleFilter] = None,
) -> frozenset[str]:
    """States from which the partial subtree has a run, where a hole of size
    h matches any state, or only hole_filter.at(h).  Complete subtrees are
    answered from the automaton's derive_states cache; answers for partial
    ones are kept in the filter's memo, or for this call only."""
    base = unrolled.base
    if t.is_complete():
        return _derived(base, t)
    memo = {} if hole_filter is None else hole_filter.memo

    def up(t: Tree) -> frozenset[str]:
        if t.is_complete():
            return _derived(base, t)
        if t.is_hole():
            return base.states if hole_filter is None else hole_filter.at(t.label)
        hit = memo.get(t)
        if hit is not None:
            return hit
        kids = [up(c) for c in t.children]
        result = memo[t] = frozenset(
            tr.src
            for tr in base.by_symbol.get((t.label, len(kids)), ())
            if all(tr.children[i] in kids[i] for i in range(len(kids)))
        )
        return result

    return up(t)


def extended_run_exists(
    unrolled: UnrolledAutomaton,
    t: Tree,
    state: str,
    hole_filter: Optional[HoleFilter] = None,
) -> bool:
    """Is there a run over the partial tree from (state, full size), treating
    holes as wildcards that accept any state at their level (or the states
    hole_filter allows)?"""
    return state in up_states(unrolled, t, hole_filter)


def _walk_down(
    unrolled: UnrolledAutomaton,
    t: Tree,
    start: tuple[int, ...],
    target: tuple[int, ...],
    states: frozenset[str],
) -> frozenset[str]:
    """States a run can carry at `target` when it carries one of `states` at
    `start`, an ancestor-or-self of `target`.  Branches off the path between
    them must be fully derivable."""
    base = unrolled.base
    node = t.node(start)
    for step in target[len(start):]:
        kids = node.children
        others = [(i, up_states(unrolled, c)) for i, c in enumerate(kids) if i != step - 1]
        states = frozenset(
            tr.children[step - 1]
            for tr in base.by_symbol.get((node.label, len(kids)), ())
            if tr.src in states and all(tr.children[i] in up for i, up in others)
        )
        node = kids[step - 1]
    return states


@dataclass
class PartitionNFA:
    nfa: SuccinctNFA
    hole_count: int

    @property
    def word_length(self) -> int:
        return self.hole_count + 1


def build_partition_nfa(
    unrolled: UnrolledAutomaton,
    t: Tree,
    state: str,
    label_factory: Callable[[str, int], LabelOracle],
) -> PartitionNFA:
    """The NFA whose accepted words '&' t_1 ... t_k are exactly the ways to
    complete the partial tree from (state, full size).

    label_factory(hole_state, hole_size) supplies the tree-language oracle
    used on the transition that fills a hole; it is asked only for labels
    the returned NFA uses.  A complete input yields the one-transition NFA
    accepting '&' when the tree is accepted, and an empty one otherwise.
    """
    base = unrolled.base
    size = t.full_size
    if size > unrolled.n:
        raise ValueError("partial tree is larger than the unrolled level count")
    amp = ExplicitLabel("&", (AMP,))
    if t.is_complete():
        levels = {"s0": 0, "se": 1}
        if t.size == size and state in base.derive_states(t):
            nfa = SuccinctNFA(
                ["s0", "se"], [NfaTransition("s0", "&", "se")], "s0", "se", {"&": amp}, levels
            )
        else:
            nfa = SuccinctNFA(["s0", "se"], [], "s0", "se", {}, levels)
        return PartitionNFA(nfa, 0)
    path = main_path(t)
    k = path.k
    wanted: dict[str, tuple[str, int]] = {}

    def label_key(hole_state: str, hole_size: int) -> str:
        key = f"T:{hole_state}:{hole_size}"
        wanted[key] = (hole_state, hole_size)
        return key

    # layers[lvl] holds (source base state, transition) for the transitions
    # out of level lvl, emitted only from states reached from s0.
    front = _walk_down(unrolled, t, (), path.vertices[0], frozenset((state,)))
    layers = [[(None, NfaTransition("s0", "&", f"{q}@1")) for q in sorted(front)]]

    for ell in range(k - 1):
        v = path.vertices[ell]
        hole_step = path.holes[ell][len(v)]
        path_step = 3 - hole_step  # binary: the other child
        child_addr = v + (path_step,)
        hole_size = path.hole_sizes[ell]
        below: dict[str, list[str]] = {}
        layer = []
        reached: set[str] = set()
        for tr in base.by_symbol.get((t.node(v).label, 2), ()):
            if tr.src not in front:
                continue
            onpath = tr.children[path_step - 1]
            dsts = below.get(onpath)
            if dsts is None:
                dsts = below[onpath] = sorted(
                    _walk_down(unrolled, t, child_addr, path.vertices[ell + 1],
                               frozenset((onpath,)))
                )
                reached.update(dsts)
            if not dsts:
                continue
            src = f"{tr.src}@{ell + 1}"
            key = label_key(tr.children[hole_step - 1], hole_size)
            for q2 in dsts:
                layer.append((tr.src, NfaTransition(src, key, f"{q2}@{ell + 2}")))
        layers.append(layer)
        front = reached

    last_size = path.hole_sizes[k - 1]
    if path.terminal_is_hole:
        layer = [
            (q, NfaTransition(f"{q}@{k}", label_key(q, last_size), "se")) for q in sorted(front)
        ]
    else:
        v = path.vertices[k - 1]
        node = t.node(v)
        hole_step = path.holes[k - 1][len(v)]
        other_step = 3 - hole_step
        other_up = up_states(unrolled, node.children[other_step - 1])
        layer = [
            (tr.src, NfaTransition(
                f"{tr.src}@{k}", label_key(tr.children[hole_step - 1], last_size), "se"))
            for tr in base.by_symbol.get((node.label, 2), ())
            if tr.src in front and tr.children[other_step - 1] in other_up
        ]
    layers.append(layer)

    # One reversed pass keeps the transitions that can still reach se.
    alive = {"se"}
    for lvl in range(k, -1, -1):
        layers[lvl] = [(q, tr) for q, tr in layers[lvl] if tr.dst in alive]
        alive.update(tr.src for _, tr in layers[lvl])
    states = ["s0"]
    levels = {"s0": 0, "se": k + 1}
    for lvl in range(1, k + 1):
        for q in sorted({q for q, _ in layers[lvl]}):
            name = f"{q}@{lvl}"
            states.append(name)
            levels[name] = lvl
    states.append("se")
    transitions = [tr for layer in layers for _, tr in layer]
    labels: dict[str, LabelOracle] = {"&": amp} if transitions else {}
    for tr in transitions:
        if tr.label not in labels:
            labels[tr.label] = label_factory(*wanted[tr.label])
    nfa = SuccinctNFA(states, transitions, "s0", "se", labels, levels)
    bound = 3 * (size * base.size) ** 4
    if nfa.size() > bound:
        raise AssertionError(f"partition NFA size {nfa.size()} exceeds the bound {bound}")
    return PartitionNFA(nfa, k)

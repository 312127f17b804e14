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
drops the transitions that cannot reach se.  The layout is kept as plain
base-state tuples, and only a caller that needs the NFA itself turns it
into named states, transitions and labels.  States keep their level-major,
sorted order and transitions their emission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import contains
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
    is its own chain.  Each vertex is a proper descendant of the one before,
    so their subtrees strictly shrink."""
    holes = t.holes()
    if not holes:
        raise MainPathError("complete tree has no main path")
    if len(holes) > 1:
        # Parent depth first, then left child before right child.
        holes.sort(key=lambda h: (len(h[0]), h[0]))
    addrs = tuple(addr for addr, _ in holes)
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
    hole_sizes = tuple(size for _, size in holes)
    return MainPath(addrs, hole_sizes, tuple(vertices), terminal_is_hole)


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


def up_states(unrolled: UnrolledAutomaton, t: Tree, hole_filter: HoleFilter) -> frozenset[str]:
    """States from which the partial tree has a run, where a hole of size h
    matches the states hole_filter.at(h).  Complete subtrees are answered
    from the automaton's derive_states cache, and answers for partial ones
    are kept in the filter's memo.  One pass with an explicit stack, so any
    depth works; each child is looked up once."""
    base = unrolled.base
    by_symbol = base.by_symbol
    memo = hole_filter.memo

    def known(t: Tree) -> Optional[frozenset[str]]:
        if t.is_complete():
            return _derived(base, t)
        if t.is_hole():
            return hole_filter.at(t.label)
        return memo.get(t)

    result = known(t)
    # Each frame holds a partial subtree not in the memo and the answers
    # for its first children.
    stack = [] if result is not None else [(t, [])]
    while stack:
        node, kids = stack[-1]
        if len(kids) < len(node.children):
            child = node.children[len(kids)]
            up = known(child)
            if up is None:
                stack.append((child, []))
            else:
                kids.append(up)
            continue
        stack.pop()
        result = memo[node] = frozenset(
            tr.src
            for tr in by_symbol.get((node.label, len(kids)), ())
            if all(map(contains, kids, tr.children))
        )
        if stack:
            stack[-1][1].append(result)
    return result


def _walk_down(
    unrolled: UnrolledAutomaton,
    node: Tree,
    steps: tuple[int, ...],
    states: frozenset[str],
) -> frozenset[str]:
    """States a run can carry at the descendant of `node` that the child
    steps (1 or 2) lead to, when it carries one of `states` at `node`.  The
    sibling off the way down at each step is complete and must be
    derivable.  The automaton is binary, so a node of another arity carries
    no state."""
    base = unrolled.base
    by_symbol = base.by_symbol
    for step in steps:
        kids = node.children
        if len(kids) != 2:
            return frozenset()
        i, j = step - 1, 2 - step
        up = _derived(base, kids[j])
        states = frozenset(
            tr.children[i]
            for tr in by_symbol.get((node.label, 2), ())
            if tr.src in states and tr.children[j] in up
        )
        node = kids[i]
    return states


@dataclass
class PartitionNFA:
    nfa: SuccinctNFA


@dataclass
class PartitionLayout:
    """The pruned transitions of a completion NFA, before any state name or
    label is made.  layers[l] holds the transitions out of level l, in
    emission order, as base-state tuples (src, hole_state, hole_size, dst):
    src None stands for s0 and dst None for se, and the level-0 transitions
    read '&' (hole_state None, hole_size 0).  states counts the NFA's
    states, s0 and se included, and bound is the size the NFA may not
    exceed."""

    layers: list[list[tuple]]
    hole_count: int
    states: int
    bound: int

    def nfa_size(self, label_bits: Callable[[str, int], float]) -> int:
        """SuccinctNFA.size() of the materialised NFA, whose label for a
        hole of (state, size) reports label_bits(state, size) bits."""
        layers = self.layers
        transitions = sum(map(len, layers))
        if not transitions:
            return self.states
        holes = {(s, h) for layer in layers[1:] for _, s, h, _ in layer}
        bits = int(_AMP_LABEL.size_bound_bits()) + sum(int(label_bits(s, h)) for s, h in holes)
        return self.states + transitions + bits

    def check_size(self, size: int) -> None:
        if size > self.bound:
            raise AssertionError(f"partition NFA size {size} exceeds the bound {self.bound}")


_AMP_LABEL = ExplicitLabel("&", (AMP,))


def partition_layout(unrolled: UnrolledAutomaton, t: Tree, state: str) -> PartitionLayout:
    """The transitions of the NFA whose accepted words '&' t_1 ... t_k are
    exactly the ways to complete the partial tree from (state, full size).
    A complete input yields the one '&' transition from s0 to se when the
    tree is accepted, and none otherwise."""
    base = unrolled.base
    size = t.full_size
    if size > unrolled.n:
        raise ValueError("partial tree is larger than the unrolled level count")
    bound = 3 * (size * base.size) ** 4
    if t.is_complete():
        accepted = t.size == size and state in base.derive_states(t)
        return PartitionLayout([[(None, None, 0, None)] if accepted else []], 0, 2, bound)
    path = main_path(t)
    k = path.k
    vertices = path.vertices

    # layers[lvl] holds the transitions out of level lvl, emitted only from
    # states reached from s0.
    front = _walk_down(unrolled, t, vertices[0], frozenset((state,)))
    layers = [[(None, None, 0, q) for q in sorted(front)]]

    for ell in range(k - 1):
        v = vertices[ell]
        node = t.node(v)
        hole_step = path.holes[ell][len(v)]
        path_step = 3 - hole_step  # binary: the other child
        child = node.children[path_step - 1]
        steps = vertices[ell + 1][len(v) + 1:]
        hole_size = path.hole_sizes[ell]
        below: dict[str, list[str]] = {}
        layer = []
        reached: set[str] = set()
        for tr in base.by_symbol.get((node.label, 2), ()):
            if tr.src not in front:
                continue
            onpath = tr.children[path_step - 1]
            dsts = below.get(onpath)
            if dsts is None:
                dsts = below[onpath] = sorted(
                    _walk_down(unrolled, child, steps, frozenset((onpath,)))
                )
                reached.update(dsts)
            hole_state = tr.children[hole_step - 1]
            for q2 in dsts:
                layer.append((tr.src, hole_state, hole_size, q2))
        layers.append(layer)
        front = reached

    last_size = path.hole_sizes[k - 1]
    if path.terminal_is_hole:
        layer = [(q, q, last_size, None) for q in sorted(front)]
    else:
        v = vertices[k - 1]
        node = t.node(v)
        hole_step = path.holes[k - 1][len(v)]
        other_step = 3 - hole_step
        other_up = _derived(base, node.children[other_step - 1])  # holds no hole
        layer = [
            (tr.src, tr.children[hole_step - 1], last_size, None)
            for tr in base.by_symbol.get((node.label, 2), ())
            if tr.src in front and tr.children[other_step - 1] in other_up
        ]
    layers.append(layer)

    # One reversed pass keeps the transitions that can still reach se: those
    # into a state that some kept transition of the next level leaves.
    alive = {None}
    states = 1  # se; s0 is the one source of level 0
    for lvl in range(k, -1, -1):
        layers[lvl] = [tr for tr in layers[lvl] if tr[3] in alive]
        alive = {tr[0] for tr in layers[lvl]}
        states += len(alive) if lvl else 1
    return PartitionLayout(layers, k, states, bound)


def build_partition_nfa(
    layout: PartitionLayout,
    label_factory: Callable[[str, int], LabelOracle],
) -> PartitionNFA:
    """The NFA whose accepted words '&' t_1 ... t_k are exactly the ways to
    complete the partial tree from (state, full size) that
    partition_layout(unrolled, t, state) laid out: the layout's
    transitions, with state q at level l named q@l.

    label_factory(hole_state, hole_size) supplies the tree-language oracle
    used on the transition that fills a hole; it is asked only for labels
    the returned NFA uses.  States are listed level by level, each level's
    sorted, and transitions in the layout's order.
    """
    k = layout.hole_count
    layers = layout.layers
    states = ["s0"]
    levels = {"s0": 0, "se": k + 1}
    for lvl in range(1, k + 1):
        for q in sorted({tr[0] for tr in layers[lvl]}):
            name = f"{q}@{lvl}"
            states.append(name)
            levels[name] = lvl
    states.append("se")
    transitions = []
    labels: dict[str, LabelOracle] = {"&": _AMP_LABEL} if any(layers) else {}
    for lvl, layer in enumerate(layers):
        for src, hole_state, hole_size, dst in layer:
            if lvl == 0:
                src_name, key = "s0", "&"
            else:
                src_name, key = f"{src}@{lvl}", f"T:{hole_state}:{hole_size}"
                if key not in labels:
                    labels[key] = label_factory(hole_state, hole_size)
            dst_name = "se" if dst is None else f"{dst}@{lvl + 1}"
            transitions.append(NfaTransition(src_name, key, dst_name))
    nfa = SuccinctNFA(states, transitions, "s0", "se", labels, levels)
    layout.check_size(nfa.size())
    return PartitionNFA(nfa)

"""Counting completions of a partial tree through a succinct NFA.

Partial trees produced by smallest-hole-first expansion have nested holes:
their parents sit on one root-to-leaf chain, the *main path*.  Filling the
holes in order turns a completion into a word t_1 ... t_k of whole subtrees,
and the ways a run can thread states along the main path form an NFA whose
transitions carry entire tree languages as labels.  Completions of the
partial tree then correspond one-to-one to accepted words of the form
'&' t_1 ... t_k, so counting completions reduces to counting NFA words of
length (number of holes) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .snfa import ExplicitLabel, LabelOracle, NfaTransition, SuccinctNFA, prune_to_paths
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


def up_states(
    unrolled: UnrolledAutomaton,
    t: Tree,
    hole_filter: Optional[Callable[[str, int], bool]] = None,
    _memo: Optional[dict] = None,
) -> frozenset[str]:
    """States from which the partial subtree has a run, where a hole of size
    h matches any state (optionally restricted by hole_filter(state, h))."""
    memo = _memo if _memo is not None else {}
    hit = memo.get(t)
    if hit is not None:
        return hit
    base = unrolled.base
    if t.is_hole():
        h = t.label
        if hole_filter is None:
            result = frozenset(base.states)
        else:
            result = frozenset(s for s in base.states if hole_filter(s, h))
    elif t.is_leaf():
        result = frozenset(
            s for s in base.states if t.label in base.leaf_symbols.get(s, ())
        )
    else:
        kids = [up_states(unrolled, c, hole_filter, memo) for c in t.children]
        result = frozenset(
            tr.src
            for tr in base.by_symbol.get((t.label, len(kids)), ())
            if all(tr.children[i] in kids[i] for i in range(len(kids)))
        )
    memo[t] = result
    return result


def extended_run_exists(
    unrolled: UnrolledAutomaton,
    t: Tree,
    state: str,
    hole_filter: Optional[Callable[[str, int], bool]] = None,
) -> bool:
    """Is there a run over the partial tree from (state, full size), treating
    holes as wildcards that accept any state at their level?"""
    return state in up_states(unrolled, t, hole_filter)


def _pair_reach(
    unrolled: UnrolledAutomaton,
    t: Tree,
    start: tuple[int, ...],
    target: tuple[int, ...],
    up_memo: dict,
) -> frozenset[tuple[str, str]]:
    """Pairs (c, q): a run on the subtree at `start`, excluding everything
    strictly below `target`, can carry state c at `start` and q at `target`.
    Branches off the start-to-target path must be fully derivable."""
    base = unrolled.base
    if start == target:
        return frozenset((q, q) for q in base.states)
    node = t.node(start)
    step = target[len(start)]
    child_addr = start + (step,)
    below = _pair_reach(unrolled, t, child_addr, target, up_memo)
    by_child_state: dict[str, set] = {}
    for c_state, q in below:
        by_child_state.setdefault(c_state, set()).add(q)
    others = []
    for idx in range(1, len(node.children) + 1):
        if idx != step:
            others.append((idx - 1, up_states(unrolled, node.children[idx - 1], None, up_memo)))
    found = set()
    for tr in base.by_symbol.get((node.label, len(node.children)), ()):
        if any(tr.children[i] not in up for i, up in others):
            continue
        onpath = tr.children[step - 1]
        for q in by_child_state.get(onpath, ()):
            found.add((tr.src, q))
    return frozenset(found)


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
    used on the transition that fills a hole.  A complete input yields the
    one-transition NFA accepting '&' when the tree is accepted.
    """
    base = unrolled.base
    size = t.full_size
    if size > unrolled.n:
        raise ValueError("partial tree is larger than the unrolled level count")
    amp = ExplicitLabel("&", (AMP,))
    labels: dict[str, LabelOracle] = {"&": amp}
    if t.is_complete():
        states = ["s0", "se"]
        levels = {"s0": 0, "se": 1}
        transitions = []
        if t.size == size and state in base.derive_states(t):
            transitions.append(NfaTransition("s0", "&", "se"))
        nfa = SuccinctNFA(states, transitions, "s0", "se", labels, levels)
        return PartitionNFA(prune_to_paths(nfa), 0)
    path = main_path(t)
    k = path.k
    up_memo: dict = {}

    def label_key(hole_state: str, hole_size: int) -> str:
        key = f"T:{hole_state}:{hole_size}"
        if key not in labels:
            labels[key] = label_factory(hole_state, hole_size)
        return key

    states = ["s0"] + [f"{q}@{lvl}" for lvl in range(1, k + 1) for q in sorted(base.states)]
    states.append("se")
    levels = {"s0": 0, "se": k + 1}
    for lvl in range(1, k + 1):
        for q in base.states:
            levels[f"{q}@{lvl}"] = lvl
    transitions: list[NfaTransition] = []

    boot_pairs = _pair_reach(unrolled, t, (), path.vertices[0], up_memo)
    for c, q in sorted(boot_pairs):
        if c == state:
            transitions.append(NfaTransition("s0", "&", f"{q}@1"))

    for ell in range(k - 1):
        v = path.vertices[ell]
        hole_addr = path.holes[ell]
        hole_size = path.hole_sizes[ell]
        node = t.node(v)
        hole_step = hole_addr[len(v)]
        path_step = 3 - hole_step  # binary: the other child
        child_addr = v + (path_step,)
        seg = _pair_reach(unrolled, t, child_addr, path.vertices[ell + 1], up_memo)
        by_child: dict[str, set] = {}
        for c, q2 in seg:
            by_child.setdefault(c, set()).add(q2)
        for tr in base.by_symbol.get((node.label, 2), ()):
            r = tr.children[hole_step - 1]
            onpath = tr.children[path_step - 1]
            for q2 in sorted(by_child.get(onpath, ())):
                transitions.append(
                    NfaTransition(
                        f"{tr.src}@{ell + 1}", label_key(r, hole_size), f"{q2}@{ell + 2}"
                    )
                )

    last = k - 1
    if path.terminal_is_hole:
        for q in sorted(base.states):
            transitions.append(
                NfaTransition(f"{q}@{k}", label_key(q, path.hole_sizes[last]), "se")
            )
    else:
        v = path.vertices[last]
        node = t.node(v)
        hole_step = path.holes[last][len(v)]
        other_step = 3 - hole_step
        other_up = up_states(unrolled, node.children[other_step - 1], None, up_memo)
        for tr in base.by_symbol.get((node.label, 2), ()):
            if tr.children[other_step - 1] not in other_up:
                continue
            r = tr.children[hole_step - 1]
            transitions.append(
                NfaTransition(f"{tr.src}@{k}", label_key(r, path.hole_sizes[last]), "se")
            )

    nfa = SuccinctNFA(states, transitions, "s0", "se", labels, levels)
    pruned = prune_to_paths(nfa)
    bound = 3 * (size * base.size) ** 4
    if pruned.size() > bound:
        raise AssertionError(
            f"partition NFA size {pruned.size()} exceeds the bound {bound}"
        )
    return PartitionNFA(pruned, k)

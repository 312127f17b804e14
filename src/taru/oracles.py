"""Exact ground-truth engines.

Everything here computes exact answers by enumeration or dynamic programming,
with arbitrary-precision integers and hard budgets.  A budget overrun is an
explicit refusal, never a truncated or approximate answer.  The randomized
estimators elsewhere in the package are tested against these oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .automata import TreeAutomaton, Transition
from .snfa import NfaError, SuccinctNFA, leveled_at
from .trees import Tree, count_shapes, leaf

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    pass


def candidate_tree_count(automaton: TreeAutomaton, n: int) -> int:
    """Number of labeled ordered trees of size n that could conceivably be
    tested for membership: tree shapes valid for the automaton's tree kind
    times all labelings."""
    if automaton.is_binary():
        shapes = count_shapes(n, (2,))
    else:
        shapes = count_shapes(n, tuple(range(1, automaton.arity + 1)))
    return shapes * len(automaton.alphabet) ** n


@dataclass(frozen=True)
class SliceEnumeration:
    n: int
    trees: tuple[Tree, ...]

    def __len__(self):
        return len(self.trees)


def _enumerate_from(automaton: TreeAutomaton, memo: dict, state: str, size: int) -> frozenset:
    key = (state, size)
    hit = memo.get(key)
    if hit is not None:
        return hit
    memo[key] = frozenset()  # cycle guard; sizes strictly decrease so unused
    found = set()
    if size == 1:
        for a in automaton.leaf_symbols.get(state, ()):
            found.add(leaf(a))
    if size >= 2:
        for t in automaton.transitions:
            if t.src != state or not t.children:
                continue
            r = len(t.children)
            if size - 1 < r:
                continue
            for parts in _compositions(size - 1, r):
                child_sets = [
                    _enumerate_from(automaton, memo, t.children[i], parts[i])
                    for i in range(r)
                ]
                if any(not cs for cs in child_sets):
                    continue
                for kids in product(*child_sets):
                    found.add(Tree(t.symbol, kids))
    result = frozenset(found)
    memo[key] = result
    return result


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_slice(automaton: TreeAutomaton, n: int, budget: int | None = DEFAULT_BUDGET) -> SliceEnumeration:
    """Every accepted tree of size exactly n, deduplicated and in
    serialization order.  Refuses when the candidate space exceeds the
    budget."""
    if n < 1:
        raise ValueError("slice size must be at least 1")
    if budget is not None:
        candidates = candidate_tree_count(automaton, n)
        if candidates > budget:
            raise BudgetExceeded(
                f"brute-force slice needs {candidates} candidate membership "
                f"tests, above the budget of {budget}"
            )
    memo: dict = {}
    trees = _enumerate_from(automaton, memo, automaton.initial, n)
    ordered = tuple(sorted(trees, key=lambda t: t.text()))
    return SliceEnumeration(n, ordered)


class DeterminismError(ValueError):
    pass


def check_bottom_up_deterministic(automaton: TreeAutomaton) -> None:
    """Raise when two transitions share a (symbol, child states) pair but
    assign different states, naming the conflict."""
    seen: dict[tuple, Transition] = {}
    for t in automaton.transitions:
        key = (t.symbol, t.children)
        other = seen.get(key)
        if other is not None and other.src != t.src:
            raise DeterminismError(
                "not bottom-up deterministic: "
                f"transitions {other!r} and {t!r} assign different states "
                f"to the same (symbol, children) pair"
            )
        seen[key] = t


def dp_count_bottom_up_deterministic(automaton: TreeAutomaton, n: int) -> int:
    """Exact slice count for bottom-up deterministic automata.

    Sums over transitions and split sizes the products of child counts, for
    every state, filled size by size up to n, so any n works; exact because
    no tree has two runs in a deterministic automaton.
    """
    check_bottom_up_deterministic(automaton)
    counts: dict[tuple[str, int], int] = {}
    for size in range(1, n + 1):
        for state in automaton.states:
            total = 0
            if size == 1:
                total += len(automaton.leaf_symbols.get(state, ()))
            for t in automaton.transitions:
                if t.src != state or not t.children:
                    continue
                r = len(t.children)
                if size - 1 < r:
                    continue
                for parts in _compositions(size - 1, r):
                    prod = 1
                    for i in range(r):
                        prod *= counts[t.children[i], parts[i]]
                        if prod == 0:
                            break
                    total += prod
            counts[state, size] = total
    return counts.get((automaton.initial, n), 0)


def brute_nfa_count(nfa: SuccinctNFA, k: int, budget: int | None = DEFAULT_BUDGET) -> int:
    """Exact number of length-k words via label enumeration.

    Every label must expose its full contents; the sum over paths of label
    size products must fit in the budget.
    """
    leveled = leveled_at(nfa, k)
    if not leveled.transitions:
        return 0
    contents: dict[str, list] = {}
    sizes: dict[str, int] = {}
    for key, oracle in leveled.labels.items():
        all_elems = oracle.enumerate_all()
        if all_elems is None:
            raise NfaError(f"label {key!r} does not support exact enumeration")
        contents[key] = all_elems
        sizes[key] = len(all_elems)
    if budget is not None:
        paths: dict[str, int] = {leveled.initial: 1}
        for level in range(k):
            nxt: dict[str, int] = {}
            for t in leveled.transitions:
                if leveled.levels[t.src] == level and t.src in paths:
                    nxt[t.dst] = nxt.get(t.dst, 0) + paths[t.src] * sizes[t.label]
            paths = nxt
        total_products = paths.get(leveled.final, 0)
        if total_products > budget:
            raise BudgetExceeded(
                f"brute-force word count needs {total_products} label products, "
                f"above the budget of {budget}"
            )
    words: dict[str, set] = {leveled.initial: {()}}
    for level in range(k):
        nxt: dict[str, set] = {}
        for t in leveled.transitions:
            if leveled.levels[t.src] != level or t.src not in words:
                continue
            bucket = nxt.setdefault(t.dst, set())
            for w in words[t.src]:
                for a in contents[t.label]:
                    bucket.add(w + (a,))
        words = nxt
    return len(words.get(leveled.final, set()))


def brute_completions(
    automaton: TreeAutomaton,
    partial: Tree,
    state: str,
    size: int,
    budget: int | None = DEFAULT_BUDGET,
) -> list[Tree]:
    """All completions of a partial tree accepted from the given state at the
    given full size, by filling every hole with every derivable subtree of the
    right size and membership-testing the results."""
    if partial.full_size != size:
        raise ValueError(
            f"partial tree has full size {partial.full_size}, expected {size}"
        )
    holes = partial.holes()
    if not holes:
        ok = partial.size == size and state in automaton.derive_states(partial)
        return [partial] if ok else []
    memo: dict = {}
    pools = []
    total = 1
    for addr, h in holes:
        pool = set()
        for q in automaton.states:
            pool |= _enumerate_from(automaton, memo, q, h)
        pool = sorted(pool, key=lambda t: t.text())
        pools.append((addr, pool))
        total *= max(1, len(pool))
        if budget is not None and total > budget:
            raise BudgetExceeded(
                f"completion enumeration needs more than {budget} candidates"
            )
    out = []
    for combo in product(*(pool for _, pool in pools)):
        t = partial
        for (addr, _), sub in zip(pools, combo):
            t = t.replace(addr, sub)
        if t.size == size and state in automaton.derive_states(t):
            out.append(t)
    return sorted(set(out), key=lambda t: t.text())

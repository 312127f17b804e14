"""Exact ground-truth engines.

Everything here computes exact answers by enumeration or dynamic programming,
with arbitrary-precision integers and hard budgets.  A budget overrun is an
explicit refusal, never a truncated or approximate answer.  The randomized
estimators elsewhere in the package are tested against these oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

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
            for parts in _compositions(size - 1, r, range(1, size)):
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


def _compositions(total: int, parts: int, sizes):
    """Ordered ways to write total as a sum of parts members of sizes, a
    range or a dict of positive integers in ascending order."""
    if parts == 0:
        if total == 0:
            yield ()
    elif parts == 1:
        if total in sizes:
            yield (total,)
    else:
        for first in sizes:
            if first > total - parts + 1:
                break
            for rest in _compositions(total - first, parts - 1, sizes):
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


def exact_slice_count(automaton: TreeAutomaton, n: int, budget: int | None = DEFAULT_BUDGET) -> int:
    """Exact number of accepted trees of size n, for any automaton: the
    bottom-up subset construction (Comon et al., Tree Automata Techniques
    and Applications, ch. 1), run size by size.  tables[m] maps each
    nonempty derive-state set to the number of size-m trees that have it; a
    tree has one such set, so the sums are exact however ambiguous the
    automaton.  The work, the sum over sizes, splits and symbol groups of
    the product of the child tables' sizes, is checked against the budget
    before it is done."""
    if n < 1:
        raise ValueError("slice size must be at least 1")
    groups: dict[int, list] = {}  # arity -> each symbol's transitions
    for (_, arity), transitions in automaton.by_symbol.items():
        groups.setdefault(arity, []).append(transitions)
    tables: dict[int, dict[frozenset, int]] = {}  # only the nonempty ones
    work = 0
    for size in range(1, n + 1):
        table: dict[frozenset, int] = {}
        for arity, group in groups.items():
            for parts in _compositions(size - 1, arity, tables):
                kids = [tables[p] for p in parts]
                work += prod(map(len, kids)) * len(group)
                if budget is not None and work > budget:
                    raise BudgetExceeded(f"exact slice count needs more than {budget} "
                                         f"subset products by size {size}")
                for combo in product(*(kid.items() for kid in kids)):
                    sets = tuple(s for s, _ in combo)
                    count = prod(c for _, c in combo)
                    for transitions in group:
                        derived = frozenset(t.src for t in transitions if all(
                            map(frozenset.__contains__, sets, t.children)))
                        if derived:
                            table[derived] = table.get(derived, 0) + count
        if table:
            tables[size] = table
    return sum(c for s, c in tables.get(n, {}).items() if automaton.initial in s)


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

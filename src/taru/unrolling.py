"""Level-indexed copies of a binary tree automaton.

Unrolling tags every state with the exact size of the trees it may derive:
state (s, i) derives precisely the size-i trees derivable from s.  A binary
transition at level i splits into copies for every left size j in [1, i-2],
the right size being i-j-1; leaf transitions live at level 1.  The leveled
transitions are generated on demand, so nothing quadratic in the level count
is materialized.
"""

from __future__ import annotations

from .automata import TreeAutomaton
from .trees import Tree


class UnrolledAutomaton:
    def __init__(self, base: TreeAutomaton, n: int):
        base.require_binary()
        if n < 1:
            raise ValueError("level count must be at least 1")
        self.base = base
        self.n = n

    def leaf_count(self, state: str) -> int:
        """Exact number of size-1 trees derivable from the state."""
        return len(set(self.base.leaf_symbols.get(state, ())))

    def groups(self, state: str, level: int):
        """Leveled transitions out of (state, level), grouped by root symbol
        and left size.  Trees produced by different groups are always
        distinct, so only same-group products can overlap.  Yields
        ((symbol, left_size), [(left_state, right_state), ...]) with pair
        lists in declaration order."""
        if level < 2:
            return
        per_symbol: dict[str, list[tuple[str, str]]] = {}
        for t in self.base.binary_by_src.get(state, ()):
            per_symbol.setdefault(t.symbol, []).append((t.children[0], t.children[1]))
        for symbol in per_symbol:
            for j in range(1, level - 1):
                yield (symbol, j), per_symbol[symbol]

    def member(self, tree: Tree, state: str, level: int) -> bool:
        """tree is derivable from (state, level): right size and base state."""
        return tree.size == level and state in self.base.derive_states(tree)

"""Tree automata over ordered labeled trees.

A (top-down) tree automaton accepts a tree when some run assigns states to
nodes so that every node, its label and its children's states match a
transition.  Leaves match transitions with an empty child sequence.

The binary variant restricts child sequences to length 0 or 2; its accepted
trees always have an odd number of nodes.

encode_binary converts a k-ary automaton into a binary one over the alphabet
extended with the chaining symbol '@' so that trees of size n correspond
one-to-one to binary trees of size 2n-1.  encode_tree / decode_tree are the
matching bijection on trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .trees import _RECURSIVE_SIZE, Tree, leaf

EXT = "@"


class AutomatonError(ValueError):
    pass


class UndeclaredSymbolError(AutomatonError):
    """Raised when a tree mentions a symbol outside the automaton alphabet."""


@dataclass(frozen=True)
class Transition:
    src: str
    symbol: str
    children: tuple[str, ...]

    def __repr__(self):
        kids = ",".join(self.children)
        return f"{self.src} -{self.symbol}-> ({kids})"


class TreeAutomaton:
    """States, alphabet, ranked transitions and a single initial state."""

    def __init__(
        self,
        states,
        alphabet,
        transitions,
        initial: str,
        arity: Optional[int] = None,
    ):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        trs = []
        seen = set()
        for t in transitions:
            if not isinstance(t, Transition):
                src, symbol, children = t
                t = Transition(src, symbol, tuple(children))
            if t in seen:
                continue
            seen.add(t)
            trs.append(t)
        self.transitions = tuple(trs)
        self.initial = initial
        if initial not in self.states:
            raise AutomatonError(f"initial state {initial!r} is not declared")
        max_arity = 0
        for t in self.transitions:
            if t.src not in self.states:
                raise AutomatonError(f"transition uses undeclared state {t.src!r}")
            if t.symbol not in self.alphabet:
                raise AutomatonError(f"transition uses undeclared symbol {t.symbol!r}")
            for c in t.children:
                if c not in self.states:
                    raise AutomatonError(f"transition uses undeclared state {c!r}")
            max_arity = max(max_arity, len(t.children))
        self.arity = max_arity if arity is None else arity
        if self.arity < max_arity:
            raise AutomatonError(
                f"declared arity {self.arity} below transition arity {max_arity}"
            )
        by_symbol: dict[tuple[str, int], list[Transition]] = {}
        leaf_symbols: dict[str, list[str]] = {}
        binary_by_src: dict[str, list[Transition]] = {}
        for t in self.transitions:
            by_symbol.setdefault((t.symbol, len(t.children)), []).append(t)
            if not t.children:
                leaf_symbols.setdefault(t.src, []).append(t.symbol)
            elif len(t.children) == 2:
                binary_by_src.setdefault(t.src, []).append(t)
        self.by_symbol = by_symbol
        self.leaf_symbols = leaf_symbols
        self.binary_by_src = binary_by_src
        self._derive_cache: dict[Tree, frozenset[str]] = {}

    def __repr__(self):
        return (
            f"TreeAutomaton(states={len(self.states)}, "
            f"transitions={len(self.transitions)}, initial={self.initial!r})"
        )

    @cached_property
    def size(self) -> int:
        """Encoding size of the transition table (used to scale parameters)."""
        return max(3, sum(2 + len(t.children) for t in self.transitions))

    def is_binary(self) -> bool:
        return all(len(t.children) in (0, 2) for t in self.transitions)

    def require_binary(self):
        for t in self.transitions:
            if len(t.children) not in (0, 2):
                raise AutomatonError(
                    f"not a binary-tree automaton: transition {t!r} has arity "
                    f"{len(t.children)}"
                )

    def derive_states(self, tree: Tree) -> frozenset[str]:
        """All states from which the automaton derives this tree.

        Bottom-up set computation, cached per tree object value.
        """
        cached = self._derive_cache.get(tree)
        if cached is not None:
            return cached
        if tree.size > _RECURSIVE_SIZE:
            # Perhaps too deep to recurse: derive the uncached subtrees first,
            # in reverse preorder (each after its descendants), so that the
            # recursion below stops at the children.
            order = []
            stack = list(tree.children)
            while stack:
                node = stack.pop()
                if node not in self._derive_cache:
                    order.append(node)
                    stack.extend(node.children)
            for node in reversed(order):
                self.derive_states(node)
        if tree.label not in self.alphabet:
            raise UndeclaredSymbolError(
                f"tree label {tree.label!r} is not in the automaton alphabet"
            )
        child_sets = [self.derive_states(c) for c in tree.children]
        out = set()
        for t in self.by_symbol.get((tree.label, len(tree.children)), ()):
            if all(t.children[i] in child_sets[i] for i in range(len(child_sets))):
                out.add(t.src)
        result = frozenset(out)
        self._derive_cache[tree] = result
        return result

    def accepts(self, tree: Tree) -> bool:
        """Membership test.  Trees using undeclared symbols raise
        UndeclaredSymbolError rather than silently failing."""
        return self.initial in self.derive_states(tree)


def merge_initial_states(
    states, alphabet, transitions, initial_states, arity=None
) -> TreeAutomaton:
    """Fold a set of initial states into one synthetic super-initial state.
    With no initial state the language is empty, and the fresh initial
    state is returned with no transitions at all."""
    initial_states = list(initial_states)
    if len(initial_states) == 1:
        return TreeAutomaton(states, alphabet, transitions, initial_states[0], arity)
    fresh = "^init"
    while fresh in states:
        fresh += "'"
    if not initial_states:
        return TreeAutomaton(set(states) | {fresh}, alphabet, [], fresh, arity)
    new_transitions = list(transitions)
    seen = set()
    for t in transitions:
        tt = t if isinstance(t, Transition) else Transition(t[0], t[1], tuple(t[2]))
        if tt.src in initial_states and (tt.symbol, tt.children) not in seen:
            seen.add((tt.symbol, tt.children))
            new_transitions.append(Transition(fresh, tt.symbol, tt.children))
    return TreeAutomaton(set(states) | {fresh}, alphabet, new_transitions, fresh, arity)


def encode_tree(tree: Tree) -> Tree:
    """Binary encoding of a k-ary tree: a node with children t1..tk becomes a
    left spine of '@' nodes applying the encoded children in order to the bare
    label, so sizes map n to 2n-1."""
    if tree.is_hole():
        raise AutomatonError("cannot encode a partial tree")
    enc = leaf(tree.label)
    for child in tree.children:
        enc = Tree(EXT, (enc, encode_tree(child)))
    return enc


class DecodeError(AutomatonError):
    pass


def decode_tree(tree: Tree) -> Tree:
    """Inverse of encode_tree; rejects trees outside the encoding image."""
    if tree.label != EXT:
        if tree.children:
            raise DecodeError(f"non-{EXT} node {tree.label!r} must be a leaf")
        return leaf(tree.label)
    spine_args: list[Tree] = []
    node = tree
    while node.label == EXT:
        if len(node.children) != 2:
            raise DecodeError(f"{EXT} node must have exactly two children")
        spine_args.append(node.children[1])
        node = node.children[0]
    if node.children:
        raise DecodeError("spine must end in a bare label leaf")
    kids = tuple(decode_tree(arg) for arg in reversed(spine_args))
    return Tree(node.label, kids)


def encode_binary(automaton: TreeAutomaton) -> TreeAutomaton:
    """Binary-tree automaton accepting exactly the encodings of the input's
    trees; preserves slice counts at 2n-1."""
    if EXT in automaton.alphabet:
        raise AutomatonError(
            f"alphabet already contains {EXT!r}; rename that symbol before encoding"
        )
    states = set(automaton.states)
    transitions: list[Transition] = []
    alphabet = set(automaton.alphabet) | {EXT}
    for idx, t in enumerate(automaton.transitions):
        n = len(t.children)
        if n == 0:
            transitions.append(t)
            continue
        chain = [f"+{idx}.{j}" for j in range(n)]
        states.update(chain)
        transitions.append(Transition(chain[0], t.symbol, ()))
        for j in range(1, n):
            transitions.append(Transition(chain[j], EXT, (chain[j - 1], t.children[j - 1])))
        transitions.append(Transition(t.src, EXT, (chain[n - 1], t.children[n - 1])))
    return TreeAutomaton(states, alphabet, transitions, automaton.initial, arity=2)

"""Ordered labeled trees and partial trees.

A tree node carries a label and an ordered tuple of children.  Node addresses
are tuples of 1-based child indices, so the root is () and (2, 1) is the first
child of the second child of the root.

Partial trees reuse the same structure: a leaf whose label is an int is a
hole, and the int is the size of the subtree that will eventually replace it.
The full size of a partial tree counts every labeled node once plus the target
size of every hole.
"""

from __future__ import annotations

from typing import Iterator

# Tree.__eq__ and TreeAutomaton.derive_states recurse only into trees of at
# most this many nodes, so at most this deep; larger ones take an explicit
# stack.
_RECURSIVE_SIZE = 256


class Tree:
    __slots__ = ("label", "children", "size", "full_size", "_complete", "_hash", "_text")

    def __init__(self, label, children: tuple = ()):
        is_hole = isinstance(label, int)
        if is_hole and children:
            raise ValueError("holes can appear only at the leaves")
        self.label = label
        self.children = children
        size = 1
        full = label if is_hole else 1
        complete = not is_hole
        for c in children:
            size += c.size
            full += c.full_size
            complete = complete and c._complete
        self.size = size
        self.full_size = full
        self._complete = complete
        self._hash = hash((label, children))
        self._text = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        if self.size > _RECURSIVE_SIZE:
            return _equal_deep(self, other)
        return (
            self._hash == other._hash
            and self.label == other.label
            and self.children == other.children
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Tree({self.text()})"

    def is_leaf(self) -> bool:
        return not self.children

    def is_hole(self) -> bool:
        return isinstance(self.label, int)

    def is_complete(self) -> bool:
        return self._complete

    def node(self, address: tuple[int, ...]) -> "Tree":
        t = self
        for i in address:
            t = t.children[i - 1]
        return t

    def nodes(self) -> Iterator[tuple[tuple[int, ...], "Tree"]]:
        """All (address, subtree) pairs in preorder."""
        stack = [((), self)]
        while stack:
            addr, t = stack.pop()
            yield addr, t
            for i in range(len(t.children), 0, -1):
                stack.append((addr + (i,), t.children[i - 1]))

    def holes(self) -> list[tuple[tuple[int, ...], int]]:
        """(address, size) of every hole in preorder; complete subtrees are
        not entered."""
        out = []
        stack = [((), self)] if not self._complete else []
        while stack:
            addr, t = stack.pop()
            if isinstance(t.label, int):
                out.append((addr, t.label))
                continue
            kids = t.children
            for i in range(len(kids), 0, -1):
                if not kids[i - 1]._complete:
                    stack.append((addr + (i,), kids[i - 1]))
        return out

    def replace(self, address: tuple[int, ...], subtree: "Tree") -> "Tree":
        """This tree with the subtree at the address swapped for another;
        the nodes off the address are shared.  Iterative, so any depth
        works."""
        spine = []
        t = self
        for i in address:
            spine.append(t)
            t = t.children[i - 1]
        for i in reversed(address):
            t = spine.pop()
            kids = list(t.children)
            kids[i - 1] = subtree
            subtree = Tree(t.label, tuple(kids))
        return subtree

    def text(self) -> str:
        if self._text is None:
            self._text = serialize_tree(self)
        return self._text


def _equal_deep(a: Tree, b: Tree) -> bool:
    """a == b node by node with an explicit stack, so any depth works."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if (x._hash != y._hash or x.label != y.label
                or len(x.children) != len(y.children)):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def leaf(label) -> Tree:
    return Tree(label, ())


def hole(size: int) -> Tree:
    if size < 1:
        raise ValueError("hole size must be at least 1")
    return Tree(size, ())


_PLAIN = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_@#&.*+-")


def _label_text(label) -> str:
    if isinstance(label, int):
        return str(label)
    if label and all(ch in _PLAIN for ch in label) and not label.isdigit():
        return label
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_tree(t: Tree) -> str:
    """Compact text form: a, a(b,c), f(1,"x y").  Iterative, so any depth
    works."""
    out = []
    stack: list = [t]  # trees still to write, and punctuation
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(_label_text(item.label))
        kids = item.children
        if kids:
            stack.append(")")
            for i in range(len(kids) - 1, 0, -1):
                stack.append(kids[i])
                stack.append(",")
            stack.append(kids[0])
            stack.append("(")
    return "".join(out)


class TreeParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_tree(text: str) -> Tree:
    """Parse the compact text form.  Integer leaf labels become holes."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_label():
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise TreeParseError("expected a label", pos)
        if text[pos] == '"':
            pos += 1
            out = []
            while pos < n and text[pos] != '"':
                if text[pos] == "\\" and pos + 1 < n:
                    pos += 1
                out.append(text[pos])
                pos += 1
            if pos >= n:
                raise TreeParseError("unterminated quoted label", pos)
            pos += 1
            return "".join(out)
        start = pos
        while pos < n and text[pos] in _PLAIN:
            pos += 1
        if pos == start:
            raise TreeParseError(f"unexpected character {text[pos]!r}", pos)
        token = text[start:pos]
        if token.isdigit():
            return int(token)
        return token

    def finish(label, children: list) -> Tree:
        if isinstance(label, int):
            if children:
                raise TreeParseError("holes cannot have children", pos)
            if label < 1:
                raise TreeParseError("hole sizes must be positive", pos)
            return hole(label)
        return Tree(label, tuple(children))

    # Iterative, so any depth works: open_nodes holds the (label, children)
    # of every node whose ')' has not been read yet.
    open_nodes: list[tuple[object, list]] = []
    while True:
        label = parse_label()
        skip_ws()
        if pos < n and text[pos] == "(":
            pos += 1
            open_nodes.append((label, []))
            continue
        node = finish(label, [])
        # Attach finished nodes upwards until a ',' asks for a sibling.
        while open_nodes:
            open_nodes[-1][1].append(node)
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                break
            if pos < n and text[pos] == ")":
                pos += 1
                node = finish(*open_nodes.pop())
            else:
                raise TreeParseError("expected ',' or ')'", pos)
        if not open_nodes:
            break
    root = node
    skip_ws()
    if pos != n:
        raise TreeParseError("trailing input after tree", pos)
    return root


def _json_node(obj):
    """A hole read from its JSON object, or the label and child objects of
    a labelled node."""
    if not isinstance(obj, dict):
        raise TreeParseError("tree JSON must be an object", 0)
    if "hole" in obj:
        size = obj["hole"]
        if not isinstance(size, int) or size < 1:
            raise TreeParseError("hole size must be a positive integer", 0)
        return hole(size)
    if "label" not in obj:
        raise TreeParseError("tree JSON needs a 'label' field", 0)
    label = obj["label"]
    if not isinstance(label, str):
        raise TreeParseError("tree labels must be strings", 0)
    kids = obj.get("children", [])
    if not isinstance(kids, list):
        raise TreeParseError("tree children must be a list", 0)
    return label, kids


def tree_from_json(obj) -> Tree:
    """The tree of a JSON object {"label": ..., "children": [...]}, with
    holes as {"hole": size}.  Iterative, so any depth works."""
    # open_nodes holds the label, child objects and children built so far
    # of every node not yet finished, under a root stand-in.
    done: list[Tree] = []
    open_nodes: list[tuple[object, list, list]] = [(None, [obj], done)]
    while open_nodes:
        label, kids, built = open_nodes[-1]
        if len(built) < len(kids):
            node = _json_node(kids[len(built)])
            if isinstance(node, Tree):
                built.append(node)
            else:
                open_nodes.append((node[0], node[1], []))
            continue
        open_nodes.pop()
        if open_nodes:
            open_nodes[-1][2].append(Tree(label, tuple(built)))
    return done[0]


def count_shapes(n: int, arities: tuple[int, ...]) -> int:
    """Number of unlabeled ordered tree shapes with n nodes (arity in set)."""
    memo: dict[tuple[int, int], int] = {}
    ar = tuple(sorted(set(k for k in arities if k >= 1)))

    def shapes(m: int) -> int:
        if m == 1:
            return 1
        total = 0
        for k in ar:
            if m - 1 >= k:
                total += comps(m - 1, k)
        return total

    def comps(total: int, parts: int) -> int:
        if parts == 0:
            return 1 if total == 0 else 0
        key = (total, parts)
        if key in memo:
            return memo[key]
        acc = 0
        for first in range(1, total - parts + 2):
            rest = comps(total - first, parts - 1)
            if rest:
                acc += shapes(first) * rest
        memo[key] = acc
        return acc

    return shapes(n) if n >= 1 else 0

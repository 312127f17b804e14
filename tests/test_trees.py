import pytest
from hypothesis import given, settings, strategies as st

from taru.trees import (
    Tree,
    TreeParseError,
    count_shapes,
    hole,
    leaf,
    parse_tree,
    serialize_tree,
    tree_from_json,
)

from genutil import all_shapes, tree_to_json


def test_basic_sizes():
    t = parse_tree("a(b,c)")
    assert t.size == 3
    assert t.full_size == 3
    assert t.node((1,)).label == "b"
    assert [lbl for _, n in t.nodes() for lbl in [n.label]] == ["a", "b", "c"]


def test_holes_and_full_size():
    t = parse_tree("a(3,b)")
    assert t.size == 3
    assert t.full_size == 5
    assert t.holes() == [((1,), 3)]
    assert not t.is_complete()
    assert hole(4).full_size == 4


def test_replace():
    t = parse_tree("a(1,c)")
    t2 = t.replace((1,), parse_tree("b(x,y)"))
    assert serialize_tree(t2) == "a(b(x,y),c)"
    assert t2.full_size == 5


def test_parse_rejects():
    for bad in ["", "a(", "a(b", "a(b,)", "a)b", "a(0)", "3(a,b)", 'a("x']:
        with pytest.raises(TreeParseError):
            parse_tree(bad)


def test_tree_from_json_rejects():
    for bad in [[], {"children": []}, {"label": 1}, {"hole": 0}, {"hole": "3"},
                {"label": "a", "children": {"label": "b"}},
                {"label": "a", "children": [{"label": "b"}, "c"]}]:
        with pytest.raises(TreeParseError):
            tree_from_json(bad)


def test_quoted_labels_round_trip():
    t = Tree("weird label|=,", (leaf("x"),))
    assert parse_tree(serialize_tree(t)) == t


@st.composite
def trees(draw, max_depth=4):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        return leaf(draw(st.sampled_from("abc")))
    arity = draw(st.integers(0, 3))
    if arity == 0:
        return leaf(draw(st.sampled_from("abc")))
    kids = tuple(draw(trees(max_depth=depth - 1)) for _ in range(arity))
    return Tree(draw(st.sampled_from("abc")), kids)


@settings(max_examples=200, deadline=None)
@given(trees())
def test_serialization_round_trip(t):
    assert parse_tree(serialize_tree(t)) == t
    assert tree_from_json(tree_to_json(t)) == t


def test_deep_caterpillar_round_trips():
    """Text and parsing work at any depth: a 4001-node caterpillar."""
    t = leaf("a")
    for _ in range(2000):
        t = Tree("f", (leaf("b"), t))
    assert t.size == 4001
    text = t.text()
    assert text == "f(b," * 2000 + "a" + ")" * 2000
    back = parse_tree(text)
    assert back.size == 4001
    assert serialize_tree(back) == text
    assert [n.label for _, n in back.nodes()] == [n.label for _, n in t.nodes()]


def test_deep_caterpillar_replaces_and_round_trips_through_json():
    """Tree.replace and tree_from_json work at any depth."""
    def caterpillar(bottom):
        t = bottom
        for _ in range(2000):
            t = Tree("f", (leaf("b"), t))
        return t

    t = caterpillar(leaf("a"))
    bottom = (2,) * 2000
    partial = t.replace(bottom, hole(1))
    assert partial == caterpillar(hole(1)) and partial.full_size == 4001
    assert partial.holes() == [(bottom, 1)]
    assert partial.replace(bottom, leaf("a")) == t
    assert partial.node(bottom[:-1]).children[0] is t.node(bottom[:-1]).children[0]
    for tree in (t, partial):
        obj = tree_to_json(tree)
        assert tree_from_json(obj) == tree
    node = tree_to_json(partial)
    for _ in range(2000):
        assert node["label"] == "f" and node["children"][0] == {"label": "b", "children": []}
        node = node["children"][1]
    assert node == {"hole": 1}


def test_deep_trees_built_apart_compare_without_recursion():
    """Equality of two 4001-node caterpillars built apart walks them with an
    explicit stack."""
    def caterpillar(bottom):
        t = leaf(bottom)
        for _ in range(2000):
            t = Tree("f", (leaf("b"), t))
        return t

    t, same, other = caterpillar("a"), caterpillar("a"), caterpillar("c")
    assert t is not same and t == same and hash(t) == hash(same)
    assert t != other and t != leaf("a") and leaf("a") != t
    assert {t: 1}[same] == 1


def test_shape_counts_match_enumeration():
    for n in range(1, 10):
        for arities in [(2,), (1, 2), (1, 2, 3)]:
            assert count_shapes(n, arities) == len(all_shapes(n, arities))


def test_binary_shape_counts_are_catalan():
    # 0-or-2-children trees of size 2k+1: 1, 1, 2, 5, 14, 42
    catalan = [1, 1, 2, 5, 14, 42]
    for k, c in enumerate(catalan):
        assert count_shapes(2 * k + 1, (2,)) == c
        assert count_shapes(2 * k + 2, (2,)) == 0

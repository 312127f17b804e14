"""Stream keys and Rand values pinned to numbers recorded before stream keys
were derived lazily; any change to them moves every seeded result."""

from taru.rng import Stream


def test_child_keys_are_pinned():
    s = Stream.from_seed(1).child("draws").child(5, 1)
    assert s._key.hex()[:16] == "c7fd85d87c8104ff"
    t = Stream.from_seed(1).child("label", "T:r:7", ("walk", 3, 0), True)
    assert t._key.hex()[:16] == "71513e3d231b5e26"


def test_rand_values_are_pinned():
    s = Stream.from_seed(1).child("draws").child(5, 1)
    items = list(range(8))
    s.rand().shuffle(items)
    assert items == [3, 7, 2, 1, 5, 6, 4, 0]
    assert s.rand().below(1000) == 86


def test_lazy_grandchild_key_matches_eager_one():
    lazy = Stream.from_seed(3).child("a", 1).child(("b", 2), False).child("c")
    parent = Stream.from_seed(3).child("a", 1)
    assert parent._key  # forced before its child is made
    middle = parent.child(("b", 2), False)
    assert middle._key
    eager = middle.child("c")
    assert lazy._key == eager._key
    assert lazy.rand().random() == eager.rand().random()


def test_bool_and_int_labels_differ():
    root = Stream.from_seed(1)
    assert root.child(True)._key != root.child(1)._key
    assert root.child(False)._key != root.child(0)._key

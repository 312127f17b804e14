"""Stream keys and Rand values pinned to numbers recorded before stream keys
were derived lazily; any change to them moves every seeded result.  A lazily
resolved key must be its definition, and Rand must give random.Random's
sequence.  Rand.pick must return what Rand.weighted_index returns, index for
index."""

import hashlib
import random

from taru.rng import Rand, Stream, _encode_label, cumulative
from taru.trees import parse_tree


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


def test_tree_label_hashes_as_its_text_and_writes_it_only_then():
    t = parse_tree('a(3,b("x y",1))')
    lazy = Stream.from_seed(3).child("part", 0, "s", 9, t)
    assert t._text is None
    key = lazy._key
    assert t._text is not None
    assert key == Stream.from_seed(3).child("part", 0, "s", 9, t.text())._key


def test_bool_and_int_labels_differ():
    root = Stream.from_seed(1)
    assert root.child(True)._key != root.child(1)._key
    assert root.child(False)._key != root.child(0)._key


def _reference_key(parent_key: bytes, labels: tuple) -> bytes:
    """The key by its definition: sha256 over the parent key and each
    label's generic encoding."""
    return hashlib.sha256(parent_key + b"".join(
        b"/" + _encode_label(label) for label in labels)).digest()


_LABEL_TUPLES = [
    ("draws",),
    (5, 1),
    ("sketch", 0, "q|x=\u00e9", 7, 123456789012345678901234567890, -3),
    (True, False, 1, 0),
    (("walk", 3, (0, "s")), "x"),
    ("part", 0, "s", 9, parse_tree('a(3,b("x y",1))')),
]


def test_keys_are_the_definition_under_hashed_and_unhashed_parents():
    """The lazy chain gives each key its definition, whether the parent was
    hashed before the child was made or is resolved along with it."""
    for first in _LABEL_TUPLES:
        root = Stream.from_seed(5)
        parent = root.child(*first)
        parent_key = _reference_key(root._key, first)
        assert parent._key == parent_key  # hashed before its child is made
        for second in _LABEL_TUPLES:
            assert parent.child(*second)._key == _reference_key(parent_key, second)
            grandchild = root.child(*first).child("mid").child(*second)
            assert grandchild._key == _reference_key(
                _reference_key(parent_key, ("mid",)), second)


def test_rand_gives_the_sequence_of_random_random():
    rng = random.Random(13)
    for _ in range(200):
        seed = rng.getrandbits(256)
        ours, theirs = Rand(seed), random.Random(seed)
        assert [ours.random() for _ in range(3)] == [theirs.random() for _ in range(3)]


# -- Rand.pick against Rand.weighted_index ------------------------------------


class _Fixed:
    """Stands in for random.Random, always returning one value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _fixed(value) -> Rand:
    rand = Rand(0)
    rand._r = _Fixed(value)
    return rand


def _both_pick(weights, seed=0, draws=300):
    """Index sequences of weighted_index and pick from equally seeded Rands."""
    slow, fast = Rand(seed), Rand(seed)
    cum = cumulative(weights)
    return ([slow.weighted_index(weights) for _ in range(draws)],
            [fast.pick(cum) for _ in range(draws)])


def test_pick_matches_weighted_index_on_one_weight():
    slow, fast = _both_pick([2.5])
    assert slow == fast == [0] * 300


def test_pick_matches_weighted_index_on_equal_weights():
    slow, fast = _both_pick([1.0] * 5, seed=4)
    assert slow == fast
    assert set(fast) == set(range(5))


def test_pick_matches_weighted_index_when_weights_vanish_in_the_sum():
    weights = [1.0, 1e-17, 1e-17, 1.0]
    cum = cumulative(weights)
    assert cum[0] == cum[1] == cum[2]  # acc + w == acc
    slow, fast = _both_pick(weights, seed=9)
    assert slow == fast
    # x lands exactly on the repeated running sum: both skip to index 3.
    assert _fixed(0.5).weighted_index(weights) == _fixed(0.5).pick(cum) == 3


def test_pick_matches_weighted_index_when_the_draw_rounds_up_to_the_total():
    weights = [5e-324] * 3  # subnormal, so u * total can round up to total
    u = 1.0 - 2.0**-53  # the largest value random() returns
    cum = cumulative(weights)
    assert u * cum[-1] == cum[-1]
    assert _fixed(u).weighted_index(weights) == _fixed(u).pick(cum) == 2


def test_pick_matches_weighted_index_on_random_weights():
    rng = random.Random(11)
    for trial in range(200):
        weights = [rng.choice([0.0, 1e-300, 1.0, 3.0, 1e12]) * rng.random()
                   for _ in range(rng.randint(1, 9))]
        if sum(weights) <= 0.0:
            continue
        slow, fast = _both_pick(weights, seed=trial, draws=50)
        assert slow == fast

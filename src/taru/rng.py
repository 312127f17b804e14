"""Splittable, deterministic random streams.

Every piece of randomness in the library is drawn from a Stream derived from
one root seed.  Streams are split by structural labels (state names, levels,
draw indices, ...), so the value produced at any point is a function of the
root seed and the derivation path alone, never of evaluation order.  This is
what makes whole runs reproducible and order independent.

A child's key is sha256(parent key + "/" + label + "/" + label ...).  It is
computed only when rand() needs it, or when a descendant's key does, so a
stream that nothing draws from costs no hash; the hashed bytes, and so every
key, are the same as if each child had been hashed when it was made.  A Tree
label hashes as its text would, and that text is written only then.

A stream's generator is a Mersenne Twister seeded with its key read as a
big-endian integer, made by the C type _random.Random: for an int seed it
gives random.Random's sequence without the Python-level seed wrapper.

Since a stream's values depend on its path alone, and each consumer reads
only the stream derived for it, a consumer whose outcome is forced (one
symbol to choose from, one distinct tree to replay) skips rand() altogether:
no other value can change.
"""

from __future__ import annotations

import hashlib
from _random import Random
from bisect import bisect_right

from .trees import Tree


def _encode_label(label) -> bytes:
    # Exact str and int first, the common labels; type(True) is bool.
    kind = type(label)
    if kind is str:
        return b"s" + label.encode("utf-8")
    if kind is int:
        return b"i" + str(label).encode("ascii")
    if isinstance(label, str):
        return b"s" + label.encode("utf-8")
    if isinstance(label, bool):
        return b"b1" if label else b"b0"
    if isinstance(label, int):
        return b"i" + str(label).encode("ascii")
    if isinstance(label, tuple):
        return b"t(" + b",".join(_encode_label(x) for x in label) + b")"
    if isinstance(label, Tree):
        # The bytes of its text as a str label, written only when hashed.
        return b"s" + label.text().encode("utf-8")
    raise TypeError(f"unsupported stream label type: {type(label)!r}")


class Stream:
    """A node in the derivation tree of random streams."""

    __slots__ = ("_parent", "_labels", "_k")

    def __init__(self, key: bytes | None, parent: Stream | None = None,
                 labels: tuple = ()):
        self._k = key
        self._parent = parent
        self._labels = labels

    @classmethod
    def from_seed(cls, seed: int) -> "Stream":
        return cls(hashlib.sha256(b"taru-root:" + str(seed).encode("ascii")).digest())

    @property
    def _key(self) -> bytes:
        if self._k is None:
            # Resolve the chain of unhashed ancestors from the top down.
            chain = [self]
            while chain[-1]._parent._k is None:
                chain.append(chain[-1]._parent)
            for node in reversed(chain):
                node._k = hashlib.sha256(node._parent._k + b"".join(
                    b"/" + _encode_label(label) for label in node._labels
                )).digest()
                node._parent = None
        return self._k

    def child(self, *labels) -> "Stream":
        return Stream(None, self, labels)

    def rand(self) -> "Rand":
        return Rand(int.from_bytes(self._key, "big"))


class Rand:
    """Thin wrapper over a Mersenne Twister exposing only stable primitives.

    Only random() is documented to keep its sequence across Python versions,
    so every helper here is built on it.
    """

    __slots__ = ("_r",)

    def __init__(self, seed: int):
        # The C type seeded directly: for an int seed, random.Random's
        # sequence.
        self._r = Random(seed)

    def random(self) -> float:
        return self._r.random()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return min(int(self._r.random() * n), n - 1)

    def bernoulli(self, p: float) -> bool:
        return self._r.random() < p

    def shuffle(self, items: list) -> None:
        # below(i + 1) written out, without a method call per element.
        random = self._r.random
        for i in range(len(items) - 1, 0, -1):
            j = min(int(random() * (i + 1)), i)
            items[i], items[j] = items[j], items[i]

    def weighted_index(self, weights) -> int:
        """Index i with probability weights[i] / sum(weights)."""
        total = 0.0
        for w in weights:
            if w < 0:
                raise ValueError("negative weight")
            total += w
        if total <= 0:
            raise ValueError("weights sum to zero")
        x = self._r.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if x < acc:
                return i
        return len(weights) - 1

    def pick(self, cum: list) -> int:
        """weighted_index over the weights whose cumulative() is cum, found
        by binary search; index for index the same answer, since cum[-1] is
        weighted_index's total and cum[i] its running sum at i."""
        i = bisect_right(cum, self._r.random() * cum[-1])
        return i if i < len(cum) else len(cum) - 1


def cumulative(weights) -> list:
    """Running sums of non-negative weights, added in the order and the way
    Rand.weighted_index adds them."""
    out = []
    acc = 0.0
    for w in weights:
        acc += w
        out.append(acc)
    return out

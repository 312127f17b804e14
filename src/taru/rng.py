"""Splittable, deterministic random streams.

Every piece of randomness in the library is drawn from a Stream derived from
one root seed.  Streams are split by structural labels (state names, levels,
draw indices, ...), so the value produced at any point is a function of the
root seed and the derivation path alone, never of evaluation order.  This is
what makes whole runs reproducible and order independent.
"""

from __future__ import annotations

import hashlib
import random


def _encode_label(label) -> bytes:
    if isinstance(label, str):
        return b"s" + label.encode("utf-8")
    if isinstance(label, bool):
        return b"b1" if label else b"b0"
    if isinstance(label, int):
        return b"i" + str(label).encode("ascii")
    if isinstance(label, tuple):
        return b"t(" + b",".join(_encode_label(x) for x in label) + b")"
    raise TypeError(f"unsupported stream label type: {type(label)!r}")


class Stream:
    """A node in the derivation tree of random streams."""

    __slots__ = ("_key",)

    def __init__(self, key: bytes):
        self._key = key

    @classmethod
    def from_seed(cls, seed: int) -> "Stream":
        return cls(hashlib.sha256(b"taru-root:" + str(seed).encode("ascii")).digest())

    def child(self, *labels) -> "Stream":
        h = hashlib.sha256(self._key)
        for label in labels:
            h.update(b"/")
            h.update(_encode_label(label))
        return Stream(h.digest())

    def rand(self) -> "Rand":
        return Rand(int.from_bytes(self._key, "big"))


class Rand:
    """Thin wrapper over random.Random exposing only stable primitives.

    Only Random.random() is documented to keep its sequence across Python
    versions, so every helper here is built on it.
    """

    __slots__ = ("_r",)

    def __init__(self, seed: int):
        self._r = random.Random(seed)

    def random(self) -> float:
        return self._r.random()

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return min(int(self._r.random() * n), n - 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def bernoulli(self, p: float) -> bool:
        return self._r.random() < p

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
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

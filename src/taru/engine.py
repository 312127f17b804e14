"""Slice counting and uniform sampling for binary tree automata.

The engine estimates N(s, i), the number of size-i trees derivable from each
state s, level by level.  Level 1 is exact.  At level i every derivation
channel (root symbol, left size, child-state pair) contributes the product of
its children's estimates, discounted by the measured fraction of its trees
not already produced by an earlier channel with the same symbol and split;
channels with different symbols or splits never overlap, so only true
ambiguity is ever measured.

Alongside the estimates the engine keeps, per (state, level), a sketch of
uniform sample trees, filled when first read.  Sketches supply the overlap
measurements and back the tree-language oracles of the completion-counting
NFAs used while sampling; their entries come from structurally keyed streams,
so when a sketch is filled changes none of its trees.  Samples are drawn by
growing partial trees top down; the branch estimates come from the completion
counter and are held in the choice tree, one root per (state, level), which
makes each accepted draw exactly uniform conditioned on the table (acceptance
cancels the branch probabilities).  A partial tree with no run through
non-empty cells is given weight zero without laying out its NFA; that run
check passes exactly when the count is positive, so a candidate that is the
only one to pass it at its node is taken without being counted (only ratios
of counts are read).  A partial tree whose NFA layout has no union of live
transitions is counted by the product along its one live path, as the
counter would, without building the NFA.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .automata import TreeAutomaton, decode_tree, encode_binary
from .config import (
    FILL_ATTEMPTS,
    Config,
    EngineParams,
    RunStats,
    certificate,
    resolve_engine_params,
)
from .partition import (
    HoleFilter,
    PartitionLayout,
    build_partition_nfa,
    partition_layout,
    up_states,
)
from .rng import Stream
from .sampling import EMPTY, FAIL, ChoiceNode, sample_tree
from .snfa import LabelOracle, NfaCounter, OracleExhausted
from .trees import Tree, hole, leaf
from .unrolling import UnrolledAutomaton

BOT = "BOT"


class EngineFail(RuntimeError):
    """A sample-set slot could not be filled within its trial budget."""


class _SketchLabel(LabelOracle):
    """Tree-language oracle for (state, level), answered from the engine
    table: membership by the automaton, size by the level estimate, samples
    by replaying the stored sketch in a per-consumer order without
    replacement.  A sketch of one repeated tree is replayed unshuffled, since
    every order gives the same draws."""

    def __init__(self, engine: "Engine", state: str, level: int):
        self.key = f"T:{state}:{level}"
        self.engine = engine
        self.state = state
        self.level = level
        # Crude but sufficient: trees of size i over |alphabet| symbols.
        self._bits = 2.0 * level + level * math.log2(
            max(2, len(engine.unrolled.base.alphabet))
        )
        self._constant = None  # whether the full sketch repeats one tree; set on first replay

    def member(self, element) -> bool:
        return isinstance(element, Tree) and self.engine.unrolled.member(
            element, self.state, self.level
        )

    def size_est(self) -> float:
        return self.engine.estimate(self.state, self.level)

    def size_bound_bits(self) -> float:
        return self._bits

    def pool(self) -> list:
        return self.engine.sketch(self.state, self.level)

    def new_sampler(self, stream: Stream):
        pool = self.pool()
        if self._constant is None:
            self._constant = all(t == pool[0] for t in pool)
        if self._constant:
            left = [len(pool)]

            def draw_constant():
                if not left[0]:
                    raise OracleExhausted(self.key)
                left[0] -= 1
                return pool[0]

            return draw_constant
        order = list(range(len(pool)))
        stream.rand().shuffle(order)
        pos = [0]

        def draw():
            if pos[0] >= len(order):
                raise OracleExhausted(self.key)
            item = pool[order[pos[0]]]
            pos[0] += 1
            return item

        return draw


class Engine:
    def __init__(self, automaton: TreeAutomaton, n: int, config: Config):
        automaton.require_binary()
        self.base = automaton
        self.n = n
        self.params: EngineParams = resolve_engine_params(config, n, automaton.size)
        self.unrolled = UnrolledAutomaton(automaton, n)
        self.root_stream = Stream.from_seed(config.seed).child("engine")
        self.est_table: dict[tuple[str, int], float] = {}
        self._sketches: dict[tuple[str, int], list[Tree]] = {}
        self._roots: dict[tuple[str, int], ChoiceNode] = {}
        self._leaf_choices = {
            s: sorted(set(symbols)) for s, symbols in automaton.leaf_symbols.items()
        }
        # Only these symbols can fill a hole of size 1, resp. of size >= 3.
        self._leaf_alphabet = sorted({a for a, arity in automaton.by_symbol if arity == 0})
        self._node_alphabet = sorted({a for a, arity in automaton.by_symbol if arity == 2})
        # Holes are smaller than any level sampled from, so the estimates
        # this filter reads are final when it first reads them.  The filter
        # reads only the table, and the completion NFAs' shared labels reach
        # the engine through a proxy, so no reference cycle keeps a
        # finished engine alive.
        est = self.est_table
        self._live_holes = HoleFilter(
            automaton.states, lambda s, h: est.get((s, h), 0.0) > 0.0
        )
        self._labels: dict[tuple[str, int], _SketchLabel] = {}
        self._proxy = weakref.proxy(self)
        self.stats = RunStats()

    # -- table access ------------------------------------------------------

    def estimate(self, state: str, level: int) -> float:
        return self.est_table.get((state, level), 0.0)

    def sketch(self, state: str, level: int) -> list[Tree]:
        """The sample set for (state, level), filled on first read."""
        pool = self._sketches.get((state, level))
        if pool is None:
            pool = self._sketches[(state, level)] = [
                self.sketch_entry(state, level, position)
                for position in range(self.params.alpha)
            ]
        return pool

    def sketch_entry(self, state: str, level: int, position: int) -> Tree:
        """Entry `position` of the (state, level) sample set."""
        for attempt in range(FILL_ATTEMPTS):
            # The 0 keeps the key layout, and so every seeded draw, of earlier releases.
            stream = self.root_stream.child(
                "sketch", 0, state, level, position, attempt
            )
            t = self.sample(state, level, stream)
            if isinstance(t, Tree):
                if not self.unrolled.member(t, state, level):
                    raise AssertionError(
                        "sampled tree fails membership from its own (state, level)"
                    )
                return t
            if t == EMPTY:
                raise EngineFail(
                    f"sample set requested for empty cell ({state}, {level})"
                )
            self.stats.sample_failures += 1
        raise EngineFail(
            f"could not fill sample set slot ({state}, {level}, {position}) "
            f"within {FILL_ATTEMPTS} attempts"
        )

    # -- estimates -----------------------------------------------------------

    def build(self) -> float:
        for s in self.base.states:
            self.est_table[(s, 1)] = float(self.unrolled.leaf_count(s))
        for i in range(2, self.n + 1):
            # Sketches are filled on first read, not here.  The overlaps
            # read them level by level, so a fill mostly finds the lower
            # cells it needs already filled, and nested fills stay a few
            # deep as n grows.
            for s in sorted(self.base.states):
                self.est_table[(s, i)] = self._estimate_level_state(s, i)
        return self.estimate(self.base.initial, self.n)

    def _estimate_level_state(self, state: str, level: int) -> float:
        total = 0.0
        for (_, left), pairs in self.unrolled.groups(state, level):
            right = level - 1 - left
            live = [
                (q, r)
                for (q, r) in pairs
                if self.estimate(q, left) > 0.0 and self.estimate(r, right) > 0.0
            ]
            if not live:
                continue
            for pos, (q, r) in enumerate(live):
                weight = self.estimate(q, left) * self.estimate(r, right)
                if pos == 0:
                    frac = 1.0
                else:
                    frac = self._overlap_pairs(left, right, live, pos)
                total += weight * frac
        return total

    def _overlap_pairs(self, left, right, live, pos) -> float:
        """Fraction of the channel's sketch-pair products not derivable by an
        earlier channel with the same symbol and split.  Freshness depends on
        a pair only through its two derivable state sets, and sketches repeat
        few of them, so every pair is counted."""
        q, r = live[pos]
        earlier = live[:pos]
        derive = self.base.derive_states
        lpool = self.sketch(q, left)
        rpool = self.sketch(r, right)
        lsets = Counter(derive(t) for t in lpool)
        rsets = Counter(derive(t) for t in rpool)
        good = sum(
            m1 * m2
            for s1, m1 in lsets.items()
            for s2, m2 in rsets.items()
            if not any(q2 in s1 and r2 in s2 for (q2, r2) in earlier)
        )
        return good / (len(lpool) * len(rpool))

    # -- completion estimates ------------------------------------------------

    def completable(self, t: Tree, state: str, level: int) -> bool:
        """Whether the partial tree has a completion from (state, level),
        which is exactly when estimate_partition is positive, decided
        without counting.  A complete tree must be accepted at that size.  A
        level estimate is positive exactly when its cell is non-empty, so a
        partial tree needs a run through holes of non-empty cells; one
        without bumps pruned_by_run_check.  The run check keeps its answers
        for partial subtrees, so asking again about a tree, as
        estimate_partition does after a walk's liveness test, is a lookup."""
        if t.full_size != level:
            raise ValueError(
                f"partial tree has full size {t.full_size}, expected {level}"
            )
        if t.is_complete():
            return t.size == level and state in self.base.derive_states(t)
        if state in up_states(self.unrolled, t, self._live_holes):
            return True
        self.stats.pruned_by_run_check += 1
        return False

    def estimate_partition(self, t: Tree, state: str, level: int) -> float:
        """Estimated number of completions of the partial tree from
        (state, level); exact zero iff there are none, and exact one/zero for
        complete inputs.  Each call counts afresh: the choice tree keeps the
        counts it reads."""
        if not self.completable(t, state, level):
            return 0.0
        if t.is_complete():
            return 1.0
        layout = partition_layout(self.unrolled, t, state)
        self.stats.partition_nfas += 1
        value = self._sweep(layout)
        if value is not None:
            layout.check_size(
                layout.nfa_size(lambda s, h: self._label(s, h).size_bound_bits())
            )
            return value
        self.stats.partition_unions += 1
        return NfaCounter(
            build_partition_nfa(layout, self._label).nfa,
            self.params.nfa,
            self.root_stream.child("part", 0, state, level, t),  # 0: see sketch_entry
            self.stats,
        ).run()

    def _sweep(self, layout: PartitionLayout) -> Optional[float]:
        """NfaCounter's count of the layout's NFA when no state has two
        live incoming transitions (source estimate and label size both
        positive), None otherwise.  Without such a union the counter
        multiplies each state's one live source estimate by its label size,
        level by level from s0's 1.0 times the '&' label's 1.0, and draws
        nothing; this sweep does the same multiplications in the same
        order."""
        est = {q: 1.0 * 1.0 for _, _, _, q in layout.layers[0]}
        for layer in layout.layers[1:]:
            reached: dict = {}
            for src, hole_state, hole_size, dst in layer:
                src_est = est.get(src, 0.0)
                if src_est > 0.0:
                    size = self.estimate(hole_state, hole_size)
                    if size > 0.0:
                        if dst in reached:
                            return None
                        reached[dst] = src_est * size
            est = reached
        return est.get(None, 0.0)

    def _label(self, state: str, level: int) -> _SketchLabel:
        label = self._labels.get((state, level))
        if label is None:
            label = self._labels[(state, level)] = _SketchLabel(self._proxy, state, level)
        return label

    # -- sampling --------------------------------------------------------------

    def sample(self, state: str, level: int, stream: Stream):
        """One tree from (state, level): a Tree, FAIL, or EMPTY."""
        est = self.estimate(state, level)
        if est <= 0.0:
            return EMPTY
        if level == 1:
            symbols = self._leaf_choices[state]
            if len(symbols) == 1:
                return leaf(symbols[0])  # forced: reads no randomness
            return leaf(symbols[stream.rand().below(len(symbols))])
        root = self._roots.get((state, level))
        if root is None:
            root = self._roots[(state, level)] = ChoiceNode(hole(level))
        return sample_tree(
            root,
            self._leaf_alphabet,
            self._node_alphabet,
            lambda partial: self.completable(partial, state, level),
            lambda partial: self.estimate_partition(partial, state, level),
            est,
            stream,
            self.stats,
        )


@dataclass
class CountResult:
    estimate: float
    certificate: dict


class LanguageSampler:
    """The slice handle: one counting run over the size-n slice, then its
    estimate, its certificate and uniform draws from the same table.

    A non-binary automaton is encoded and handled at size 2n-1, and draws are
    decoded back.  A binary slice of even size is empty and builds no engine.
    Each draw retries the core sampler up to three times.  Each distinct
    emitted tree is decoded and membership-checked before it is first
    returned; a repeat returns the tree that passed, found by identity when
    the engine hands back its choice tree's own object and by value
    otherwise.  A tree that fails is not remembered and fails on every draw.
    """

    def __init__(self, automaton: TreeAutomaton, n: int, config: Config):
        self.automaton = automaton
        self.n = n
        self.config = config
        self.encoded = not automaton.is_binary()
        work = encode_binary(automaton) if self.encoded else automaton
        self.work_n = 2 * n - 1 if self.encoded else n
        self.engine: Optional[Engine] = None
        self.stats = RunStats()  # an even-size slice runs nothing
        if self.work_n % 2 == 1:
            self.engine = Engine(work, self.work_n, config)
            self.stats = self.engine.stats
            self.engine.build()
        self.empty = self.estimate() <= 0.0
        self._next = 0
        self._passed: dict[Tree, Tree] = {}  # engine tree -> checked output

    @cached_property
    def _draw_stream(self) -> Stream:
        # Derived on the first draw: a handle that only counts needs none.
        return Stream.from_seed(self.config.seed).child("draws")

    def estimate(self) -> float:
        if self.engine is None:
            return 0.0
        return self.engine.estimate(self.engine.base.initial, self.work_n)

    def count(self) -> CountResult:
        """The slice estimate with its certificate."""
        extra = {"exact": "even-size"} if self.engine is None else {}
        if self.encoded:
            extra["encoded"] = True
        return CountResult(
            self.estimate(), certificate(self.config, "fpras", self.stats, **extra)
        )

    def draw(self):
        """A uniform tree, FAIL, or EMPTY."""
        index = self._next
        self._next += 1
        if self.empty:
            return EMPTY
        for attempt in range(3):
            t = self.engine.sample(
                self.engine.base.initial,
                self.work_n,
                self._draw_stream.child(index, attempt),
            )
            if isinstance(t, Tree):
                out = self._passed.get(t)
                if out is None:
                    out = decode_tree(t) if self.encoded else t
                    if out.size != self.n or not self.automaton.accepts(out):
                        raise AssertionError("sampler emitted a non-member tree")
                    self._passed[t] = out
                return out
        return FAIL


def fpras_ta(automaton: TreeAutomaton, n: int, config: Config) -> CountResult:
    """Randomized (1 +- epsilon) slice count for a tree automaton; see
    LanguageSampler for when the binary encoding is used."""
    if n < 1:
        raise ValueError("slice size must be at least 1")
    return LanguageSampler(automaton, n, config).count()


def fpras_bta(automaton: TreeAutomaton, n: int, config: Config) -> CountResult:
    """Randomized (1 +- epsilon) slice count for a binary tree automaton."""
    automaton.require_binary()
    return fpras_ta(automaton, n, config)


class FpausSampler:
    """Almost-uniform sampler over a slice handle: retries draws enough times
    that the bottom symbol is returned with probability at most delta on
    nonempty slices, and always on empty ones."""

    def __init__(self, handle: LanguageSampler):
        self.handle = handle
        self.retries = max(2, math.ceil(math.log2(1.0 / handle.config.delta)) + 1)

    def draw(self):
        if self.handle.empty:
            return BOT
        for _ in range(self.retries):
            t = self.handle.draw()
            if isinstance(t, Tree):
                return t
        return BOT


def fpaus(automaton: TreeAutomaton, n: int, config: Config) -> FpausSampler:
    return FpausSampler(LanguageSampler(automaton, n, config))

"""Succinct NFAs: counting and near-uniform word sampling.

A succinct NFA labels each transition with a *set* of symbols that may be far
too large to list; the set is reachable only through an oracle offering
membership, an approximate size, and near-uniform samples.  Words of a fixed
length k are counted by unrolling the automaton into levels and sweeping the
states in topological order, keeping for every state an estimate of how many
words reach it and a sketch of near-uniform sample words.  The sweep estimates
each union of incoming channels with first-occurrence overlap fractions; the
word sampler grows a suffix backwards, correcting for symbols reachable
through several channels with a rejection ratio computed from the sketches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .config import (
    FILL_ATTEMPTS,
    Config,
    NfaParams,
    RunStats,
    certificate,
    resolve_nfa_params,
)
from .rng import Stream, cumulative
from .sampling import EMPTY, FAIL

# Largest sketch-by-label product whose overlap fraction is counted pair by
# pair instead of sampled.
EXHAUSTIVE_CAP = 4096


class OracleExhausted(RuntimeError):
    """A without-replacement sample pool ran out of elements."""


class NfaError(ValueError):
    pass


class LabelOracle:
    """Access contract for a transition label set.

    Subclasses provide identity (key), membership, an approximate size, and a
    per-consumer sample factory.  pool() optionally exposes a finite list that
    stands in for the set when exhaustive enumeration of pairs is cheaper than
    sampling; enumerate_all() exposes the exact set contents when the label is
    small enough for brute-force oracles.
    """

    key: str

    def member(self, element) -> bool:
        raise NotImplementedError

    def size_est(self) -> float:
        raise NotImplementedError

    def size_bound_bits(self) -> float:
        raise NotImplementedError

    def new_sampler(self, stream: Stream):
        """Returns draw() -> element for one consumer context."""
        raise NotImplementedError

    def pool(self) -> Optional[list]:
        return None

    def enumerate_all(self) -> Optional[list]:
        return None


class ExplicitLabel(LabelOracle):
    """A label given as an explicit list of symbols; all answers are exact."""

    def __init__(self, key: str, elements: Iterable):
        self.key = key
        self.elements = tuple(elements)
        if not self.elements:
            raise NfaError(f"label {key!r} is empty")
        self._set = frozenset(self.elements)
        if len(self._set) != len(self.elements):
            # size_est counts the listed elements.
            raise NfaError(f"label {key!r} lists a symbol twice")

    def member(self, element) -> bool:
        return element in self._set

    def size_est(self) -> float:
        return float(len(self.elements))

    def size_bound_bits(self) -> float:
        return float(max(1, len(self.elements).bit_length()))

    def new_sampler(self, stream: Stream):
        elems = self.elements
        if len(elems) == 1:
            # A forced draw reads no randomness.
            return lambda: elems[0]
        rand = stream.rand()

        def draw():
            return elems[rand.below(len(elems))]

        return draw

    def pool(self) -> Optional[list]:
        return list(self.elements)

    def enumerate_all(self) -> Optional[list]:
        return list(self.elements)


@dataclass(frozen=True)
class NfaTransition:
    src: str
    label: str
    dst: str


class SuccinctNFA:
    """States, oracle-backed labeled transitions, one initial and one final
    state.  levels, when present, certify that transitions always move one
    level forward (the unrolled form)."""

    def __init__(self, states, transitions, initial, final, labels,
                 levels: Optional[dict] = None):
        self.states = tuple(states)
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise NfaError("duplicate state names")
        self.transitions = tuple(
            t if isinstance(t, NfaTransition) else NfaTransition(*t) for t in transitions
        )
        self.initial = initial
        self.final = final
        self.labels = dict(labels)
        for t in self.transitions:
            if t.src not in state_set or t.dst not in state_set:
                raise NfaError(f"transition {t} uses an undeclared state")
            if t.label not in self.labels:
                raise NfaError(f"transition {t} uses an undeclared label")
        for s in (initial, final):
            if s not in state_set:
                raise NfaError(f"state {s!r} is not declared")
        self.levels = dict(levels) if levels is not None else None
        if self.levels is not None:
            for t in self.transitions:
                if self.levels[t.dst] != self.levels[t.src] + 1:
                    raise NfaError(
                        f"transition {t} does not advance exactly one level"
                    )

    def size(self) -> int:
        label_bits = sum(
            int(self.labels[key].size_bound_bits()) for key in self.labels
        )
        return len(self.states) + len(self.transitions) + label_bits

    def is_leveled(self) -> bool:
        return self.levels is not None

    def word_length(self) -> int:
        if self.levels is None:
            raise NfaError("word_length needs a leveled NFA")
        return self.levels[self.final]


def unroll_nfa(nfa: SuccinctNFA, k: int) -> SuccinctNFA:
    """Leveled copy whose length-k words match the input's length-k words."""
    if k < 1:
        raise NfaError("word length must be at least 1")
    init, fin = "in^0", f"fin^{k}"
    states = [init]
    levels = {init: 0}
    for level in range(1, k):
        for s in nfa.states:
            name = f"{s}^{level}"
            states.append(name)
            levels[name] = level
    states.append(fin)
    levels[fin] = k
    transitions = []
    for t in nfa.transitions:
        for level in range(0, k):
            if level == 0 and t.src != nfa.initial:
                continue
            if level + 1 == k and t.dst != nfa.final:
                continue
            src = init if level == 0 else f"{t.src}^{level}"
            dst = fin if level + 1 == k else f"{t.dst}^{level + 1}"
            transitions.append(NfaTransition(src, t.label, dst))
    out = SuccinctNFA(states, transitions, init, fin, nfa.labels, levels)
    return prune_to_paths(out)


def prune_to_paths(nfa: SuccinctNFA) -> SuccinctNFA:
    """Drop states not on an initial-to-final path; may leave an empty NFA."""
    if nfa.levels is None:
        raise NfaError("prune_to_paths needs a leveled NFA")
    forward = {nfa.initial}
    changed = True
    by_src: dict[str, list[NfaTransition]] = {}
    by_dst: dict[str, list[NfaTransition]] = {}
    for t in nfa.transitions:
        by_src.setdefault(t.src, []).append(t)
        by_dst.setdefault(t.dst, []).append(t)
    frontier = [nfa.initial]
    while frontier:
        s = frontier.pop()
        for t in by_src.get(s, ()):  # levels increase, so this terminates
            if t.dst not in forward:
                forward.add(t.dst)
                frontier.append(t.dst)
    backward = {nfa.final}
    frontier = [nfa.final]
    while frontier:
        s = frontier.pop()
        for t in by_dst.get(s, ()):
            if t.src not in backward:
                backward.add(t.src)
                frontier.append(t.src)
    keep = forward & backward
    if nfa.initial not in keep or nfa.final not in keep:
        keep = set()
    states = [s for s in nfa.states if s in keep or s in (nfa.initial, nfa.final)]
    transitions = [t for t in nfa.transitions if t.src in keep and t.dst in keep]
    used = {t.label for t in transitions}
    labels = {k: v for k, v in nfa.labels.items() if k in used}
    levels = {s: nfa.levels[s] for s in states}
    return SuccinctNFA(states, transitions, nfa.initial, nfa.final, labels, levels)


def leveled_at(nfa: SuccinctNFA, k: int) -> SuccinctNFA:
    """A leveled NFA of the input's length-k words: a leveled input must
    have word length k and is pruned to its accepting paths; any other
    input is unrolled."""
    if not nfa.is_leveled():
        return unroll_nfa(nfa, k)
    if nfa.word_length() != k:
        raise NfaError(f"leveled NFA has word length {nfa.word_length()}, asked for {k}")
    return prune_to_paths(nfa)


class _Frontier:
    __slots__ = ("trans", "total", "cum", "rho")

    def __init__(self, trans, weights):
        self.trans = trans
        self.total = sum(weights)
        self.cum = cumulative(weights)
        self.rho = None


class NfaCounter:
    """One counting sweep over a leveled, pruned succinct NFA.

    After run() the counter retains the per-state estimates and word sketches,
    so near-uniform word samples can be drawn from any state.  Its failures
    are counted in the caller's `stats`.
    """

    def __init__(self, nfa: SuccinctNFA, params: NfaParams, stream: Stream, stats: RunStats):
        if nfa.levels is None:
            raise NfaError("counting needs a leveled NFA")
        self.nfa = nfa
        self.params = params
        self.stream = stream
        self.stats = stats
        self._topo_index = {s: i for i, s in enumerate(nfa.states)}
        self._in: dict[str, list[tuple[int, NfaTransition]]] = {s: [] for s in nfa.states}
        for idx, t in enumerate(nfa.transitions):
            self._in[t.dst].append((idx, t))
        self.est: dict[str, float] = {}
        self._sketch: dict[str, list] = {}
        self._word_member_memo: dict[tuple[str, tuple], bool] = {}
        self._label_member_memo: dict[tuple[str, object], bool] = {}
        self._ratio_memo: dict[tuple[str, frozenset], float] = {}
        self._frontier_memo: dict[frozenset, _Frontier] = {}
        self._samplers: dict = {}
        self._walk_counter = 0
        self._ran = False

    # -- shared memoized predicates -------------------------------------

    def _label_member(self, label_key: str, element) -> bool:
        key = (label_key, element)
        hit = self._label_member_memo.get(key)
        if hit is None:
            hit = self.nfa.labels[label_key].member(element)
            self._label_member_memo[key] = hit
        return hit

    def _word_member(self, word: tuple, state: str) -> bool:
        key = (state, word)
        hit = self._word_member_memo.get(key)
        if hit is not None:
            return hit
        if self.nfa.levels[state] != len(word):
            hit = False
        elif not word:
            hit = state == self.nfa.initial
        else:
            frontier = {state}
            ok = True
            for a in reversed(word):
                prev = set()
                for idx, t in self._all_into(frontier):
                    if self._label_member(t.label, a):
                        prev.add(t.src)
                if not prev:
                    ok = False
                    break
                frontier = prev
            hit = ok and self.nfa.initial in frontier
        self._word_member_memo[key] = hit
        return hit

    def _all_into(self, states):
        for s in states:
            yield from self._in[s]

    def _sampler(self, label_key: str, context: tuple):
        key = (label_key, context)
        s = self._samplers.get(key)
        if s is None:
            s = self.nfa.labels[label_key].new_sampler(
                self.stream.child("label", label_key, context)
            )
            self._samplers[key] = s
        return s

    # -- estimates -------------------------------------------------------

    def run(self) -> float:
        order = sorted(self.nfa.states, key=lambda s: (self.nfa.levels[s], self._topo_index[s]))
        for s in order:
            if s == self.nfa.initial:
                self.est[s] = 1.0
                self._sketch[s] = [()]
            else:
                self.est[s] = self._estimate_state(s)
        self._ran = True
        return self.est.get(self.nfa.final, 0.0)

    def _estimate_state(self, state: str) -> float:
        live = []
        for idx, t in self._in[state]:
            src_est = self.est.get(t.src, 0.0)
            lab_est = self.nfa.labels[t.label].size_est()
            if src_est > 0.0 and lab_est > 0.0:
                live.append((idx, t, src_est * lab_est))
        if not live:
            return 0.0
        total = live[0][2]
        for pos in range(1, len(live)):
            idx, t, weight = live[pos]
            earlier = [lt for _, lt, _ in live[:pos]]
            frac = self._overlap_fraction(state, t, earlier, pos)
            total += weight * frac
        return total

    def _overlap_fraction(self, state: str, t: NfaTransition, earlier, pos: int) -> float:
        """Fraction of (word, symbol) products through t not already produced
        by an earlier incoming transition."""

        def fresh(w, a):
            for e in earlier:
                if self._label_member(e.label, a) and self._word_member(w, e.src):
                    return False
            return True

        wpool = self.word_pool(t.src)
        apool = self.nfa.labels[t.label].pool()
        if apool and len(wpool) * len(apool) <= EXHAUSTIVE_CAP:
            # Freshness depends on a symbol only through the sources of
            # the earlier transitions whose labels hold it, and the pool
            # shares few such source tuples.
            groups = Counter(
                tuple(e.src for e in earlier if self._label_member(e.label, a))
                for a in apool
            )
            good = 0
            for srcs, mult in groups.items():
                good += mult * sum(
                    1 for w in wpool
                    if not any(self._word_member(w, src) for src in srcs)
                )
            return good / (len(wpool) * len(apool))
        draw_a = self._sampler(t.label, ("trial", state, pos))
        rand = self.stream.child("trial", state, pos).rand()
        good = 0
        trials = self.params.d_trials
        for _ in range(trials):
            w = wpool[rand.below(len(wpool))]
            try:
                a = draw_a()
            except OracleExhausted:
                self.stats.nfa_exhausted += 1
                raise
            if fresh(w, a):
                good += 1
        return good / trials

    # -- sketches ---------------------------------------------------------

    def word_pool(self, state: str) -> list:
        pool = self._sketch.get(state)
        if pool is not None:
            return pool
        beta = self.params.beta
        pool = []
        position = 0
        while len(pool) < beta:
            got = None
            for attempt in range(FILL_ATTEMPTS):
                w = self.sample_from_state(
                    state, self.stream.child("sketch", state, position, attempt)
                )
                if isinstance(w, tuple):
                    got = w
                    break
                if w == EMPTY:
                    raise NfaError(f"sketch requested for empty state {state}")
                self.stats.nfa_sampler_failures += 1
            if got is None:
                raise OracleExhausted(
                    f"could not fill word sketch for {state} "
                    f"({FILL_ATTEMPTS} attempts per slot)"
                )
            if not self._word_member(got, state):
                raise AssertionError("sampled word fails its own membership")
            pool.append(got)
            position += 1
        self._sketch[state] = pool
        return pool

    # -- sampling ----------------------------------------------------------

    def _frontier(self, states: frozenset) -> _Frontier:
        info = self._frontier_memo.get(states)
        if info is not None:
            return info
        trans = []
        for idx, t in self._all_into(states):
            src_est = self.est.get(t.src, 0.0)
            lab_est = self.nfa.labels[t.label].size_est()
            z = src_est * lab_est
            if z > 0.0:
                trans.append((z, self._topo_index[t.src], idx, t))
        # Largest weight first; ties by source topological index, then by
        # declaration order.
        trans.sort(key=lambda item: (-item[0], item[1], item[2]))
        info = _Frontier([t for _, _, _, t in trans], [z for z, _, _, _ in trans])
        self._frontier_memo[states] = info
        return info

    def _accept_ratio(self, src: str, blockers: frozenset) -> float:
        """|sketch(src) minus words of any blocker state| / |sketch(src)|."""
        key = (src, blockers)
        hit = self._ratio_memo.get(key)
        if hit is not None:
            return hit
        pool = self.word_pool(src)
        good = 0
        for w in pool:
            if not any(self._word_member(w, b) for b in blockers):
                good += 1
        ratio = good / len(pool)
        self._ratio_memo[key] = ratio
        return ratio

    def _rho(self, states: frozenset, info: _Frontier) -> float:
        """Estimated probability that one draw-and-accept trial at this
        frontier rejects; the largest-weight channel never rejects, so the
        true value stays at most 1 - 1/len(trans)."""
        if info.rho is not None:
            return info.rho
        rand = self.stream.child("rho", tuple(sorted(states))).rand()
        fails = 0
        m = self.params.m_rho
        for i in range(m):
            j = rand.pick(info.cum)
            t = info.trans[j]
            draw = self._sampler(t.label, ("rho", tuple(sorted(states))))
            try:
                a = draw()
            except OracleExhausted:
                self.stats.nfa_exhausted += 1
                raise
            q = self._symbol_accept_prob(info, j, a)
            if not rand.bernoulli(q):
                fails += 1
        rho = fails / m
        if rho >= 1.0:
            rho = 1.0 - 1.0 / (2 * m)
        info.rho = rho
        return rho

    def _symbol_accept_prob(self, info: _Frontier, j: int, a) -> float:
        t = info.trans[j]
        blockers = frozenset(
            info.trans[j2].src
            for j2 in range(j)
            if self._label_member(info.trans[j2].label, a)
        )
        return self._accept_ratio(t.src, blockers)

    def sample_from_state(self, state: str, stream: Stream):
        """One word from the given state, FAIL, or EMPTY when no word exists.

        Conditioned on the sweep estimates, non-FAIL outputs are near-uniform
        over the state's word set.
        """
        if not self._ran and state != self.nfa.initial:
            # estimates up to this state's level must exist
            if state not in self.est:
                raise NfaError("sample_from_state before estimates are available")
        est_x = self.est.get(state, 0.0)
        if est_x <= 0.0:
            return EMPTY
        length = self.nfa.levels[state]
        if length == 0:
            return ()
        rand = stream.rand()
        self._walk_counter += 1
        walk_id = self._walk_counter
        word: tuple = ()
        q = 1.0
        frontier = frozenset([state])
        for step in range(length):
            info = self._frontier(frontier)
            if not info.trans:
                return FAIL
            accepted = None
            if len(info.trans) == 1:
                t = info.trans[0]
                draw = self._sampler(t.label, ("walk", walk_id, step))
                try:
                    a = draw()
                except OracleExhausted:
                    self.stats.nfa_exhausted += 1
                    return FAIL
                members = (0,)
                q *= self.est[t.src] / info.total
                accepted = a
            else:
                rho = self._rho(frontier, info)
                attempts = 0
                while accepted is None:
                    attempts += 1
                    if attempts > self.params.walk_cap:
                        self.stats.nfa_walk_caps += 1
                        return FAIL
                    j = rand.pick(info.cum)
                    t = info.trans[j]
                    draw = self._sampler(t.label, ("walk", walk_id, step))
                    try:
                        a = draw()
                    except OracleExhausted:
                        self.stats.nfa_exhausted += 1
                        return FAIL
                    if rand.bernoulli(self._symbol_accept_prob(info, j, a)):
                        accepted = a
                members = tuple(
                    j2
                    for j2 in range(len(info.trans))
                    if self._label_member(info.trans[j2].label, accepted)
                )
                step_q = 0.0
                for j2 in members:
                    t2 = info.trans[j2]
                    blockers = frozenset(
                        info.trans[j3].src
                        for j3 in range(j2)
                        if j3 in members
                    )
                    step_q += (self.est[t2.src] / info.total) * self._accept_ratio(
                        t2.src, blockers
                    )
                q *= step_q / (1.0 - rho)
            word = (accepted,) + word
            frontier = frozenset(info.trans[j2].src for j2 in members)
        if self.nfa.initial not in frontier:
            return FAIL
        p_accept = 1.0 / (2.0 * q * est_x)
        if p_accept > 1.0:
            p_accept = 1.0
            self.stats.nfa_clamped += 1
        if rand.bernoulli(p_accept):
            return word
        return FAIL


@dataclass
class NfaCountResult:
    estimate: float
    counter: Optional[NfaCounter]
    certificate: dict


def count_succinct_nfa(nfa: SuccinctNFA, k: int, config: Config) -> NfaCountResult:
    """Estimate the number of length-k words, retaining the sketch table."""
    leveled = leveled_at(nfa, k)
    stats = RunStats()
    if not leveled.transitions:
        return NfaCountResult(
            0.0, None, certificate(config, "nfa-count", stats, k=k, empty=True)
        )
    params = resolve_nfa_params(config, max(1, leveled.size()), k)
    counter = NfaCounter(
        leveled, params, Stream.from_seed(config.seed).child("nfa-count"), stats
    )
    estimate = counter.run()
    return NfaCountResult(estimate, counter, certificate(config, "nfa-count", stats, k=k))


def sample_word(result: NfaCountResult, stream: Stream):
    """A word from the counted NFA's full language, FAIL, or EMPTY; the walk
    is retried up to three times."""
    if result.counter is None or result.estimate <= 0.0:
        return EMPTY
    counter = result.counter
    for attempt in range(3):
        w = counter.sample_from_state(counter.nfa.final, stream.child("try", attempt))
        if isinstance(w, tuple) or w == EMPTY:
            return w
    return FAIL

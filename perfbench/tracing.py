"""Per-layer tracing from outside the program.

The tracer patches public entry points of taru's layers with wrappers that
record a span (name, start, end, parent) and per-name counters.  A layer's
self time is its spans' total duration minus the time covered by their child
spans.  Names are patched where the caller looks them up: ``engine`` imports
``sample_tree`` and ``build_partition_nfa`` with ``from``, so those are
replaced in ``taru.engine``.
"""

from __future__ import annotations

import importlib
import itertools
import json
from dataclasses import dataclass, field
from time import perf_counter

SPAN_CAP = 50_000

# (metric, unit, better): the per-layer metrics, in report order.
PER_LAYER = [
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("formats.queries_from_text.self_s", "s", "lower"),
    ("formats.database_from_text.self_s", "s", "lower"),
    ("cq.reduce_cq_to_ta.calls", "count", "lower"),
    ("cq.reduce_cq_to_ta.self_s", "s", "lower"),
    ("cq.cq_membership.calls", "count", "lower"),
    ("cq.cq_membership.self_s", "s", "lower"),
    ("engine.Engine.build.calls", "count", "lower"),
    ("engine.Engine.build.self_s", "s", "lower"),
    ("engine.Engine.sketch.self_s", "s", "lower"),
    ("engine.Engine.sketch.draws", "count", "lower"),
    ("engine.Engine.sample.calls", "count", "lower"),
    ("engine.Engine.sample.fail_ratio", "ratio", "lower"),
    ("engine.Engine.estimate_partition.calls", "count", "lower"),
    ("engine.Engine.estimate_partition.self_s", "s", "lower"),
    ("engine.Engine.estimate_partition.zero_ratio", "ratio", "lower"),
    ("engine.Engine.estimate_partition.nfa_build_ratio", "ratio", "lower"),
    ("engine.LanguageSampler.draw.fail_ratio", "ratio", "lower"),
    ("sampling.sample_tree.calls", "count", "lower"),
    ("sampling.sample_tree.self_s", "s", "lower"),
    ("sampling.immediate_extensions.candidates", "count", "lower"),
    ("partition.build_partition_nfa.calls", "count", "lower"),
    ("partition.build_partition_nfa.self_s", "s", "lower"),
    ("partition.build_partition_nfa.empty_ratio", "ratio", "lower"),
    ("snfa.NfaCounter.run.calls", "count", "lower"),
    ("snfa.NfaCounter.run.self_s", "s", "lower"),
    ("snfa.NfaCounter.word_pool.self_s", "s", "lower"),
    ("snfa.NfaCounter.sample_from_state.calls", "count", "lower"),
    ("snfa.NfaCounter.sample_from_state.fail_ratio", "ratio", "lower"),
    ("unrolling.UnrolledAutomaton.member.calls", "count", "lower"),
    ("automata.TreeAutomaton.derive_states.calls", "count", "lower"),
    ("automata.TreeAutomaton.derive_states.self_s", "s", "lower"),
    ("trees.Tree.__eq__.calls", "count", "lower"),
    ("trees.Tree.__init__.calls", "count", "lower"),
    ("rng.Stream.child.calls", "count", "lower"),
    ("rng.Stream.child.self_s", "s", "lower"),
]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    events: dict = field(default_factory=dict)

    def bump(self, event: str) -> None:
        self.events[event] = self.events.get(event, 0) + 1


def _is_fail(result) -> bool:
    # isinstance first: comparing a Tree with == would call Tree.__eq__,
    # which is itself a traced name.
    return isinstance(result, str) and result == "FAIL"


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._ids = itertools.count(1)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def timed(self, owner, attr: str, name: str, observe=None) -> None:
        """Wrap owner.attr in a span; observe(stat, parent_name, result)
        records what the call returned."""
        fn = owner.__dict__[attr]
        st = self.stat(name)
        stack, spans, ids = self._stack, self.spans, self._ids

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, perf_counter(), 0.0, next(ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[3], parent[3] if parent else None, name,
                                  frame[1], end))
                else:
                    self.dropped_spans += 1
            if observe is not None:
                observe(st, parent[0] if parent else None, result)
            return result

        self._patch(owner, attr, wrapper)

    def counted(self, owner, attr: str, name: str) -> None:
        """Count calls only, for names hit millions of times."""
        fn = owner.__dict__[attr]
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self, taru) -> None:
        cli = importlib.import_module("taru.cli")
        engine, snfa = taru.engine, taru.snfa
        Engine = engine.Engine

        def on_sample(st, parent, result):
            if _is_fail(result):
                st.bump("fails")
            if parent == "engine.Engine.sketch":
                self.stat("engine.Engine.sketch").bump("draws")

        def on_partition(st, parent, result):
            if result == 0.0:
                st.bump("zero")

        def on_nfa(st, parent, result):
            if not result.nfa.transitions:
                st.bump("empty")

        def on_fail(st, parent, result):
            if _is_fail(result):
                st.bump("fails")

        def on_extensions(st, parent, result):
            st.events["candidates"] = st.events.get("candidates", 0) + len(result)

        self.timed(cli, "run", "cli.run")
        self.timed(cli, "queries_from_text", "formats.queries_from_text")
        self.timed(cli, "database_from_text", "formats.database_from_text")
        self.timed(taru.cq, "reduce_cq_to_ta", "cq.reduce_cq_to_ta")
        self.timed(taru.cq, "cq_membership", "cq.cq_membership")
        self.timed(Engine, "build", "engine.Engine.build")
        self.timed(Engine, "sketch", "engine.Engine.sketch")
        self.timed(Engine, "sketch_entry", "engine.Engine.sketch")
        self.timed(Engine, "sample", "engine.Engine.sample", on_sample)
        self.timed(Engine, "estimate_partition", "engine.Engine.estimate_partition", on_partition)
        self.timed(engine.LanguageSampler, "draw", "engine.LanguageSampler.draw", on_fail)
        self.timed(engine, "sample_tree", "sampling.sample_tree")
        self.timed(taru.sampling, "immediate_extensions", "sampling.immediate_extensions",
                   on_extensions)
        self.timed(engine, "build_partition_nfa", "partition.build_partition_nfa", on_nfa)
        self.timed(snfa.NfaCounter, "run", "snfa.NfaCounter.run")
        self.timed(snfa.NfaCounter, "word_pool", "snfa.NfaCounter.word_pool")
        self.timed(snfa.NfaCounter, "sample_from_state", "snfa.NfaCounter.sample_from_state",
                   on_fail)
        self.timed(taru.unrolling.UnrolledAutomaton, "member", "unrolling.UnrolledAutomaton.member")
        self.timed(taru.automata.TreeAutomaton, "derive_states",
                   "automata.TreeAutomaton.derive_states")
        self.timed(taru.rng.Stream, "child", "rng.Stream.child")
        self.counted(taru.trees.Tree, "__eq__", "trees.Tree.__eq__")
        self.counted(taru.trees.Tree, "__init__", "trees.Tree.__init__")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, repetitions: int) -> dict:
        """Per-layer metrics per repetition; ratios are ratios of totals."""
        def get(name):
            return self.stats.get(name, Stat())

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric, unit, _ in PER_LAYER:
            name, measure = metric.rsplit(".", 1)
            st = get(name)
            if measure == "calls":
                value = st.calls / repetitions
            elif measure == "self_s":
                value = st.self_s / repetitions
            elif measure in ("draws", "candidates"):
                value = st.events.get(measure, 0) / repetitions
            elif measure == "fail_ratio":
                value = ratio(st.events.get("fails", 0), st.calls)
            elif measure == "zero_ratio":
                value = ratio(st.events.get("zero", 0), st.calls)
            elif measure == "empty_ratio":
                value = ratio(st.events.get("empty", 0), st.calls)
            elif measure == "nfa_build_ratio":
                value = ratio(get("partition.build_partition_nfa").calls, st.calls)
            else:
                raise ValueError(f"unknown measure in {metric}")
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
            if self.dropped_spans:
                f.write(json.dumps({"dropped": self.dropped_spans}) + "\n")

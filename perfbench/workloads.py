"""The benchmark workloads.

Each workload runs repetitions; a repetition rebuilds its inputs from its own
seed, runs the program on them and checks every output against the answers
in ``exact``.  ``rep`` returns the repetition's timings, operation counts and
any wrong output; ``record`` receives every estimate ``repr`` and drawn tree
text, in order, for the behaviour digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import exact

EPSILON = 0.2  # the program's default accuracy; every check uses it

# Transition tables (source, symbol, children) and initial states of the
# desk fixtures that the test suite also uses.
FIXTURES = {
    "catalan": ((("r", "a", ("r", "r")), ("r", "a", ())), "r"),
    "fig3": (
        (
            ("s", "a", ("q", "q")),
            ("s", "a", ("s", "r")),
            ("s", "a", ("r", "s")),
            ("q", "a", ("r", "r")),
            ("r", "a", ("r", "r")),
            ("r", "a", ()),
        ),
        "s",
    ),
    "root-witness": (
        (
            ("s", "a", ("q", "q")),
            ("q", "a", ("r", "r")),
            ("r", "a", ("r", "r")),
            ("r", "a", ()),
        ),
        "s",
    ),
    "mixed": (
        (
            ("u", "a", ("p", "r")),
            ("u", "a", ("r", "p")),
            ("p", "a", ("l", "r")),
            ("l", "a", ()),
            ("r", "a", ("r", "r")),
            ("r", "a", ()),
        ),
        "u",
    ),
}


def build_automaton(taru, name: str):
    transitions, initial = FIXTURES[name]
    states = {s for t in transitions for s in (t[0],) + t[2]}
    symbols = {t[1] for t in transitions}
    return taru.TreeAutomaton(states, symbols, list(transitions), initial)


@dataclass
class Rep:
    seconds: float = 0.0  # wall time of the repetition, inputs and checks included
    samples: dict = field(default_factory=dict)  # end-to-end metric -> value
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # wrong output
    errors: list = field(default_factory=list)  # failed operations
    draws: list = field(default_factory=list)  # drawn tree texts, tree-sample only


class Workload:
    name = ""
    trace_reps = 1  # repetitions covered by the digest and run when traced

    def __init__(self, taru, record, workdir: Path):
        self.taru = taru
        self.record = record

    def rep(self, seed: int) -> Rep:
        raise NotImplementedError

    def final_problems(self, reps) -> list:
        """Wrong output that only the run's repetitions together show."""
        return []


class TreeCount(Workload):
    """One round counts every fixture once with fpras_bta at a fixed n."""

    name = "tree-count"
    ROUND = (("catalan", 19), ("root-witness", 15), ("fig3", 15), ("mixed", 15))
    EXACT_FORMS = {
        "catalan": exact.exact_catalan,
        "fig3": exact.exact_fig3,
        "root-witness": exact.exact_root_witness,
    }

    def __init__(self, taru, record, workdir: Path):
        super().__init__(taru, record, workdir)
        self.truth = {}
        for name, n in self.ROUND:
            form = self.EXACT_FORMS.get(name)
            if form is None:
                self.truth[name] = len(exact.slice_texts(FIXTURES[name], n))
            else:
                self.truth[name] = form(n)

    def rep(self, seed: int) -> Rep:
        taru = self.taru
        rep = Rep()
        automata = [(name, n, build_automaton(taru, name)) for name, n in self.ROUND]
        config = taru.Config(epsilon=EPSILON, seed=seed)
        estimates = []
        started = perf_counter()
        for name, n, automaton in automata:
            rep.attempted += 1
            try:
                estimates.append((name, taru.fpras_bta(automaton, n, config).estimate))
            except Exception as e:  # a failed count is reported, not fatal
                rep.failed += 1
                rep.errors.append(f"{name}@{n} seed {seed}: {type(e).__name__}: {e}")
        elapsed = perf_counter() - started
        done = len(estimates)
        if done:
            rep.samples["count_s"] = elapsed / done
            rep.samples["results_per_s"] = done / elapsed
        for name, est in estimates:
            self.record(repr(est))
            truth = self.truth[name]
            if name in ("catalan", "root-witness"):
                # One channel per split: the sweep multiplies exact numbers.
                ok = est == truth
            else:
                ok = exact.within(est, truth, EPSILON)
            if not ok:
                rep.problems.append(f"{name} seed {seed}: estimate {est!r}, exact {truth}")
        return rep


class TreeSample(Workload):
    """Per seed: build fpaus(fig3, 13), then take DRAWS draws."""

    name = "tree-sample"
    trace_reps = 2
    N = 13
    DRAWS = 2000
    # fpaus retries a failed draw ceil(log2(1/delta)) + 1 times, three core
    # attempts each, and about half of all core attempts fail here.  At the
    # default delta = 0.1 that is 15 attempts and a bottom about once in
    # 45,000 draws: within the sampler's contract, but it would make the
    # failed share differ between seeds.  delta = 0.001 gives 33 attempts;
    # nothing else in the build or the draws reads delta.
    DELTA = 0.001

    def __init__(self, taru, record, workdir: Path):
        super().__init__(taru, record, workdir)
        self.support = exact.slice_texts(FIXTURES["fig3"], self.N)

    def rep(self, seed: int) -> Rep:
        taru = self.taru
        rep = Rep()
        automaton = build_automaton(taru, "fig3")
        config = taru.Config(epsilon=EPSILON, delta=self.DELTA, seed=seed)
        rep.attempted += 1
        started = perf_counter()
        try:
            sampler = taru.fpaus(automaton, self.N, config)
        except Exception as e:  # a failed build is reported, not fatal
            rep.failed += 1
            rep.errors.append(f"seed {seed}: build: {type(e).__name__}: {e}")
            return rep
        rep.samples["count_s"] = perf_counter() - started
        est = sampler.handle.estimate()
        self.record(repr(est))
        if not exact.within(est, len(self.support), EPSILON):
            rep.problems.append(f"seed {seed}: slice estimate {est!r}, exact {len(self.support)}")
        out = []
        started = perf_counter()
        for _ in range(self.DRAWS):
            out.append(sampler.draw())
        elapsed = perf_counter() - started
        rep.attempted += self.DRAWS
        trees = [t for t in out if isinstance(t, taru.Tree)]
        if len(trees) < len(out):
            rep.failed += len(out) - len(trees)
            rep.errors.append(f"seed {seed}: {len(out) - len(trees)} draws returned bottom")
        rep.samples["results_per_s"] = len(trees) / elapsed
        for t in trees:
            text = t.text()
            self.record(text)
            shape = exact.as_tuple(t)
            if (exact.size(shape) != self.N or not exact.accepts(FIXTURES["fig3"], shape)
                    or exact.text(shape) != text):
                rep.problems.append(f"seed {seed}: drew {text}, not in the slice")
            rep.draws.append(text)
        return rep

    def final_problems(self, reps) -> list:
        counts: dict = {}
        for rep in reps:
            for text in rep.draws:
                counts[text] = counts.get(text, 0) + 1
        if not counts:
            return []
        tv, threshold = exact.uniformity(counts, self.support)
        if tv > threshold:
            return [f"draws far from uniform: TV {tv:.4f} > {threshold:.4f}"]
        return []


class UcqCount(Workload):
    """Per seed: `taru ucq-count` in-process on a union of two length-1 path
    queries over a random graph."""

    name = "ucq-count"
    trace_reps = 2
    VERTICES = 10
    OUT_DEGREE = 2
    STARTS = 5  # vertices in S and in T
    SHARED = 2  # vertices in both
    QUERY = "Q(x,y) :- S(x), E(x,y).\nQ(x,y) :- T(x), E(x,y).\n"

    def __init__(self, taru, record, workdir: Path):
        super().__init__(taru, record, workdir)
        self.query_path = workdir / "ucq-query.txt"
        self.db_path = workdir / "ucq-database.txt"

    def instance(self, seed: int):
        """A random loop-free digraph in which every vertex has the same
        out-degree, and start sets S and T of fixed sizes and overlap.  Only
        which vertices and edges these are varies with the seed, so every
        instance has the same number of automaton states and answers and a
        call takes about the same time on every seed."""
        rng = random.Random(seed)
        vertices = [f"v{i}" for i in range(self.VERTICES)]
        edges = sorted(
            (a, b) for a in vertices
            for b in rng.sample([b for b in vertices if b != a], self.OUT_DEGREE)
        )
        order = rng.sample(vertices, self.VERTICES)
        s = sorted(order[: self.STARTS])
        t = sorted(order[self.STARTS - self.SHARED: 2 * self.STARTS - self.SHARED])
        return edges, s, t

    def rep(self, seed: int) -> Rep:
        rep = Rep()
        edges, s, t = self.instance(seed)
        facts = ([f"E({a},{b})." for a, b in edges] + [f"S({x})." for x in s]
                 + [f"T({x})." for x in t])
        self.query_path.write_text(self.QUERY, encoding="utf-8")
        self.db_path.write_text("\n".join(facts) + "\n", encoding="utf-8")
        truth = len(exact.union_answers(edges, (s, t)))
        argv = ["ucq-count", "--query", str(self.query_path), "--database", str(self.db_path),
                "--epsilon", str(EPSILON), "--seed", str(seed)]
        out, err = io.StringIO(), io.StringIO()
        rep.attempted += 1
        started = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.taru.cli.run(argv)
        except Exception as e:  # an escaped exception is a failed call, not fatal
            code = f"{type(e).__name__}: {e}"
        elapsed = perf_counter() - started
        if code != 0:
            rep.failed += 1
            rep.errors.append(f"seed {seed}: exit {code}: {err.getvalue().strip()}")
            return rep
        est = json.loads(out.getvalue().strip().splitlines()[-1])["estimate"]
        rep.samples["count_s"] = elapsed
        rep.samples["results_per_s"] = 1.0 / elapsed
        self.record(repr(est))
        if not exact.within(est, truth, EPSILON):
            rep.problems.append(f"seed {seed}: estimate {est!r}, exact {truth}")
        return rep


WORKLOADS = {w.name: w for w in (TreeCount, TreeSample, UcqCount)}

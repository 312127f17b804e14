"""Checks of the benchmark's own exact answers, uniformity test and tracer
against the program's brute-force oracles at small sizes."""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import exact
from tracing import Tracer
from workloads import FIXTURES, UcqCount, build_automaton

import taru
from taru.cq import brute_cq_count
from taru.formats import database_from_text, queries_from_text
from taru.oracles import brute_slice

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name, form", [
    ("catalan", exact.exact_catalan),
    ("fig3", exact.exact_fig3),
    ("root-witness", exact.exact_root_witness),
])
def test_closed_forms_match_brute_slice(name, form):
    automaton = build_automaton(taru, name)
    for n in range(1, 14, 2):
        assert form(n) == len(brute_slice(automaton, n, budget=None)), n


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_enumerated_slice_matches_brute_slice(name):
    automaton = build_automaton(taru, name)
    for n in range(1, 14, 2):
        want = sorted(t.text() for t in brute_slice(automaton, n, budget=None).trees)
        assert sorted(exact.slice_texts(FIXTURES[name], n)) == want, n


def test_fig3_sampling_slice_has_100_trees():
    assert len(set(exact.slice_texts(FIXTURES["fig3"], 13))) == 100


def test_union_join_matches_brute_cq_count():
    workload = UcqCount.__new__(UcqCount)
    for seed in range(5):
        edges, s, t = workload.instance(seed)
        facts = ([f"E({a},{b})." for a, b in edges] + [f"S({x})." for x in s]
                 + [f"T({x})." for x in t])
        db = database_from_text("\n".join(facts))
        answers = set()
        for query in queries_from_text(UcqCount.QUERY):
            answers |= brute_cq_count(query, db, budget=None)[1]
        assert exact.union_answers(edges, (s, t)) == answers


def test_uniformity_accepts_uniform_and_rejects_biased_samplers():
    support = exact.slice_texts(FIXTURES["fig3"], 13)
    rng = random.Random(7)
    for draws in (2000, 4000, 12000):
        for _ in range(20):
            counts = {}
            for _ in range(draws):
                t = rng.choice(support)
                counts[t] = counts.get(t, 0) + 1
            tv, threshold = exact.uniformity(counts, support)
            assert tv <= threshold
        constant = {support[0]: draws}
        tv, threshold = exact.uniformity(constant, support)
        assert tv > threshold
        half = {t: 2 * draws // len(support) for t in support[: len(support) // 2]}
        tv, threshold = exact.uniformity(half, support)
        assert tv > threshold
        outside = {"a": draws}
        assert exact.uniformity(outside, support)[0] == pytest.approx(1.0)


def test_tracer_changes_no_output_and_restores_the_program():
    automaton = build_automaton(taru, "fig3")
    config = taru.Config(seed=3)
    plain = taru.fpras_bta(automaton, 11, config).estimate
    original = taru.engine.Engine.__dict__["build"]
    tracer = Tracer()
    tracer.install(taru)
    try:
        traced = taru.fpras_bta(build_automaton(taru, "fig3"), 11, config).estimate
    finally:
        tracer.uninstall()
    assert traced == plain
    assert taru.engine.Engine.__dict__["build"] is original
    metrics = tracer.metrics(1)
    assert metrics["engine.Engine.build.calls"]["value"] == 1
    assert metrics["engine.Engine.sketch.draws"]["value"] > 0
    assert metrics["rng.Stream.child.self_s"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "src" in proc.stderr
    assert not proc.stdout.strip()

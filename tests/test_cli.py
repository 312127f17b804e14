import json
import math
import os
import random
import re
import time

import pytest

from taru.cli import run

from genutil import automaton_to_json


@pytest.fixture()
def files(tmp_path):
    def write(name, content):
        p = tmp_path / name
        p.write_text(content)
        return str(p)

    return write


CATALAN = json.dumps(
    {
        "arity": 2,
        "alphabet": ["a"],
        "states": ["r"],
        "initial": "r",
        "transitions": [
            {"from": "r", "symbol": "a", "children": ["r", "r"]},
            {"from": "r", "symbol": "a", "children": []},
        ],
    }
)


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_out(out):
    return json.loads(out.strip().splitlines()[-1])


def test_count_brute(files, capsys):
    aut = files("cat.json", CATALAN)
    code, out, _ = _run(capsys, ["count", "--automaton", aut, "--n", "9", "--mode", "brute"])
    assert code == 0
    assert _json_out(out)["count"] == 14


def test_count_exact_dp(files, capsys):
    aut = files("cat.json", CATALAN)
    code, out, _ = _run(capsys, ["count", "--automaton", aut, "--n", "11", "--mode", "exact-dp"])
    assert code == 0
    assert _json_out(out)["count"] == 42


def test_count_exact_dp_of_an_ambiguous_automaton(files, capsys, fig3):
    """fig3 is not bottom-up deterministic; its size-13 slice holds 100
    trees."""
    aut = files("fig3.json", automaton_to_json(fig3))
    code, out, _ = _run(capsys, ["count", "--automaton", aut, "--n", "13", "--mode", "exact-dp"])
    assert code == 0
    assert _json_out(out)["count"] == 100


def test_count_estimate_past_the_float_range_fails(files, capsys):
    """Catalan(1000) overflows a float: the estimate is no number JSON can
    hold, so the run fails and points to the exact count."""
    aut = files("cat.json", CATALAN)
    code, out, err = _run(capsys, ["count", "--automaton", aut, "--n", "2001"])
    assert code == 3 and out == ""
    assert err.startswith("failed: ") and "--mode exact-dp" in err


@pytest.mark.parametrize("n", [61, 401])
def test_theory_profile_count_past_the_float_range(files, capsys, n):
    """The theory constants are exact rationals, so a union-free slice whose
    float constants would overflow (n = 61) or underflow to zero (n = 401)
    counts as under the practical profile."""
    aut = files("cat.json", CATALAN)
    argv = ["count", "--automaton", aut, "--n", str(n)]
    code, out, _ = _run(capsys, argv + ["--profile", "theory"])
    assert code == 0
    theory = _json_out(out)
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert theory["profile"] == "theory"
    assert theory["estimate"] == _json_out(out)["estimate"]


def test_count_fpras_even_is_zero(files, capsys):
    aut = files("cat.json", CATALAN)
    code, out, _ = _run(capsys, ["count", "--automaton", aut, "--n", "8"])
    assert code == 0
    payload = _json_out(out)
    assert payload["estimate"] == 0.0


def test_count_determinism_byte_identical(files, capsys):
    aut = files("cat.json", CATALAN)
    outs = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["count", "--automaton", aut, "--n", "9", "--seed", "3"])
        assert code == 0
        payload = _json_out(out)
        payload.pop("elapsed_ms")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


def test_sample_stream_separation(files, capsys):
    aut = files("cat.json", CATALAN)
    code, out, err = _run(
        capsys, ["sample", "--automaton", aut, "--n", "7", "--count", "5", "--seed", "1"]
    )
    assert code == 0
    status = json.loads(err.strip().splitlines()[-1])
    trees = [line for line in out.splitlines() if line]
    assert status["emitted"] == len(trees)
    assert status["emitted"] + status["failed"] == status["requested"]
    for line in trees:
        assert line.startswith("a(")


def test_sample_empty_slice(files, capsys):
    aut = files("cat.json", CATALAN)
    code, out, err = _run(capsys, ["sample", "--automaton", aut, "--n", "6", "--count", "3"])
    assert code == 0
    assert out.strip() == ""
    assert json.loads(err.strip().splitlines()[-1])["empty"] is True


def test_usage_error_exit_1(files, capsys):
    aut = files("cat.json", CATALAN)
    code, _, err = _run(capsys, ["count", "--automaton", aut, "--n", "0"])
    assert code == 1
    assert "usage error" in err


def test_validation_error_exit_2(files, capsys):
    bad = files("bad.json", '{"states": ["s"], "alphabet": ["a"]}')
    code, _, err = _run(capsys, ["count", "--automaton", bad, "--n", "3"])
    assert code == 2
    assert "input error" in err


def test_malformed_json_position(files, capsys):
    bad = files("bad.json", '{"states": [,]}')
    code, _, err = _run(capsys, ["count", "--automaton", bad, "--n", "3"])
    assert code == 2
    assert "line 1" in err


def test_budget_exhaustion_exit_3(files, capsys, monkeypatch):
    aut = files("cat.json", CATALAN)
    monkeypatch.setenv("TARU_BUDGET", "5")
    for mode in ("brute", "exact-dp"):
        code, _, err = _run(capsys, ["count", "--automaton", aut, "--n", "13", "--mode", mode])
        assert code == 3
        assert "failed" in err


NFA = json.dumps(
    {
        "states": ["x0", "x1", "x2"],
        "initial": "x0",
        "final": "x2",
        "transitions": [
            {"from": "x0", "to": "x1", "label": ["a", "b"]},
            {"from": "x1", "to": "x2", "label": ["b", "c"]},
        ],
    }
)


def test_nfa_count_modes(files, capsys):
    nfa = files("nfa.json", NFA)
    code, out, _ = _run(capsys, ["nfa-count", "--nfa", nfa, "--k", "2", "--mode", "brute"])
    assert code == 0 and _json_out(out)["count"] == 4
    code, out, _ = _run(capsys, ["nfa-count", "--nfa", nfa, "--k", "2"])
    assert code == 0 and _json_out(out)["estimate"] == 4.0


QUERY = "Q(x) :- G(x), E(x,y), E(x,z), C(y), M(z).\n"
FACTS = "\n".join(
    [
        "G(a).", "G(b).",
        "E(a,c1).", "E(b,c1).", "E(b,c2).", "E(b,c3).",
        "C(c1).", "C(c2).", "M(c3).",
    ]
)


def test_cq_count_and_sample(files, capsys):
    q = files("q.txt", QUERY)
    d = files("d.txt", FACTS)
    code, out, _ = _run(capsys, ["cq-count", "--query", q, "--database", d, "--seed", "2"])
    assert code == 0
    assert abs(_json_out(out)["estimate"] - 1.0) <= 0.25
    code, out, err = _run(
        capsys, ["cq-sample", "--query", q, "--database", d, "--count", "4", "--seed", "1"]
    )
    assert code == 0
    for line in out.splitlines():
        assert json.loads(line) == ["b"]


def test_ucq_count(files, capsys):
    q = files("u.txt", "Q(x) :- A(x).\nQ(x) :- B(x).\n")
    d = files("ud.txt", "A(1).\nA(2).\nB(3).\nB(4).\nB(5).\n")
    code, out, _ = _run(capsys, ["ucq-count", "--query", q, "--database", d, "--seed", "1"])
    assert code == 0
    assert abs(_json_out(out)["estimate"] - 5.0) <= 1.0


@pytest.mark.parametrize("entries", ["[null]", "[null, null, null]"])
def test_ucq_decomposition_file_needs_one_entry_per_disjunct(files, capsys, entries):
    """A decomposition list of the wrong length is invalid input (exit 2),
    as for cq-count."""
    q = files("u.txt", "Q(x) :- A(x).\nQ(x) :- B(x).\n")
    d = files("ud.txt", "A(1).\nA(2).\nB(3).\nB(4).\nB(5).\n")
    hd = files("hd.json", entries)
    argv = ["ucq-count", "--query", q, "--database", d, "--decomposition", hd]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: ")
    assert "decompositions given for 2 disjuncts" in err
    code, out, _ = _run(capsys, argv[:-1] + [files("hd2.json", "[null, null]")])
    assert code == 0 and _json_out(out)["estimate"] == 5.0


@pytest.mark.parametrize("command", ["sample", "cq-sample"])
def test_negative_count_is_a_usage_error(files, capsys, command):
    if command == "sample":
        argv = ["sample", "--automaton", files("cat.json", CATALAN), "--n", "7"]
    else:
        argv = ["cq-sample", "--query", files("q.txt", QUERY),
                "--database", files("d.txt", FACTS)]
    code, out, err = _run(capsys, argv + ["--count", "-3"])
    assert code == 1 and out == ""
    assert err.startswith("usage error: --count must not be negative")


def test_oracle_takes_no_automaton_or_nfa(files, capsys):
    """Exact slice and word counts are `count` and `nfa-count` with
    --mode brute; `oracle` rejects their inputs as a usage error."""
    aut = files("cat.json", CATALAN)
    nfa = files("nfa.json", NFA)
    for argv in (["--automaton", aut, "--n", "3"], ["--nfa", nfa, "--k", "2"]):
        code, out, err = _run(capsys, ["oracle"] + argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: unrecognized arguments")
    code, out, err = _run(capsys, ["oracle", "--n", "3"])
    assert code == 1 and out == ""
    assert "--query/--database, --ecsp, --circuit, --nwa/--n" in err


@pytest.mark.parametrize("n", ["-1", "0"])
def test_oracle_nwa_length_is_range_checked(files, capsys, n):
    """`oracle --nwa` checks --n as nwa-count does."""
    code, out, err = _run(capsys, ["oracle", "--nwa", files("w.json", NWA), "--n", n])
    assert code == 1 and out == ""
    assert err.startswith("usage error: --n must lie in [1, ")


def test_oracle_takes_no_estimator_flags(files, capsys):
    code, out, err = _run(capsys, ["oracle", "--nwa", files("w.json", NWA), "--n", "2",
                                   "--seed", "5"])
    assert code == 1 and out == ""
    assert err.startswith("usage error: unrecognized arguments: --seed")


def test_oracle_cq(files, capsys):
    q = files("q.txt", QUERY)
    d = files("d.txt", FACTS)
    code, out, _ = _run(capsys, ["oracle", "--query", q, "--database", d])
    assert code == 0 and _json_out(out)["count"] == 1


def _assert_budget_failure(code, out, err):
    assert code == 3
    assert err.startswith("failed:")
    assert "Traceback" not in err
    assert out == ""


def test_oracle_cq_budget_exit_3(files, capsys, monkeypatch):
    q = files("q.txt", QUERY)
    d = files("d.txt", FACTS)
    monkeypatch.setenv("TARU_BUDGET", "1")
    _assert_budget_failure(*_run(capsys, ["oracle", "--query", q, "--database", d]))


def test_partition_count_modes(files, capsys):
    aut = files("cat.json", CATALAN)
    code, out, _ = _run(
        capsys,
        ["partition-count", "--automaton", aut, "--partial-tree", "a(5,1)",
         "--state", "r", "--level", "7", "--mode", "brute"],
    )
    assert code == 0 and _json_out(out)["count"] == 2
    code, out, _ = _run(
        capsys,
        ["partition-count", "--automaton", aut, "--partial-tree", "a(5,1)",
         "--state", "r", "--level", "7"],
    )
    assert code == 0
    assert abs(_json_out(out)["estimate"] - 2.0) <= 0.5


def test_partition_count_of_a_deep_json_tree_is_an_input_error(files, capsys):
    """The json decoder recurses per nesting level, so a 600-deep caterpillar
    given as JSON exits 2 with an input error, not a RecursionError; the
    same tree given as text is counted."""
    aut = files("cat.json", CATALAN)
    text = "a(a," * 600 + "a" + ")" * 600
    deep = '{"label": "a", "children": [{"label": "a"}, ' * 600 + '{"label": "a"}' + "]}" * 600
    argv = ["partition-count", "--automaton", aut, "--state", "r", "--level", "1201",
            "--partial-tree"]
    code, out, err = _run(capsys, argv + ["@" + files("deep.json", deep)])
    assert code == 2 and out == ""
    assert err.strip() == "input error: tree: JSON nested too deeply"
    code, out, _ = _run(capsys, argv + ["@" + files("deep.txt", text)])
    assert code == 0 and _json_out(out)["estimate"] == 1.0


CIRCUIT = json.dumps(
    {
        "gates": [
            {"id": "x", "type": "lit", "var": "x"},
            {"id": "y", "type": "lit", "var": "y"},
            {"id": "nx", "type": "lit", "var": "x", "sign": False},
            {"id": "z", "type": "lit", "var": "z"},
            {"id": "g1", "type": "and", "inputs": ["x", "y"]},
            {"id": "g2", "type": "and", "inputs": ["nx", "z"]},
            {"id": "g0", "type": "or", "inputs": ["g1", "g2"]},
        ],
        "output": "g0",
    }
)


VTREE = json.dumps({"left": {"left": {"var": "x"}, "right": {"var": "y"}},
                    "right": {"var": "z"}})


def test_dnnf_count_cli(files, capsys):
    circuit = files("c.json", CIRCUIT)
    vtree = files("v.json", VTREE)
    code, out, _ = _run(capsys, ["dnnf-count", "--circuit", circuit, "--vtree", vtree])
    assert code == 0
    assert abs(_json_out(out)["estimate"] - 4.0) <= 1.0
    code, out, _ = _run(capsys, ["oracle", "--circuit", circuit])
    assert code == 0 and _json_out(out)["count"] == 4


def _or_chain(depth: int) -> str:
    """CIRCUIT's two models over x, y and z, under `depth` or-gates that
    each take the gate below twice."""
    circuit = json.loads(CIRCUIT)
    for k in range(1, depth + 1):
        circuit["gates"].append({"id": f"s{k}", "type": "or",
                                 "inputs": [circuit["output"]] * 2})
        circuit["output"] = f"s{k}"
    return json.dumps(circuit)


@pytest.mark.parametrize("depth", [40, 3000])
def test_dnnf_count_of_shared_deep_or_chains(files, capsys, depth):
    """Each shared or-gate is closed over once, and circuits of any depth
    are ordered without recursion, so deep chains count their truth table."""
    circuit = files("c.json", _or_chain(depth))
    vtree = files("v.json", VTREE)
    code, out, _ = _run(capsys, ["dnnf-count", "--circuit", circuit, "--vtree", vtree])
    assert code == 0
    assert _json_out(out)["estimate"] == 4.0
    code, out, _ = _run(capsys, ["oracle", "--circuit", circuit])
    assert code == 0 and _json_out(out)["count"] == 4


def test_oracle_circuit_budget_exit_3(files, capsys, monkeypatch):
    circuit = files("c.json", CIRCUIT)
    monkeypatch.setenv("TARU_BUDGET", "1")
    _assert_budget_failure(*_run(capsys, ["oracle", "--circuit", circuit]))


NWA = json.dumps(
    {
        "states": ["q0", "q1"],
        "alphabet": ["a", "b"],
        "initial": ["q0"],
        "final": ["q1"],
        "hierarchical": [],
        "call": [],
        "internal": [["q0", "a", "q0"], ["q0", "b", "q1"]],
        "return": [],
    }
)


def test_nwa_count_cli(files, capsys):
    nwa = files("w.json", NWA)
    code, out, _ = _run(capsys, ["nwa-count", "--nwa", nwa, "--n", "3", "--seed", "1"])
    assert code == 0
    assert abs(_json_out(out)["estimate"] - 1.0) <= 0.3
    code, out, _ = _run(capsys, ["oracle", "--nwa", nwa, "--n", "3"])
    assert code == 0 and _json_out(out)["count"] == 1


def test_oracle_nwa_budget_exit_3(files, capsys, monkeypatch):
    nwa = files("w.json", NWA)
    monkeypatch.setenv("TARU_BUDGET", "1")
    _assert_budget_failure(*_run(capsys, ["oracle", "--nwa", nwa, "--n", "6"]))


@pytest.mark.parametrize("n", ["20", "10000"])
def test_oracle_nwa_refuses_before_enumerating(files, capsys, n):
    """The word count, Motzkin(n) times |alphabet|^n, is checked against the
    budget before any word is built."""
    spec = {"states": ["q"], "alphabet": ["a"], "initial": ["q"], "final": ["q"],
            "hierarchical": [], "call": [], "internal": [["q", "a", "q"]], "return": []}
    nwa = files("w.json", json.dumps(spec))
    started = time.perf_counter()
    result = _run(capsys, ["oracle", "--nwa", nwa, "--n", n])
    assert time.perf_counter() - started < 1.0
    _assert_budget_failure(*result)


@pytest.mark.parametrize("kind", ["call", "return"])
def test_nwa_undeclared_hierarchical_symbol_is_invalid_input(files, capsys, kind):
    """A call or return row naming a hierarchical symbol that the file does
    not declare is invalid input for both the estimator and the oracle."""
    spec = {"states": ["q"], "alphabet": ["a", "b"], "initial": ["q"], "final": ["q"],
            "hierarchical": ["p"], "call": [["q", "a", "q", "p"]], "internal": [],
            "return": [["q", "p", "b", "q"]]}
    if kind == "call":
        spec["call"] = [["q", "a", "q", "zz"]]
    else:
        spec["return"] = [["q", "zz", "b", "q"]]
    nwa = files("w.json", json.dumps(spec))
    for command in ("nwa-count", "oracle"):
        code, out, err = _run(capsys, [command, "--nwa", nwa, "--n", "2"])
        assert code == 2 and out == ""
        assert err.startswith(f"input error: nwa: {kind} transition 0 uses undeclared "
                              "hierarchical symbol 'zz'")


def test_nwa_without_an_accepting_pair_counts_zero(files, capsys):
    """No initial state may end in a final one: the reduction's automaton
    has an initial state and no transition, and both routes count 0."""
    spec = json.loads(NWA)
    spec["final"] = []
    nwa = files("w.json", json.dumps(spec))
    code, out, _ = _run(capsys, ["nwa-count", "--nwa", nwa, "--n", "3", "--seed", "1"])
    assert code == 0 and _json_out(out)["estimate"] == 0.0
    code, out, _ = _run(capsys, ["oracle", "--nwa", nwa, "--n", "3"])
    assert code == 0 and _json_out(out)["count"] == 0


ECSP = json.dumps(
    {
        "output": ["x", "y"],
        "variables": ["x", "y", "z"],
        "domain": ["0", "1"],
        "constraints": [
            {"scope": ["x", "z"], "tuples": [["0", "1"], ["1", "1"]]},
            {"scope": ["y"], "tuples": [["0"], ["1"]]},
        ],
    }
)


def test_ecsp_count_cli(files, capsys):
    ecsp = files("e.json", ECSP)
    code, out, _ = _run(capsys, ["ecsp-count", "--ecsp", ecsp, "--seed", "2"])
    assert code == 0
    assert abs(_json_out(out)["estimate"] - 4.0) <= 1.0
    code, out, _ = _run(capsys, ["oracle", "--ecsp", ecsp])
    assert code == 0 and _json_out(out)["count"] == 4


def test_oracle_ecsp_budget_exit_3(files, capsys, monkeypatch):
    ecsp = files("e.json", ECSP)
    monkeypatch.setenv("TARU_BUDGET", "1")
    _assert_budget_failure(*_run(capsys, ["oracle", "--ecsp", ecsp]))


@pytest.mark.parametrize("entries", ["[]", "[null, null]"])
def test_ecsp_decomposition_file_needs_exactly_one_entry(files, capsys, entries):
    ecsp = files("e.json", ECSP)
    hd = files("hd.json", entries)
    code, out, err = _run(capsys, ["ecsp-count", "--ecsp", ecsp, "--decomposition", hd])
    assert code == 2
    assert err.startswith("input error: an ECSP takes exactly one decomposition")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("command", ["cq-count", "cq-sample"])
@pytest.mark.parametrize("entries", ["[]", "[null, null]"])
def test_cq_decomposition_file_needs_exactly_one_entry(files, capsys, command, entries):
    """Neither the first of several entries nor a derived join tree stands in
    for a file that does not hold exactly one decomposition."""
    q = files("q.txt", QUERY)
    d = files("d.txt", FACTS)
    hd = files("hd.json", entries)
    argv = [command, "--query", q, "--database", d, "--decomposition", hd]
    if command == "cq-sample":
        argv += ["--count", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert err.startswith("input error: a CQ takes exactly one decomposition")
    assert "Traceback" not in err
    assert out == ""


def test_cq_count_certificate_names_its_mode(files, capsys):
    q = files("q.txt", QUERY)
    d = files("d.txt", FACTS)
    for argv in (["cq-count", "--query", q, "--database", d],
                 ["cq-count", "--query", q, "--database", d,
                  "--decomposition", files("hd.json", "[null]")]):
        code, out, _ = _run(capsys, argv + ["--seed", "2"])
        assert code == 0
        assert _json_out(out)["mode"] == "cq-count"


def _randomized_runs(files):
    aut = files("cat.json", CATALAN)
    nfa = files("nfa.json", NFA)
    dead = json.loads(NFA)
    dead["transitions"] = dead["transitions"][:1]  # nothing reaches x2
    dead_nfa = files("dead.json", json.dumps(dead))
    q = files("q.txt", QUERY)
    d = files("d.txt", FACTS)
    u = files("u.txt", "Q(x) :- A(x).\nQ(x) :- B(x).\n")
    ud = files("ud.txt", "A(1).\nA(2).\nB(3).\nB(4).\nB(5).\n")
    return {
        "count": ["count", "--automaton", aut, "--n", "9"],
        "sample": ["sample", "--automaton", aut, "--n", "7", "--count", "5"],
        "nfa-count": ["nfa-count", "--nfa", nfa, "--k", "2"],
        "nfa-count-empty": ["nfa-count", "--nfa", dead_nfa, "--k", "2"],
        "cq-count": ["cq-count", "--query", q, "--database", d],
        "cq-sample": ["cq-sample", "--query", q, "--database", d, "--count", "4"],
        "ucq-count": ["ucq-count", "--query", u, "--database", ud],
        "ecsp-count": ["ecsp-count", "--ecsp", files("e.json", ECSP)],
        "dnnf-count": ["dnnf-count", "--circuit", files("c.json", CIRCUIT),
                       "--vtree", files("v.json", VTREE)],
        "nwa-count": ["nwa-count", "--nwa", files("w.json", NWA), "--n", "3"],
        "partition-count": ["partition-count", "--automaton", aut, "--partial-tree",
                            "a(5,1)", "--state", "r", "--level", "7"],
    }


@pytest.mark.parametrize("name", [
    "count", "sample", "nfa-count", "nfa-count-empty", "cq-count", "cq-sample",
    "ucq-count", "ecsp-count", "dnnf-count", "nwa-count", "partition-count",
])
def test_randomized_runs_certify_themselves_and_repeat(files, capsys, name):
    """Every randomized subcommand reports the certificate header, its input
    digests and its warnings (on stderr for the sampling commands), and two
    runs with the same seed agree byte for byte apart from elapsed_ms."""
    argv = _randomized_runs(files)[name] + ["--seed", "1"]
    runs = []
    for _ in range(2):
        code, out, err = _run(capsys, argv)
        assert code == 0
        runs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out + err))
    assert runs[0] == runs[1]
    lines = (err if name.endswith("sample") else out).strip().splitlines()
    cert = json.loads(lines[-1])
    assert {"mode", "profile", "epsilon", "delta", "seed", "inputs", "warnings"} <= set(cert)
    assert cert["seed"] == 1 and cert["inputs"]


def test_cq_count_path3_over_thirty_vertices(files, capsys):
    """A length-3 path query over a 30-vertex graph (90 edges) counts through
    the CLI in about a second: the estimate is pinned at seed 1 and lies
    within epsilon of the join count, 511."""
    rng = random.Random(1)
    vertices = [f"v{i}" for i in range(30)]
    edges = sorted(
        (a, b) for a in vertices for b in rng.sample([b for b in vertices if b != a], 3)
    )
    q = files("q.txt", "Q(x,w) :- E(x,y), E(y,z), E(z,w).\n")
    d = files("d.txt", "".join(f"E({a},{b}).\n" for a, b in edges))
    code, out, _ = _run(capsys, ["cq-count", "--query", q, "--database", d, "--seed", "1"])
    assert code == 0
    result = _json_out(out)
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    joined = {(x, w) for x in vertices for y in succ[x] for z in succ[y] for w in succ[z]}
    assert len(joined) == 511
    assert result["estimate"] == 513.0
    assert abs(result["estimate"] - 511) <= result["epsilon"] * 511


def test_cq_count_path4_over_thirty_vertices(files, capsys):
    """A length-4 path query over the same graph counts through the CLI in
    under a second: only the completion layouts of real choices are
    counted.  The estimate is pinned at seed 1 and lies within epsilon of
    the join count, 741."""
    rng = random.Random(1)
    vertices = [f"v{i}" for i in range(30)]
    edges = sorted(
        (a, b) for a in vertices for b in rng.sample([b for b in vertices if b != a], 3)
    )
    q = files("q.txt", "Q(x,v) :- E(x,y), E(y,z), E(z,w), E(w,v).\n")
    d = files("d.txt", "".join(f"E({a},{b}).\n" for a, b in edges))
    code, out, _ = _run(capsys, ["cq-count", "--query", q, "--database", d, "--seed", "1"])
    assert code == 0
    result = _json_out(out)
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    joined = {
        (x, v) for x in vertices for y in succ[x] for z in succ[y] for w in succ[z]
        for v in succ[w]
    }
    assert len(joined) == 741
    assert result["estimate"] == 752.620361328125
    assert abs(result["estimate"] - 741) <= result["epsilon"] * 741


def _wrong_typed(text, **changes):
    """The JSON document `text` with its top-level fields replaced."""
    return json.dumps(dict(json.loads(text), **changes))


def _edited(text, edit):
    """The JSON document `text` after `edit` changes it in place."""
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


_NODE = {"id": "n0", "chi": ["x"], "xi": [0]}


@pytest.mark.parametrize("command, flag, bad", [
    pytest.param("count", "--automaton", "5", id="automaton"),
    pytest.param("count", "--automaton", _wrong_typed(CATALAN, transitions=[5]),
                 id="automaton-transition"),
    pytest.param("count", "--automaton", _wrong_typed(CATALAN, transitions=[
        {"from": "r", "symbol": "a", "children": 5}]), id="automaton-children"),
    pytest.param("count", "--automaton", _wrong_typed(CATALAN, arity="2"),
                 id="automaton-arity"),
    pytest.param("nfa-count", "--nfa", "5", id="nfa"),
    pytest.param("nfa-count", "--nfa", _wrong_typed(NFA, transitions=["x0"]),
                 id="nfa-transition"),
    pytest.param("ecsp-count", "--ecsp", "[]", id="ecsp"),
    pytest.param("ecsp-count", "--ecsp", _wrong_typed(ECSP, constraints=[5]),
                 id="ecsp-constraint"),
    pytest.param("ecsp-count", "--ecsp", _wrong_typed(ECSP, constraints=[
        {"scope": ["x"], "tuples": ["0"]}]), id="ecsp-tuple"),
    pytest.param("dnnf-count", "--circuit", "5", id="circuit"),
    pytest.param("dnnf-count", "--circuit", _wrong_typed(CIRCUIT, gates=[5]),
                 id="circuit-gate"),
    pytest.param("dnnf-count", "--vtree", "5", id="vtree"),
    pytest.param("nwa-count", "--nwa", "5", id="nwa"),
    pytest.param("nwa-count", "--nwa", _wrong_typed(NWA, internal=[5]), id="nwa-row"),
    pytest.param("nwa-count", "--nwa", _wrong_typed(NWA, initial="q0"), id="nwa-initial"),
    # Names are strings, and a sign is a boolean.
    pytest.param("count", "--automaton", _wrong_typed(CATALAN, states=["r", 1]),
                 id="automaton-numeric-state"),
    pytest.param("nwa-count", "--nwa", _wrong_typed(NWA, states=["q0", "q1", 7]),
                 id="nwa-numeric-state"),
    pytest.param("nwa-count", "--nwa", _wrong_typed(NWA, alphabet=["a", "b", 1]),
                 id="nwa-numeric-symbol"),
    pytest.param("dnnf-count", "--circuit", _edited(
        CIRCUIT, lambda d: d["gates"][2].update(sign="false")), id="circuit-sign-string"),
    pytest.param("dnnf-count", "--circuit", _edited(
        CIRCUIT, lambda d: d["gates"][2].update(sign=0)), id="circuit-sign-number"),
    pytest.param("cq-count", "--decomposition", "[5]", id="decomposition"),
    # A missing field, at the top and nested, in each reader.
    pytest.param("count", "--automaton", _edited(CATALAN, lambda d: d.pop("initial")),
                 id="automaton-no-initial"),
    pytest.param("count", "--automaton", _edited(
        CATALAN, lambda d: d["transitions"][0].pop("symbol")), id="automaton-no-symbol"),
    pytest.param("nfa-count", "--nfa", _edited(NFA, lambda d: d.pop("final")),
                 id="nfa-no-final"),
    pytest.param("nfa-count", "--nfa", _edited(NFA, lambda d: d["transitions"][1].pop("to")),
                 id="nfa-no-to"),
    pytest.param("ecsp-count", "--ecsp", _edited(ECSP, lambda d: d.pop("domain")),
                 id="ecsp-no-domain"),
    pytest.param("ecsp-count", "--ecsp", _edited(
        ECSP, lambda d: d["constraints"][0].pop("tuples")), id="ecsp-no-tuples"),
    pytest.param("dnnf-count", "--circuit", _edited(CIRCUIT, lambda d: d.pop("output")),
                 id="circuit-no-output"),
    pytest.param("dnnf-count", "--circuit", _edited(
        CIRCUIT, lambda d: d["gates"][0].pop("type")), id="circuit-no-type"),
    pytest.param("dnnf-count", "--vtree", json.dumps({"left": {"var": "x"}}),
                 id="vtree-no-right"),
    pytest.param("nwa-count", "--nwa", _edited(NWA, lambda d: d.pop("hierarchical")),
                 id="nwa-no-hierarchical"),
    pytest.param("nwa-count", "--nwa", _wrong_typed(NWA, internal=[["q0", "a"]]),
                 id="nwa-short-row"),
    pytest.param("cq-count", "--decomposition", json.dumps({"nodes": [_NODE]}),
                 id="decomposition-no-root"),
    pytest.param("cq-count", "--decomposition", json.dumps(
        {"root": "n0", "nodes": [{"id": "n0", "chi": ["x"]}]}), id="decomposition-no-xi"),
    # An invariant that the built object checks.
    pytest.param("count", "--automaton", _edited(
        CATALAN, lambda d: d["transitions"][0].update(children=["r", "s"])),
        id="automaton-undeclared-child"),
    pytest.param("nfa-count", "--nfa", _edited(
        NFA, lambda d: d["transitions"][0].update(label=["a", "a"])), id="nfa-duplicate-symbol"),
    pytest.param("nfa-count", "--nfa", _edited(
        NFA, lambda d: d["transitions"][0].update(label=[])), id="nfa-empty-label"),
    pytest.param("nfa-count", "--nfa", _wrong_typed(NFA, final="x9"), id="nfa-undeclared-final"),
    pytest.param("ecsp-count", "--ecsp", _edited(
        ECSP, lambda d: d["constraints"][1].update(scope=["w"])), id="ecsp-undeclared-variable"),
    pytest.param("dnnf-count", "--circuit", _edited(
        CIRCUIT, lambda d: d["gates"][6].update(type="xor")), id="circuit-unknown-type"),
    pytest.param("nwa-count", "--nwa", _wrong_typed(NWA, initial=["z"]),
                 id="nwa-undeclared-initial"),
    pytest.param("cq-count", "--decomposition", json.dumps(
        {"root": "n0", "nodes": [dict(_NODE, children=["n9"])]}),
        id="decomposition-undeclared-child"),
])
def test_wrong_typed_json_is_invalid_input(files, capsys, command, flag, bad):
    """A JSON file whose document or entries have the wrong type, read by
    any of the JSON readers, exits 2 with an input error."""
    inputs = {
        "count": {"--automaton": CATALAN},
        "nfa-count": {"--nfa": NFA},
        "ecsp-count": {"--ecsp": ECSP},
        "dnnf-count": {"--circuit": CIRCUIT, "--vtree": VTREE},
        "nwa-count": {"--nwa": NWA},
        "cq-count": {"--query": QUERY, "--database": FACTS},
    }[command]
    argv = [command]
    for name, text in dict(inputs, **{flag: bad}).items():
        argv += [name, files(name.strip("-") + ".in", text)]
    argv += {"count": ["--n", "3"], "nfa-count": ["--k", "2"], "nwa-count": ["--n", "3"]}.get(
        command, [])
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert err.startswith("input error: ")
    assert "Traceback" not in err
    assert out == ""


def test_exact_dp_count_at_any_size(files, capsys):
    """The exact DP fills its table size by size: n = 2001 on catalan gives
    Catalan(1000)."""
    aut = files("cat.json", CATALAN)
    code, out, _ = _run(capsys, ["count", "--automaton", aut, "--n", "2001", "--mode", "exact-dp"])
    assert code == 0
    assert _json_out(out)["count"] == math.comb(2000, 1000) // 1001


def test_partition_count_of_a_deep_partial_tree(files, capsys):
    """A partial tree 600 levels deep with one hole at the bottom has exactly
    one completion; the run check takes no recursion per level."""
    aut = files("cat.json", CATALAN)
    deep = files("deep.txt", "a(a," * 600 + "1" + ")" * 600)
    code, out, err = _run(capsys, ["partition-count", "--automaton", aut, "--partial-tree",
                                   "@" + deep, "--state", "r", "--level", "1201"])
    assert code == 0, err
    assert _json_out(out)["estimate"] == 1.0

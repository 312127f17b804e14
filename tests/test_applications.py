import random
import re

import pytest

from taru.applications import (
    CircuitError,
    DnnfCircuit,
    Ecsp,
    Gate,
    NestedWord,
    NestedWordAutomaton,
    NwaError,
    brute_ecsp_count,
    brute_nwa_count,
    count_dnnf,
    count_ecsp,
    count_nwa,
    dnnf_to_ta,
    ecsp_to_cq,
    enumerate_nested_words,
    infer_witness,
    nwa_accepts,
    nwa_to_bta,
    nwa_tree_size,
    truth_table_count,
)
from taru.config import Config
from taru.cq import brute_cq_count
from taru.oracles import brute_slice
from taru.trees import Tree, leaf

from genutil import cq_to_ecsp, encode_nested_word, random_nwa, random_structured_circuit


# -- existential CSPs ----------------------------------------------------------


def small_ecsp():
    return Ecsp(
        ("x", "y"),
        ("x", "y", "z"),
        ("0", "1"),
        (
            (("x", "z"), frozenset({("0", "1"), ("1", "1")})),
            (("y",), frozenset({("0",), ("1",)})),
        ),
    )


def test_ecsp_translation_counts_match():
    e = small_ecsp()
    q, db = ecsp_to_cq(e)
    assert brute_cq_count(q, db)[0] == brute_ecsp_count(e)


def test_ecsp_all_output_variables():
    e = Ecsp(
        ("x", "y"),
        ("x", "y"),
        ("0", "1"),
        ((("x", "y"), frozenset({("0", "0"), ("1", "0"), ("1", "1")})),),
    )
    assert brute_ecsp_count(e) == 3
    q, db = ecsp_to_cq(e)
    assert brute_cq_count(q, db)[0] == 3


def test_ecsp_empty_constraint_relation():
    e = Ecsp(("x",), ("x",), ("0", "1"), ((("x",), frozenset()),))
    assert brute_ecsp_count(e) == 0
    assert count_ecsp(e, None, Config(seed=1)).estimate == 0.0


def test_ecsp_unconstrained_output_variable():
    e = Ecsp(("x", "w"), ("x", "w"), ("0", "1"),
             ((("x",), frozenset({("1",)})),))
    assert brute_ecsp_count(e) == 2
    q, db = ecsp_to_cq(e)
    assert brute_cq_count(q, db)[0] == 2


def test_ecsp_round_trip_via_cq():
    e = small_ecsp()
    q, db = ecsp_to_cq(e)
    back = cq_to_ecsp(q, db)
    assert brute_ecsp_count(back) == brute_ecsp_count(e)


def test_ecsp_random_pipeline():
    rng = random.Random(43)
    cases = hits = 0
    while cases < 12:
        n_vars = rng.randint(1, 3)
        names = [f"v{i}" for i in range(n_vars)]
        domain = ("0", "1", "2")[: rng.randint(1, 3)]
        constraints = []
        for _ in range(rng.randint(1, 2)):
            scope = tuple(rng.sample(names, rng.randint(1, n_vars)))
            rows = set()
            import itertools

            for row in itertools.product(domain, repeat=len(scope)):
                if rng.random() < 0.5:
                    rows.add(row)
            constraints.append((scope, frozenset(rows)))
        out_k = rng.randint(1, n_vars)
        e = Ecsp(tuple(rng.sample(names, out_k)), tuple(names), domain,
                 tuple(constraints))
        truth = brute_ecsp_count(e)
        est = count_ecsp(e, None, Config(seed=cases)).estimate
        if truth == 0:
            assert est == 0.0
        else:
            cases += 1
            if abs(est - truth) <= 0.2 * truth:
                hits += 1
    assert hits >= 10


# -- structured DNNF circuits -----------------------------------------------


def example_circuit():
    # (x and y) or (not x and z)
    circuit = DnnfCircuit(
        [
            Gate("x", "lit", var="x"),
            Gate("y", "lit", var="y"),
            Gate("nx", "lit", var="x", positive=False),
            Gate("z", "lit", var="z"),
            Gate("g1", "and", inputs=("x", "y")),
            Gate("g2", "and", inputs=("nx", "z")),
            Gate("g0", "or", inputs=("g1", "g2")),
        ],
        "g0",
    )
    vtree = Tree(".", (Tree(".", (leaf("x"), leaf("y"))), leaf("z")))
    return circuit, vtree


def test_dnnf_example_counts():
    circuit, vtree = example_circuit()
    assert truth_table_count(circuit) == 4
    automaton, n = dnnf_to_ta(circuit, vtree)
    assert n == 5
    assert len(brute_slice(automaton, n, budget=None)) == 4
    res = count_dnnf(circuit, vtree, Config(seed=3))
    assert res.estimate == pytest.approx(4.0, rel=0.2)


def test_dnnf_single_positive_literal():
    circuit = DnnfCircuit([Gate("x", "lit", var="x")], "x")
    vtree = leaf("x")
    assert truth_table_count(circuit) == 1
    automaton, n = dnnf_to_ta(circuit, vtree)
    assert len(brute_slice(automaton, n, budget=None)) == 1


def test_dnnf_accepted_trees_have_vtree_shape():
    circuit, vtree = example_circuit()
    automaton, n = dnnf_to_ta(circuit, vtree)
    for t in brute_slice(automaton, n, budget=None).trees:
        stack = [(t, vtree)]
        while stack:
            got, want = stack.pop()
            assert len(got.children) == len(want.children)
            if not want.children:
                assert got.label in ("0", "1")
            else:
                assert got.label == "@"
                stack.extend(zip(got.children, want.children))


def test_dnnf_rejects_non_decomposable():
    with pytest.raises(CircuitError):
        DnnfCircuit(
            [
                Gate("x", "lit", var="x"),
                Gate("x2", "lit", var="x"),
                Gate("g", "and", inputs=("x", "x2")),
            ],
            "g",
        )


def test_dnnf_witness_inference_failure_names_gate():
    circuit = DnnfCircuit(
        [
            Gate("x", "lit", var="x"),
            Gate("y", "lit", var="y"),
            Gate("g", "and", inputs=("x", "y")),
        ],
        "g",
    )
    # v-tree with y left of x: the and-gate cannot split (x left, y right).
    vtree = Tree(".", (leaf("y"), leaf("x")))
    with pytest.raises(CircuitError) as err:
        infer_witness(circuit, vtree)
    assert "'g'" in str(err.value)


def test_dnnf_random_circuits_parsimonious():
    rng = random.Random(47)
    for trial in range(50):
        circuit, vtree = random_structured_circuit(rng, rng.randint(2, 6))
        automaton, n = dnnf_to_ta(circuit, vtree)
        want = truth_table_count(circuit)
        got = len(brute_slice(automaton, n, budget=None))
        assert got == want


# -- nested word automata ------------------------------------------------------


def fig_shape_nwa():
    """Accepts exactly the length-8 nested words with matching
    {(2,4),(5,6),(1,7)} over a unary alphabet."""
    states = frozenset(f"p{i}" for i in range(9))
    return NestedWordAutomaton(
        states,
        frozenset({"a"}),
        frozenset({"p0"}),
        frozenset({"p8"}),
        frozenset({"h1", "h2", "h5"}),
        call_transitions=(
            ("p0", "a", "p1", "h1"),
            ("p1", "a", "p2", "h2"),
            ("p4", "a", "p5", "h5"),
        ),
        internal_transitions=(("p2", "a", "p3"), ("p7", "a", "p8")),
        return_transitions=(
            ("p3", "h2", "a", "p4"),
            ("p5", "h5", "a", "p6"),
            ("p6", "h1", "a", "p7"),
        ),
    )


def test_matching_validation():
    NestedWord(("a",) * 8, frozenset({(2, 4), (5, 6), (1, 7)}))
    with pytest.raises(NwaError):
        NestedWord(("a",) * 4, frozenset({(1, 3), (2, 4)}))  # crossing
    with pytest.raises(NwaError):
        NestedWord(("a",) * 3, frozenset({(2, 2)}))  # not increasing
    with pytest.raises(NwaError):
        NestedWord(("a",) * 4, frozenset({(1, 2), (1, 4)}))  # call reused


def _nwa_with(**changes):
    """A one-state NWA over {a, b} with the hierarchical symbol p, whose
    fields `changes` replaces."""
    fields = dict(
        states=frozenset({"q"}), alphabet=frozenset({"a", "b"}),
        initial=frozenset({"q"}), final=frozenset({"q"}), hierarchical=frozenset({"p"}),
        call_transitions=(("q", "a", "q", "p"),), internal_transitions=(("q", "a", "q"),),
        return_transitions=(("q", "p", "b", "q"),),
    )
    fields.update(changes)
    return NestedWordAutomaton(**fields)


@pytest.mark.parametrize("changes, message", [
    ({"call_transitions": (("q", "a", "q", "zz"),)},
     "call transition 0 uses undeclared hierarchical symbol 'zz'"),
    ({"return_transitions": (("q", "zz", "b", "q"),)},
     "return transition 0 uses undeclared hierarchical symbol 'zz'"),
    ({"initial": frozenset({"z"})}, "initial states ['z'] are undeclared"),
    ({"final": frozenset({"z"})}, "final states ['z'] are undeclared"),
    ({"call_transitions": (("q", "a", "q"),)}, "call transition 0 needs"),
    ({"internal_transitions": (("q", "a", "q", "p"),)}, "internal transition 0 needs"),
    ({"return_transitions": (("q", "p", "b"),)}, "return transition 0 needs"),
], ids=["call-hier", "return-hier", "initial", "final", "call-width", "internal-width",
        "return-width"])
def test_nwa_rejects_undeclared_references_and_bad_rows(changes, message):
    """Built in-process, an NWA makes the same checks as its file reader;
    before, an undeclared hierarchical symbol counted as declared, and an
    undeclared initial state failed only in the reduction."""
    _nwa_with()
    with pytest.raises(NwaError, match=re.escape(message)):
        _nwa_with(**changes)


def test_nested_word_enumeration_rejects_negative_length():
    with pytest.raises(ValueError):
        next(enumerate_nested_words(["a"], -1))


def test_fig_shape_word_accepted():
    nwa = fig_shape_nwa()
    w = NestedWord(("a",) * 8, frozenset({(2, 4), (5, 6), (1, 7)}))
    assert nwa_accepts(nwa, w)
    other = NestedWord(("a",) * 8, frozenset({(2, 4), (5, 6)}))
    assert not nwa_accepts(nwa, other)
    assert brute_nwa_count(nwa, 8) == 1


def test_fig_shape_tree_counts_agree():
    nwa = fig_shape_nwa()
    automaton = nwa_to_bta(nwa)
    assert len(brute_slice(automaton, nwa_tree_size(8), budget=None)) == 1
    w = NestedWord(("a",) * 8, frozenset({(2, 4), (5, 6), (1, 7)}))
    enc = encode_nested_word(w)
    assert enc.size == nwa_tree_size(8)
    assert automaton.accepts(enc)


def test_internal_only_nwa_is_an_nfa():
    nwa = NestedWordAutomaton(
        frozenset({"q0", "q1"}),
        frozenset({"a", "b"}),
        frozenset({"q0"}),
        frozenset({"q1"}),
        frozenset(),
        call_transitions=(),
        internal_transitions=(("q0", "a", "q0"), ("q0", "b", "q1")),
        return_transitions=(),
    )
    automaton = nwa_to_bta(nwa)
    # Words a^i b for i >= 0: exactly one word per length.
    for n in range(1, 6):
        assert brute_nwa_count(nwa, n) == 1
        assert len(brute_slice(automaton, nwa_tree_size(n), budget=None)) == 1


def test_nested_word_enumeration_counts():
    # Unit structures over one letter: 1, 1, 2, 4, 9, 21, 51 (Motzkin).
    for n, count in enumerate([1, 1, 2, 4, 9, 21, 51]):
        assert len(list(enumerate_nested_words(["a"], n))) == count


def test_random_nwas_parsimonious():
    rng = random.Random(59)
    for trial in range(30):
        nwa = random_nwa(rng)
        automaton = nwa_to_bta(nwa)
        for n in range(0, 5):
            want = brute_nwa_count(nwa, n)
            got = len(brute_slice(automaton, nwa_tree_size(n), budget=None))
            assert got == want, f"trial {trial} n={n}: tree {got} != word {want}"


def test_count_nwa_estimates(capsys):
    nwa = fig_shape_nwa()
    res = count_nwa(nwa, 8, Config(seed=2))
    assert res.estimate == pytest.approx(1.0, rel=0.2)

import json

import pytest

from taru.formats import (
    FormatError,
    automaton_from_json,
    database_from_text,
    decompositions_from_json,
    nfa_from_json,
    queries_from_text,
    vtree_from_json,
)

from taru.automata import AutomatonError
from taru.snfa import NfaError

from genutil import automaton_to_json


def test_automaton_round_trip(fig3):
    back = automaton_from_json(automaton_to_json(fig3))
    assert back.states == fig3.states
    assert back.alphabet == fig3.alphabet
    assert set(back.transitions) == set(fig3.transitions)
    assert back.initial == fig3.initial
    assert back.arity == fig3.arity


def test_automaton_rejects_duplicates():
    with pytest.raises(FormatError):
        automaton_from_json(json.dumps({
            "states": ["s", "s"], "alphabet": ["a"], "initial": "s",
            "transitions": []}))
    with pytest.raises(FormatError):
        automaton_from_json(json.dumps({
            "states": ["s"], "alphabet": ["a", "a"], "initial": "s",
            "transitions": []}))


def test_automaton_rejects_undeclared():
    with pytest.raises(AutomatonError) as err:
        automaton_from_json(json.dumps({
            "states": ["s"], "alphabet": ["a"], "initial": "s",
            "transitions": [{"from": "s", "symbol": "b", "children": []}]}))
    assert "'b'" in str(err.value)
    with pytest.raises(AutomatonError):
        automaton_from_json(json.dumps({
            "states": ["s"], "alphabet": ["a"], "initial": "t",
            "transitions": []}))


def test_query_parsing_variables_and_constants():
    (q,) = queries_from_text("Q(x) :- R(x, 'k', 7), S(x,y).")
    assert q.head == ("x",)
    from taru.cq import Const, Var

    assert q.atoms[0].args == (Var("x"), Const("k"), Const("7"))


def test_query_parser_diagnostics():
    with pytest.raises(FormatError) as err:
        queries_from_text("Q(x) :- R(x)")
    assert "line 1" in str(err.value)
    with pytest.raises(FormatError):
        queries_from_text("Q(x) : R(x).")
    with pytest.raises(FormatError):
        queries_from_text("Q(x) :- R(x,).")


def test_union_rules_share_head_name():
    qs = queries_from_text("Q(x) :- A(x).\nQ(x) :- B(x).\n")
    assert len(qs) == 2
    with pytest.raises(FormatError):
        queries_from_text("Q(x) :- A(x).\nP(x) :- B(x).\n")


def test_database_parsing():
    db = database_from_text("E(a,b).\nE(a,c).\n% comment\nG(a).\n")
    assert db.tuples("E") == {("a", "b"), ("a", "c")}
    with pytest.raises(FormatError) as err:
        database_from_text("E(a,b)")
    assert "line 1" in str(err.value)


def test_decomposition_parsing_rejects_cycles():
    with pytest.raises(Exception):
        decompositions_from_json(json.dumps({
            "root": "a",
            "nodes": [
                {"id": "a", "chi": ["x"], "xi": [0], "children": ["b"]},
                {"id": "b", "chi": ["x"], "xi": [0], "children": ["a"]},
            ]}))


def test_nfa_parsing_rejects_empty_label():
    with pytest.raises(NfaError):
        nfa_from_json(json.dumps({
            "states": ["a", "b"], "initial": "a", "final": "b",
            "transitions": [{"from": "a", "to": "b", "label": []}]}))


def test_vtree_parsing():
    t = vtree_from_json(json.dumps(
        {"left": {"var": "x"}, "right": {"left": {"var": "y"}, "right": {"var": "z"}}}
    ))
    assert t.size == 5
    with pytest.raises(FormatError):
        vtree_from_json(json.dumps({"oops": 1}))

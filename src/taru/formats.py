"""On-disk formats: JSON for structured objects, small text forms for trees,
queries and facts.  Parsers reject duplicates and undeclared references and
report positions where they can."""

from __future__ import annotations

import hashlib
import json
import re
from typing import Optional

from .applications import DnnfCircuit, Ecsp, Gate, NestedWordAutomaton
from .automata import TreeAutomaton
from .cq import (
    Atom,
    Const,
    ConjunctiveQuery,
    Database,
    DecompositionNode,
    HypertreeDecomposition,
    Var,
)
from .snfa import ExplicitLabel, SuccinctNFA
from .trees import Tree, parse_tree, tree_from_json


class FormatError(ValueError):
    pass


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{what}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except RecursionError:
        # The json decoder recurses once per nested object or array.
        raise FormatError(f"{what}: JSON nested too deeply")


_SCALARS = (str, int, float, bool, type(None))


def _load_object(text: str, what: str, shape: dict) -> dict:
    """The JSON object in text, checked against `shape` (see _check_shape),
    so that the reader below it meets only the types it indexes into."""
    return _checked_object(_load_json(text, what), what, shape)


def _checked_object(obj, what: str, shape: dict) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{what}: expected a JSON object")
    _check_shape(obj, shape, what)
    return obj


def _check_shape(obj: dict, shape: dict, where: str) -> None:
    """Each field of obj named in shape, when present, must be a list.  Its
    entries must be objects checked against the nested shape (a dict),
    lists of scalars (list), or scalars (None)."""
    for key, entry in shape.items():
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise FormatError(f"{where}: field {key!r} must be a list")
        for i, item in enumerate(items):
            at = f"{where}: {key}[{i}]"
            if isinstance(entry, dict):
                if not isinstance(item, dict):
                    raise FormatError(f"{at} must be an object")
                _check_shape(item, entry, at)
            elif entry is list:
                if not isinstance(item, list) or not all(isinstance(x, _SCALARS) for x in item):
                    raise FormatError(f"{at} must be a list of strings or numbers")
            elif not isinstance(item, _SCALARS):
                raise FormatError(f"{at} must be a string or number")


def _required(obj, key, what):
    """A field the reader needs; its type was checked on loading."""
    if key not in obj:
        raise FormatError(f"{what}: missing field {key!r}")
    return obj[key]


# -- tree automata -------------------------------------------------------------


def automaton_from_json(text: str) -> TreeAutomaton:
    obj = _load_object(text, "automaton", {
        "states": None, "alphabet": None, "transitions": {"children": None}})
    states = _required(obj, "states", "automaton")
    alphabet = _required(obj, "alphabet", "automaton")
    if len(set(states)) != len(states):
        raise FormatError("automaton: duplicate state names")
    if len(set(alphabet)) != len(alphabet):
        raise FormatError("automaton: duplicate alphabet symbols")
    if "initial" not in obj:
        raise FormatError("automaton: missing field 'initial'")
    transitions = []
    for i, t in enumerate(_required(obj, "transitions", "automaton")):
        for key in ("from", "symbol"):
            if key not in t:
                raise FormatError(f"automaton: transition {i} lacks {key!r}")
        children = t.get("children", [])
        if t["from"] not in states:
            raise FormatError(f"automaton: transition {i} uses undeclared state {t['from']!r}")
        if t["symbol"] not in alphabet:
            raise FormatError(f"automaton: transition {i} uses undeclared symbol {t['symbol']!r}")
        for c in children:
            if c not in states:
                raise FormatError(f"automaton: transition {i} uses undeclared state {c!r}")
        transitions.append((t["from"], t["symbol"], tuple(children)))
    if obj["initial"] not in states:
        raise FormatError(f"automaton: initial state {obj['initial']!r} is undeclared")
    arity = obj.get("arity")
    if arity is not None and type(arity) is not int:
        raise FormatError("automaton: field 'arity' must be an integer")
    return TreeAutomaton(states, alphabet, transitions, obj["initial"], arity)


def tree_from_text(text: str) -> Tree:
    text = text.strip()
    if text.startswith("{"):
        return tree_from_json(_load_json(text, "tree"))
    return parse_tree(text)


# -- succinct NFAs (explicit labels) -----------------------------------------


def nfa_from_json(text: str) -> SuccinctNFA:
    obj = _load_object(text, "nfa", {"states": None, "transitions": {"label": None}})
    states = _required(obj, "states", "nfa")
    if len(set(states)) != len(states):
        raise FormatError("nfa: duplicate state names")
    for key in ("initial", "final"):
        if key not in obj:
            raise FormatError(f"nfa: missing field {key!r}")
        if obj[key] not in states:
            raise FormatError(f"nfa: {key} state {obj[key]!r} is undeclared")
    labels = {}
    transitions = []
    for i, t in enumerate(_required(obj, "transitions", "nfa")):
        for key in ("from", "to", "label"):
            if key not in t:
                raise FormatError(f"nfa: transition {i} lacks {key!r}")
        if t["from"] not in states or t["to"] not in states:
            raise FormatError(f"nfa: transition {i} uses an undeclared state")
        if not t["label"]:
            raise FormatError(f"nfa: transition {i} label must be a nonempty list")
        if len(set(t["label"])) != len(t["label"]):
            raise FormatError(f"nfa: transition {i} label has duplicates")
        key = f"L{i}"
        labels[key] = ExplicitLabel(key, tuple(t["label"]))
        transitions.append((t["from"], key, t["to"]))
    return SuccinctNFA(states, transitions, obj["initial"], obj["final"], labels)


# -- queries, facts, decompositions -----------------------------------------


_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*")


def _parse_terms(inner: str, line_no: int, as_constants: bool):
    terms = []
    if inner.strip() == "":
        raise FormatError(f"line {line_no}: empty argument list")
    for raw in inner.split(","):
        tok = raw.strip()
        if not tok:
            raise FormatError(f"line {line_no}: empty term")
        if tok[0] in "'\"":
            if len(tok) < 2 or tok[-1] != tok[0]:
                raise FormatError(f"line {line_no}: unterminated quoted constant {tok!r}")
            terms.append(Const(tok[1:-1]))
        elif as_constants:
            terms.append(Const(tok))
        elif tok[0].isdigit():
            terms.append(Const(tok))
        else:
            terms.append(Var(tok))
    return terms


def queries_from_text(text: str) -> list[ConjunctiveQuery]:
    """Rules like `Q(x) :- G(x), E(x,y).`  Several rules with the same head
    form the disjuncts of a union.  Bare identifiers are variables; quoted
    tokens and numbers are constants."""
    queries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        if not line.endswith("."):
            raise FormatError(f"line {line_no}: rule must end with '.'")
        line = line[:-1]
        if ":-" in line:
            head_txt, body_txt = line.split(":-", 1)
        elif "<-" in line:
            head_txt, body_txt = line.split("<-", 1)
        else:
            raise FormatError(f"line {line_no}: rule needs ':-'")
        m = _ATOM_RE.fullmatch(head_txt)
        if not m:
            raise FormatError(f"line {line_no}: malformed head {head_txt.strip()!r}")
        name = m.group(1)
        head_terms = _parse_terms(m.group(2), line_no, as_constants=False)
        head = []
        for t in head_terms:
            if not isinstance(t, Var):
                raise FormatError(f"line {line_no}: head terms must be variables")
            head.append(t.name)
        atoms = []
        pos = 0
        body = body_txt.strip()
        while pos < len(body):
            m = _ATOM_RE.match(body, pos)
            if not m:
                raise FormatError(
                    f"line {line_no}: malformed atom near position {pos + 1}"
                )
            atoms.append(Atom(m.group(1), tuple(_parse_terms(m.group(2), line_no, False))))
            pos = m.end()
            if pos < len(body):
                if body[pos] != ",":
                    raise FormatError(
                        f"line {line_no}: expected ',' between atoms at position {pos + 1}"
                    )
                pos += 1
        if not atoms:
            raise FormatError(f"line {line_no}: rule body is empty")
        queries.append(ConjunctiveQuery(name, tuple(head), tuple(atoms)))
    if not queries:
        raise FormatError("no rules found")
    names = {q.name for q in queries}
    if len(names) > 1:
        raise FormatError(f"rules define several query names: {sorted(names)}")
    return queries


def database_from_text(text: str) -> Database:
    """Fact lines like `E(b,c1).`"""
    relations: dict[str, set] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        if not line.endswith("."):
            raise FormatError(f"line {line_no}: fact must end with '.'")
        m = _ATOM_RE.fullmatch(line[:-1])
        if not m:
            raise FormatError(f"line {line_no}: malformed fact {line!r}")
        rel = m.group(1)
        terms = _parse_terms(m.group(2), line_no, as_constants=True)
        relations.setdefault(rel, set()).add(tuple(t.value for t in terms))
    return Database(relations)


def _decomposition(obj) -> HypertreeDecomposition:
    obj = _checked_object(obj, "decomposition", {
        "nodes": {"chi": None, "xi": None, "children": None}})
    nodes = []
    for i, node in enumerate(_required(obj, "nodes", "decomposition")):
        for key in ("id", "chi", "xi"):
            if key not in node:
                raise FormatError(f"decomposition: node {i} lacks {key!r}")
        nodes.append(
            DecompositionNode(
                str(node["id"]),
                frozenset(node["chi"]),
                tuple(int(x) for x in node["xi"]),
                tuple(str(c) for c in node.get("children", [])),
            )
        )
    if "root" not in obj:
        raise FormatError("decomposition: missing field 'root'")
    return HypertreeDecomposition(nodes, str(obj["root"]))


def decompositions_from_json(text: str) -> list[Optional[HypertreeDecomposition]]:
    """Either one decomposition object or a list (per union disjunct; null
    entries mean 'derive a join tree')."""
    obj = _load_json(text, "decomposition")
    if isinstance(obj, list):
        return [None if entry is None else _decomposition(entry) for entry in obj]
    return [_decomposition(obj)]


# -- ECSP, circuits, nested word automata -------------------------------------


def ecsp_from_json(text: str) -> Ecsp:
    obj = _load_object(text, "ecsp", {
        "output": None, "variables": None, "domain": None,
        "constraints": {"scope": None, "tuples": list}})
    for key in ("output", "variables", "domain", "constraints"):
        if key not in obj:
            raise FormatError(f"ecsp: missing field {key!r}")
    constraints = []
    for i, c in enumerate(obj["constraints"]):
        if "scope" not in c or "tuples" not in c:
            raise FormatError(f"ecsp: constraint {i} needs 'scope' and 'tuples'")
        constraints.append(
            (tuple(c["scope"]), frozenset(tuple(str(v) for v in row) for row in c["tuples"]))
        )
    return Ecsp(
        tuple(obj["output"]),
        tuple(obj["variables"]),
        tuple(str(d) for d in obj["domain"]),
        tuple(constraints),
    )


def circuit_from_json(text: str) -> DnnfCircuit:
    obj = _load_object(text, "circuit", {"gates": {"inputs": None}})
    gates = []
    for i, g in enumerate(_required(obj, "gates", "circuit")):
        if "id" not in g or "type" not in g:
            raise FormatError(f"circuit: gate {i} needs 'id' and 'type'")
        if g["type"] not in ("and", "or", "lit"):
            raise FormatError(f"circuit: gate {i} has unknown type {g['type']!r}")
        if not isinstance(g.get("var"), _SCALARS):
            raise FormatError(f"circuit: gate {i} has a non-scalar 'var'")
        gates.append(
            Gate(
                str(g["id"]),
                g["type"],
                tuple(str(x) for x in g.get("inputs", [])),
                g.get("var"),
                bool(g.get("sign", True)),
            )
        )
    if "output" not in obj:
        raise FormatError("circuit: missing field 'output'")
    return DnnfCircuit(gates, str(obj["output"]))


def vtree_from_json(text: str) -> Tree:
    obj = _load_object(text, "vtree", {})

    def build(node) -> Tree:
        if not isinstance(node, dict):
            raise FormatError("vtree: nodes must be objects")
        if "var" in node:
            return Tree(str(node["var"]), ())
        if "left" in node and "right" in node:
            return Tree(".", (build(node["left"]), build(node["right"])))
        raise FormatError("vtree: node needs either 'var' or 'left'/'right'")

    return build(obj)


def nwa_from_json(text: str) -> NestedWordAutomaton:
    obj = _load_object(text, "nwa", {
        "states": None, "alphabet": None, "initial": None, "final": None,
        "hierarchical": None, "call": list, "internal": list, "return": list})
    for key in ("states", "alphabet", "initial", "final", "hierarchical",
                "call", "internal", "return"):
        if key not in obj:
            raise FormatError(f"nwa: missing field {key!r}")
    states = frozenset(obj["states"])
    for key in ("initial", "final"):
        extra = set(obj[key]) - states
        if extra:
            raise FormatError(f"nwa: {key} states {sorted(extra)} are undeclared")
    hierarchical = frozenset(obj["hierarchical"])

    def hier_declared(kind: str, i: int, p) -> None:
        if p not in hierarchical:
            raise FormatError(
                f"nwa: {kind} transition {i} uses undeclared hierarchical symbol {p!r}"
            )

    calls = []
    for i, row in enumerate(obj["call"]):
        if len(row) != 4:
            raise FormatError(f"nwa: call transition {i} needs [from, symbol, to, hier]")
        hier_declared("call", i, row[3])
        calls.append(tuple(row))
    internals = []
    for i, row in enumerate(obj["internal"]):
        if len(row) != 3:
            raise FormatError(f"nwa: internal transition {i} needs [from, symbol, to]")
        internals.append(tuple(row))
    returns = []
    for i, row in enumerate(obj["return"]):
        if len(row) != 4:
            raise FormatError(f"nwa: return transition {i} needs [from, hier, symbol, to]")
        hier_declared("return", i, row[1])
        returns.append(tuple(row))
    return NestedWordAutomaton(
        states,
        frozenset(obj["alphabet"]),
        frozenset(obj["initial"]),
        frozenset(obj["final"]),
        hierarchical,
        tuple(calls),
        tuple(internals),
        tuple(returns),
    )

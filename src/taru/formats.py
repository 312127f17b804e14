"""On-disk formats: JSON for structured objects, small text forms for trees,
queries and facts.  The text parsers report positions where they can.  The
JSON readers check only each document's shape; the objects they build make
every check of its content, so callers that build those objects in-process
get the same rejections."""

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


# A shape describes a JSON value: (description, types) for a value whose type
# is one of types, [shape] for a list whose entries all match shape, or
# {field: shape} for an object, whose fields named with a trailing "?" may
# be absent.
SCALAR = ("a string or number", (str, int, float, bool, type(None)))
NAME = ("a string", (str,))  # automata sort and string-test their names
BOOL = ("a boolean", (bool,))
ARITY = ("an integer", (int, type(None)))
INDEX = ("an integer", (int, float, bool, str))  # read with int()
ANY = ("any value", SCALAR[1] + (list, dict))  # read with str()


def _check_shape(value, shape, what: str, path: str = "") -> None:
    at = f"{what}: {path or 'the document'}"
    if isinstance(shape, dict):
        if type(value) is not dict:
            raise FormatError(f"{at} must be an object")
        for name, field_shape in shape.items():
            key = name.rstrip("?")
            where = f"{path}.{key}" if path else key
            if key in value:
                _check_shape(value[key], field_shape, what, where)
            elif key == name:
                raise FormatError(f"{what}: missing field {where!r}")
    elif isinstance(shape, list):
        if type(value) is not list:
            raise FormatError(f"{at} must be a list")
        for i, item in enumerate(value):
            _check_shape(item, shape[0], what, f"{path}[{i}]")
    elif type(value) not in shape[1]:
        raise FormatError(f"{at} must be {shape[0]}")


def _load(text: str, what: str, shape):
    """The JSON document in text, checked against shape."""
    doc = _load_json(text, what)
    _check_shape(doc, shape, what)
    return doc


# -- tree automata -------------------------------------------------------------


def automaton_from_json(text: str) -> TreeAutomaton:
    obj = _load(text, "automaton", {
        "states": [NAME], "alphabet": [NAME], "initial": NAME, "arity?": ARITY,
        "transitions": [{"from": NAME, "symbol": NAME, "children?": [NAME]}]})
    # The automaton keeps these as sets, where duplicates would pass unseen.
    for key in ("states", "alphabet"):
        if len(set(obj[key])) != len(obj[key]):
            raise FormatError(f"automaton: duplicate entries in {key!r}")
    transitions = [(t["from"], t["symbol"], t.get("children", [])) for t in obj["transitions"]]
    return TreeAutomaton(obj["states"], obj["alphabet"], transitions, obj["initial"],
                         obj.get("arity"))


def tree_from_text(text: str) -> Tree:
    text = text.strip()
    if text.startswith("{"):
        return tree_from_json(_load_json(text, "tree"))
    return parse_tree(text)


# -- succinct NFAs (explicit labels) -----------------------------------------


def nfa_from_json(text: str) -> SuccinctNFA:
    obj = _load(text, "nfa", {
        "states": [SCALAR], "initial": SCALAR, "final": SCALAR,
        "transitions": [{"from": SCALAR, "to": SCALAR, "label": [SCALAR]}]})
    labels = {f"L{i}": ExplicitLabel(f"L{i}", t["label"])
              for i, t in enumerate(obj["transitions"])}
    transitions = [(t["from"], f"L{i}", t["to"]) for i, t in enumerate(obj["transitions"])]
    return SuccinctNFA(obj["states"], transitions, obj["initial"], obj["final"], labels)


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
    _check_shape(obj, {
        "root": ANY,
        "nodes": [{"id": ANY, "chi": [SCALAR], "xi": [INDEX], "children?": [SCALAR]}]},
        "decomposition")
    nodes = [
        DecompositionNode(str(node["id"]), frozenset(node["chi"]),
                          tuple(int(x) for x in node["xi"]),
                          tuple(str(c) for c in node.get("children", [])))
        for node in obj["nodes"]
    ]
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
    obj = _load(text, "ecsp", {
        "output": [SCALAR], "variables": [SCALAR], "domain": [SCALAR],
        "constraints": [{"scope": [SCALAR], "tuples": [[SCALAR]]}]})
    return Ecsp(
        tuple(obj["output"]),
        tuple(obj["variables"]),
        tuple(str(d) for d in obj["domain"]),
        tuple((tuple(c["scope"]), frozenset(tuple(str(v) for v in row) for row in c["tuples"]))
              for c in obj["constraints"]),
    )


def circuit_from_json(text: str) -> DnnfCircuit:
    obj = _load(text, "circuit", {
        "output": ANY,
        "gates": [{"id": ANY, "type": SCALAR, "inputs?": [SCALAR], "var?": SCALAR,
                   "sign?": BOOL}]})
    gates = [
        Gate(str(g["id"]), g["type"], tuple(str(x) for x in g.get("inputs", [])),
             g.get("var"), g.get("sign", True))
        for g in obj["gates"]
    ]
    return DnnfCircuit(gates, str(obj["output"]))


def vtree_from_json(text: str) -> Tree:
    def build(node) -> Tree:
        if not isinstance(node, dict):
            raise FormatError("vtree: nodes must be objects")
        if "var" in node:
            return Tree(str(node["var"]), ())
        if "left" in node and "right" in node:
            return Tree(".", (build(node["left"]), build(node["right"])))
        raise FormatError("vtree: node needs either 'var' or 'left'/'right'")

    return build(_load_json(text, "vtree"))


def nwa_from_json(text: str) -> NestedWordAutomaton:
    obj = _load(text, "nwa", {
        "states": [NAME], "alphabet": [NAME], "initial": [NAME], "final": [NAME],
        "hierarchical": [NAME], "call": [[NAME]], "internal": [[NAME]],
        "return": [[NAME]]})
    sets = [frozenset(obj[key])
            for key in ("states", "alphabet", "initial", "final", "hierarchical")]
    rows = [tuple(map(tuple, obj[key])) for key in ("call", "internal", "return")]
    return NestedWordAutomaton(*sets, *rows)

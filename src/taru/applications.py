"""Reductions from other counting problems to tree automaton slices.

Existential CSPs translate directly into conjunctive queries over their
constraint relations.  Structured DNNF circuits become automata over trees
shaped like the v-tree whose 0/1 leaves spell a satisfying valuation.  Nested
word automata become binary tree automata over the unit structure of a nested
word (an internal position, or a call/return pair wrapping a nested segment),
with word length n mapping to tree size 2n+1.  Each reduction preserves the
count exactly; the randomized estimators then run on the target automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Optional

from .automata import TreeAutomaton, merge_initial_states
from .config import Config
from .cq import (
    Atom,
    ConjunctiveQuery,
    Database,
    HypertreeDecomposition,
    QueryError,
    Var,
    count_cq,
)
from .engine import CountResult, fpras_bta
from .oracles import DEFAULT_BUDGET, BudgetExceeded
from .trees import Tree


# -- existential constraint satisfaction -------------------------------------


@dataclass(frozen=True)
class Ecsp:
    output: tuple[str, ...]
    variables: tuple[str, ...]
    domain: tuple[str, ...]
    constraints: tuple[tuple[tuple[str, ...], frozenset], ...]

    def __post_init__(self):
        vs = set(self.variables)
        if not set(self.output) <= vs:
            raise QueryError("output variables must be declared variables")
        for scope, rel in self.constraints:
            if not set(scope) <= vs:
                raise QueryError(f"constraint scope {scope} uses unknown variables")
            for row in rel:
                if len(row) != len(scope):
                    raise QueryError(f"constraint row {row} does not match {scope}")


def ecsp_to_cq(e: Ecsp) -> tuple[ConjunctiveQuery, Database]:
    """Query over fresh relation names whose answers are the solution
    projections.  Variables in no constraint get a full-domain atom so the
    query sees every variable the CSP quantifies over."""
    atoms = []
    relations: dict[str, set] = {}
    covered = set()
    for i, (scope, rel) in enumerate(e.constraints):
        name = f"c{i}"
        atoms.append(Atom(name, tuple(Var(v) for v in scope)))
        relations[name] = set(rel)
        covered.update(scope)
    loose = [v for v in e.variables if v not in covered]
    if loose:
        relations["dom"] = {(d,) for d in e.domain}
        for v in loose:
            atoms.append(Atom("dom", (Var(v),)))
    head = tuple(dict.fromkeys(e.output))
    query = ConjunctiveQuery("E", head, tuple(atoms))
    return query, Database(relations)


def brute_ecsp_count(e: Ecsp, budget: int = 10_000_000) -> int:
    """Exact solution-projection count by full assignment enumeration."""
    total = len(e.domain) ** len(e.variables)
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed the budget {budget}")
    seen = set()
    names = list(e.variables)
    for values in product(e.domain, repeat=len(names)):
        nu = dict(zip(names, values))
        if all(tuple(nu[v] for v in scope) in rel for scope, rel in e.constraints):
            seen.add(tuple(nu[v] for v in e.output))
    return len(seen)


def count_ecsp(
    e: Ecsp,
    hd: Optional[HypertreeDecomposition],
    config: Config,
    max_width: Optional[int] = None,
) -> CountResult:
    query, db = ecsp_to_cq(e)
    result = count_cq(query, db, hd, config, max_width)
    result.certificate["mode"] = "ecsp-count"
    return result


# -- structured DNNF circuits -------------------------------------------------


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class Gate:
    id: str
    kind: str  # "and", "or", "lit"
    inputs: tuple[str, ...] = ()
    var: Optional[str] = None
    positive: bool = True


class DnnfCircuit:
    """Binary-fanin NNF circuit validated for decomposability."""

    def __init__(self, gates, output: str):
        self.gates: dict[str, Gate] = {}
        for g in gates:
            if g.id in self.gates:
                raise CircuitError(f"duplicate gate id {g.id!r}")
            if g.kind not in ("and", "or", "lit"):
                raise CircuitError(f"gate {g.id!r} has unknown kind {g.kind!r}")
            if g.kind == "lit":
                if g.inputs or g.var is None:
                    raise CircuitError(f"literal gate {g.id!r} must name a variable")
            elif len(g.inputs) != 2:
                raise CircuitError(f"gate {g.id!r} must have exactly two inputs")
            self.gates[g.id] = g
        if output not in self.gates:
            raise CircuitError(f"output gate {output!r} is not declared")
        self.output = output
        self._order = self._topological()
        self.vars_of: dict[str, frozenset] = {}
        for gid in self._order:
            g = self.gates[gid]
            if g.kind == "lit":
                self.vars_of[gid] = frozenset([g.var])
            else:
                self.vars_of[gid] = self.vars_of[g.inputs[0]] | self.vars_of[g.inputs[1]]
        for gid in self._order:
            g = self.gates[gid]
            if g.kind == "and":
                a, b = g.inputs
                if self.vars_of[a] & self.vars_of[b]:
                    shared = sorted(self.vars_of[a] & self.vars_of[b])
                    raise CircuitError(
                        f"and-gate {gid!r} is not decomposable; inputs share {shared}"
                    )

    def _topological(self) -> list[str]:
        """Every gate after its inputs: a depth-first post-order, kept on an
        explicit stack so that circuits of any depth are ordered."""
        order: list[str] = []
        mark: dict[str, int] = {}  # 1 while on the stack, then 2
        for root in self.gates:
            if root in mark:
                continue
            mark[root] = 1
            stack = [(root, iter(self.gates[root].inputs))]
            while stack:
                gid, deps = stack[-1]
                for dep in deps:
                    if dep not in self.gates:
                        raise CircuitError(f"gate {gid!r} uses undeclared input {dep!r}")
                    if mark.get(dep) == 1:
                        raise CircuitError(f"cycle through gate {dep!r}")
                    if dep not in mark:
                        mark[dep] = 1
                        stack.append((dep, iter(self.gates[dep].inputs)))
                        break
                else:
                    mark[gid] = 2
                    order.append(gid)
                    stack.pop()
        return order

    @cached_property
    def or_closure(self) -> dict[str, frozenset]:
        """For each gate, the and- and literal gates it reaches through
        or-gates alone, built once per circuit in topological order."""
        out: dict[str, frozenset] = {}
        for gid in self._order:
            g = self.gates[gid]
            if g.kind == "or":
                out[gid] = out[g.inputs[0]] | out[g.inputs[1]]
            else:
                out[gid] = frozenset([gid])
        return out

    def variables(self) -> frozenset:
        return frozenset().union(*(self.vars_of[g] for g in self.gates)) if self.gates else frozenset()

    def evaluate(self, assignment: dict) -> bool:
        values: dict[str, bool] = {}
        for gid in self._order:
            g = self.gates[gid]
            if g.kind == "lit":
                values[gid] = assignment[g.var] if g.positive else not assignment[g.var]
            elif g.kind == "and":
                values[gid] = values[g.inputs[0]] and values[g.inputs[1]]
            else:
                values[gid] = values[g.inputs[0]] or values[g.inputs[1]]
        return values[self.output]


def truth_table_count(circuit: DnnfCircuit, budget: int | None = DEFAULT_BUDGET) -> int:
    """Exact model count over the circuit's variables; refuses tables of
    more than `budget` rows."""
    names = sorted(circuit.variables())
    if budget is not None and 2 ** len(names) > budget:
        raise BudgetExceeded(
            f"truth table over {len(names)} variables has {2 ** len(names)} "
            f"rows, above the budget of {budget}"
        )
    count = 0
    for values in product((False, True), repeat=len(names)):
        if circuit.evaluate(dict(zip(names, values))):
            count += 1
    return count


def vtree_leaves(vtree: Tree) -> dict[str, tuple[int, ...]]:
    out: dict[str, tuple[int, ...]] = {}
    for addr, node in vtree.nodes():
        if node.is_leaf():
            if not isinstance(node.label, str):
                raise CircuitError("v-tree leaves must be variable names")
            if node.label in out:
                raise CircuitError(f"variable {node.label!r} appears on two leaves")
            out[node.label] = addr
        elif len(node.children) != 2:
            raise CircuitError("v-tree must be binary")
    return out


def _vars_below(vtree: Tree) -> dict[tuple[int, ...], frozenset]:
    out: dict[tuple[int, ...], frozenset] = {}

    def go(addr, node) -> frozenset:
        if node.is_leaf():
            vs = frozenset([node.label])
        else:
            vs = go(addr + (1,), node.children[0]) | go(addr + (2,), node.children[1])
        out[addr] = vs
        return vs

    go((), vtree)
    return out


def infer_witness(circuit: DnnfCircuit, vtree: Tree) -> dict[str, tuple[int, ...]]:
    """Assign every and/literal gate the deepest v-tree node that splits its
    inputs' variables between the node's two subtrees."""
    leaves = vtree_leaves(vtree)
    missing = circuit.variables() - set(leaves)
    if missing:
        raise CircuitError(f"v-tree lacks leaves for variables {sorted(missing)}")
    below = _vars_below(vtree)
    internal = sorted(
        (a for a, n in vtree.nodes() if not n.is_leaf()),
        key=lambda a: (-len(a), a),
    )
    witness: dict[str, tuple[int, ...]] = {}
    for gid in circuit._order:
        g = circuit.gates[gid]
        if g.kind == "lit":
            witness[gid] = leaves[g.var]
        elif g.kind == "and":
            lvars = circuit.vars_of[g.inputs[0]]
            rvars = circuit.vars_of[g.inputs[1]]
            found = None
            for addr in internal:
                if lvars <= below[addr + (1,)] and rvars <= below[addr + (2,)]:
                    found = addr
                    break
            if found is None:
                raise CircuitError(
                    f"and-gate {gid!r} does not respect the v-tree; no node "
                    f"splits {sorted(lvars)} from {sorted(rvars)}"
                )
            witness[gid] = found
    return witness


def dnnf_to_ta(circuit: DnnfCircuit, vtree: Tree) -> tuple[TreeAutomaton, int]:
    """Automaton accepting exactly the v-tree-shaped 0/1 trees that encode
    satisfying valuations; the model count is the slice count at |vtree|."""
    witness = infer_witness(circuit, vtree)

    def shape_state(addr) -> str:
        return "u" + ".".join(map(str, addr))

    def pair_state(addr, gid) -> str:
        return f"u{'.'.join(map(str, addr))}:{gid}"

    def is_desc(a, b) -> bool:  # b descendant-or-self of a
        return len(a) <= len(b) and b[: len(a)] == a

    states = set()
    transitions = []
    alphabet = {"@", "0", "1"}
    for addr, node in vtree.nodes():
        s = shape_state(addr)
        states.add(s)
        if node.is_leaf():
            transitions.append((s, "0", ()))
            transitions.append((s, "1", ()))
        else:
            transitions.append((s, "@", (shape_state(addr + (1,)), shape_state(addr + (2,)))))
    pair_states = []
    for addr, node in vtree.nodes():
        for gid, g in circuit.gates.items():
            if g.kind == "or":
                continue
            if is_desc(addr, witness[gid]):
                pair_states.append((addr, node, gid))
                states.add(pair_state(addr, gid))
    for addr, node, gid in pair_states:
        g = circuit.gates[gid]
        target = witness[gid]
        me = pair_state(addr, gid)
        if target != addr:
            left, right = addr + (1,), addr + (2,)
            if is_desc(left, target):
                transitions.append((me, "@", (pair_state(left, gid), shape_state(right))))
            else:
                transitions.append((me, "@", (shape_state(left), pair_state(right, gid))))
        elif node.is_leaf():
            transitions.append((me, "1" if g.positive else "0", ()))
        else:
            options = circuit.or_closure[g.inputs[0]] | circuit.or_closure[g.inputs[1]]
            left, right = addr + (1,), addr + (2,)
            for g1 in sorted(options):
                if not is_desc(left, witness[g1]):
                    continue
                for g2 in sorted(options):
                    if not is_desc(right, witness[g2]):
                        continue
                    transitions.append(
                        (me, "@", (pair_state(left, g1), pair_state(right, g2)))
                    )
    roots = sorted(circuit.or_closure[circuit.output])
    initials = [pair_state((), g) for g in roots]
    automaton = merge_initial_states(states, alphabet, transitions, initials, arity=2)
    return automaton, vtree.size


def count_dnnf(circuit: DnnfCircuit, vtree: Tree, config: Config) -> CountResult:
    automaton, n = dnnf_to_ta(circuit, vtree)
    result = fpras_bta(automaton, n, config)
    result.certificate["mode"] = "dnnf-count"
    result.certificate["vtree_size"] = n
    return result


# -- nested word automata -------------------------------------------------------


class NwaError(ValueError):
    pass


RESERVED_TREE_SYMBOLS = {"#", "."}


@dataclass(frozen=True)
class NestedWord:
    letters: tuple[str, ...]
    matching: frozenset  # pairs (i, j), 1-based positions

    def __post_init__(self):
        n = len(self.letters)
        calls = {}
        returns = {}
        for i, j in self.matching:
            if not (1 <= i < j <= n):
                raise NwaError(f"matched pair {(i, j)} out of range or reversed")
            if i in calls or j in returns:
                raise NwaError("a position is matched twice")
            calls[i] = j
            returns[j] = i
        if set(calls) & set(returns):
            raise NwaError("a position is both a call and a return")
        for i, j in self.matching:
            for i2, j2 in self.matching:
                if (i, j) == (i2, j2):
                    continue
                lo, hi = (i, j), (i2, j2)
                inter_lo, inter_hi = max(i, i2), min(j, j2)
                if inter_lo <= inter_hi:
                    if not (i2 >= i and j2 <= j) and not (i >= i2 and j <= j2):
                        raise NwaError(f"pairs {lo} and {hi} cross")


@dataclass(frozen=True)
class NestedWordAutomaton:
    states: frozenset
    alphabet: frozenset
    initial: frozenset
    final: frozenset
    hierarchical: frozenset
    call_transitions: tuple  # (q, a, q', p)
    internal_transitions: tuple  # (q, a, q')
    return_transitions: tuple  # (q, p, a, q')

    def __post_init__(self):
        for sym in self.alphabet:
            if sym in RESERVED_TREE_SYMBOLS or "<" in sym or "|" in sym:
                raise NwaError(
                    f"nwa: alphabet symbol {sym!r} collides with the tree encoding"
                )
        for name in ("initial", "final"):
            extra = getattr(self, name) - self.states
            if extra:
                raise NwaError(f"nwa: {name} states {sorted(extra, key=repr)} are undeclared")
        for kind, rows, fields in (
            ("call", self.call_transitions, ("from", "symbol", "to", "hier")),
            ("internal", self.internal_transitions, ("from", "symbol", "to")),
            ("return", self.return_transitions, ("from", "hier", "symbol", "to")),
        ):
            for i, row in enumerate(rows):
                if len(row) != len(fields):
                    raise NwaError(f"nwa: {kind} transition {i} needs [{', '.join(fields)}]")
                named = dict(zip(fields, row))
                if "hier" in named and named["hier"] not in self.hierarchical:
                    raise NwaError(f"nwa: {kind} transition {i} uses undeclared "
                                   f"hierarchical symbol {named['hier']!r}")


def _units(word: NestedWord) -> list:
    """Parse positions into a unit sequence: 'a' for internal, (a, inner, b)
    for a call/return pair."""
    call_to_return = {i: j for i, j in word.matching}
    is_return = {j for _, j in word.matching}

    def parse(lo: int, hi: int) -> list:
        units = []
        pos = lo
        while pos <= hi:
            if pos in call_to_return:
                j = call_to_return[pos]
                if j > hi:
                    raise NwaError("matching escapes its segment")
                units.append(
                    (word.letters[pos - 1], parse(pos + 1, j - 1), word.letters[j - 1])
                )
                pos = j + 1
            elif pos in is_return:
                raise NwaError("return without enclosing call")
            else:
                units.append(word.letters[pos - 1])
                pos += 1
        return units

    return parse(1, len(word.letters))


def nwa_accepts(nwa: NestedWordAutomaton, word: NestedWord) -> bool:
    units = _units(word)

    def seq_pairs(units) -> set:
        pairs = {(q, q) for q in nwa.states}
        for u in units:
            step = unit_pairs(u)
            pairs = {(q, q2) for (q, q1) in pairs for (q1b, q2) in step if q1 == q1b}
            if not pairs:
                break
        return pairs

    def unit_pairs(u) -> set:
        if isinstance(u, str):
            return {(q, q2) for (q, a, q2) in nwa.internal_transitions if a == u}
        a, inner, b = u
        inner_pairs = seq_pairs(inner)
        out = set()
        for (q, ca, q1, p) in nwa.call_transitions:
            if ca != a:
                continue
            for (q1b, q2) in inner_pairs:
                if q1b != q1:
                    continue
                for (q2b, pb, rb, q3) in nwa.return_transitions:
                    if q2b == q2 and pb == p and rb == b:
                        out.add((q, q3))
        return out

    pairs = seq_pairs(units)
    return any(q0 in nwa.initial and qf in nwa.final for (q0, qf) in pairs)


def nwa_tree_size(n: int) -> int:
    return 2 * n + 1


def nwa_to_bta(nwa: NestedWordAutomaton) -> TreeAutomaton:
    """Binary tree automaton accepting exactly the encodings of accepted
    nested words; a length-n word becomes a tree of size 2n+1."""
    states = set()
    transitions = []
    alphabet = set(nwa.alphabet) | {"#", "."}
    pair_symbols = set()
    call_by_letter: dict[str, list] = {}
    for (q, a, q1, p) in nwa.call_transitions:
        call_by_letter.setdefault(a, []).append((q, q1, p))
    for (q2, p, b, q3) in nwa.return_transitions:
        for a, calls in call_by_letter.items():
            if any(pc == p for _, _, pc in calls):
                pair_symbols.add(f"<{a}|{b}>")
    alphabet |= pair_symbols

    def seq(q, q2) -> str:
        return f"S({q},{q2})"

    def unit(q, q2) -> str:
        return f"U({q},{q2})"

    for q in sorted(nwa.states):
        states.add(seq(q, q))
        transitions.append((seq(q, q), "#", ()))
    states.add("pad")
    transitions.append(("pad", "#", ()))
    for q in sorted(nwa.states):
        for q2 in sorted(nwa.states):
            states.add(seq(q, q2))
            states.add(unit(q, q2))
            for mid in sorted(nwa.states):
                transitions.append((seq(q, q2), ".", (unit(q, mid), seq(mid, q2))))
    for (q, a, q2) in nwa.internal_transitions:
        transitions.append((unit(q, q2), a, ()))
    returns_by_symbol: dict[tuple, list] = {}
    for (q2, p, b, q3) in nwa.return_transitions:
        returns_by_symbol.setdefault((p, b), []).append((q2, q3))
    for (q, a, q1, p) in nwa.call_transitions:
        for (pp, b), rets in returns_by_symbol.items():
            if pp != p:
                continue
            for (q2, q3) in rets:
                transitions.append(
                    (unit(q, q3), f"<{a}|{b}>", (seq(q1, q2), "pad"))
                )
    initials = sorted(seq(q0, qf) for q0 in nwa.initial for qf in nwa.final)
    return merge_initial_states(states, alphabet, transitions, initials, arity=2)


def enumerate_nested_words(alphabet, n: int) -> Iterator[NestedWord]:
    """All nested words of length n over the alphabet, one at a time (test
    oracle)."""
    if n < 0:
        raise ValueError(f"word length {n} is negative")
    alphabet = sorted(alphabet)

    def structures(m: int) -> list[tuple]:
        # Tuple shapes: () for empty, entries "I" or ("C", inner shape).
        if m == 0:
            return [()]
        out = []
        for rest in structures(m - 1):
            out.append(("I",) + rest)
        for inner_len in range(0, m - 1):
            for inner in structures(inner_len):
                for rest in structures(m - 2 - inner_len):
                    out.append((("C", inner),) + rest)
        return out

    def positions(shape, start: int, pairs: list) -> int:
        pos = start
        for u in shape:
            if u == "I":
                pos += 1
            else:
                _, inner = u
                call = pos
                pos = positions(inner, pos + 1, pairs)
                pairs.append((call, pos))
                pos += 1
        return pos

    for shape in structures(n):
        pairs: list = []
        positions(shape, 1, pairs)
        for letters in product(alphabet, repeat=n):
            yield NestedWord(tuple(letters), frozenset(pairs))


def brute_nwa_count(
    nwa: NestedWordAutomaton, n: int, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Exact count of accepted words of length n; refuses, before it
    enumerates any, to test more than `budget` words."""
    if budget is not None:
        # Well-matched nestings of length n number Motzkin(n).
        motzkin, previous = 1, 0
        for m in range(1, n + 1):
            motzkin, previous = (
                ((2 * m + 1) * motzkin + (3 * m - 3) * previous) // (m + 2), motzkin)
        if motzkin * len(nwa.alphabet) ** n > budget:
            raise BudgetExceeded(
                f"nested words of length {n} number more than the budget of {budget}"
            )
    return sum(1 for w in enumerate_nested_words(nwa.alphabet, n) if nwa_accepts(nwa, w))


def count_nwa(nwa: NestedWordAutomaton, n: int, config: Config) -> CountResult:
    automaton = nwa_to_bta(nwa)
    result = fpras_bta(automaton, nwa_tree_size(n), config)
    result.certificate["mode"] = "nwa-count"
    result.certificate["word_length"] = n
    return result

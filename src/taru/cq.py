"""Conjunctive queries, hypertree decompositions, and the reduction of answer
counting to tree automaton slice counting.

The reduction builds one automaton state per (decomposition node, consistent
assignment of the node's atoms); transitions glue parent and child assignments
that agree on shared variables, and the node label exposes only the values of
output variables.  Accepted trees then correspond one-to-one to query answers
and every accepted tree has exactly one node per decomposition node, so the
answer count is the slice count at the decomposition size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .automata import TreeAutomaton, merge_initial_states
from .config import Config, RunStats, certificate
from .engine import BOT, CountResult, EngineFail, FpausSampler, LanguageSampler
from .oracles import BudgetExceeded
from .rng import Stream
from .trees import Tree


class QueryError(ValueError):
    pass


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"?{self.name}"


@dataclass(frozen=True)
class Const:
    value: str

    def __repr__(self):
        return f"'{self.value}'"


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple

    def variables(self) -> tuple[str, ...]:
        seen = []
        for a in self.args:
            if isinstance(a, Var) and a.name not in seen:
                seen.append(a.name)
        return tuple(seen)

    def __repr__(self):
        inner = ",".join(a.name if isinstance(a, Var) else repr(a.value) for a in self.args)
        return f"{self.rel}({inner})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    name: str
    head: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        body_vars = set()
        for atom in self.atoms:
            body_vars.update(atom.variables())
        for v in self.head:
            if v not in body_vars:
                raise QueryError(f"head variable {v!r} does not occur in any atom")

    def variables(self) -> tuple[str, ...]:
        seen = list(dict.fromkeys(self.head))
        for atom in self.atoms:
            for v in atom.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


class Database:
    def __init__(self, relations: dict[str, set]):
        self.relations: dict[str, frozenset] = {}
        for rel, tuples in relations.items():
            frozen = frozenset(tuple(t) for t in tuples)
            arities = {len(t) for t in frozen}
            if len(arities) > 1:
                raise QueryError(f"relation {rel!r} mixes arities {sorted(arities)}")
            self.relations[rel] = frozen

    def tuples(self, rel: str) -> frozenset:
        if rel not in self.relations:
            raise QueryError(f"relation {rel!r} is absent from the database")
        return self.relations[rel]

    def active_domain(self) -> frozenset:
        out = set()
        for tuples in self.relations.values():
            for t in tuples:
                out.update(t)
        return frozenset(out)


# -- hypertree decompositions ------------------------------------------------


@dataclass(frozen=True)
class DecompositionNode:
    id: str
    chi: frozenset
    xi: tuple[int, ...]
    children: tuple[str, ...]


class HypertreeDecomposition:
    def __init__(self, nodes, root: str):
        self.nodes: dict[str, DecompositionNode] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise QueryError(f"duplicate decomposition node id {node.id!r}")
            self.nodes[node.id] = node
        if root not in self.nodes:
            raise QueryError(f"root {root!r} is not a declared node")
        self.root = root
        seen = set()
        order = []

        def visit(nid: str):
            if nid in seen:
                raise QueryError(f"node {nid!r} reached twice; not a tree")
            seen.add(nid)
            order.append(nid)
            for c in self.nodes[nid].children:
                if c not in self.nodes:
                    raise QueryError(f"child {c!r} of {nid!r} is not declared")
                visit(c)

        visit(root)
        if len(seen) != len(self.nodes):
            missing = sorted(set(self.nodes) - seen)
            raise QueryError(f"nodes unreachable from the root: {missing}")
        self.order = tuple(order)  # preorder

    def __len__(self):
        return len(self.nodes)

    def parent_map(self) -> dict[str, Optional[str]]:
        parents: dict[str, Optional[str]] = {self.root: None}
        for nid in self.order:
            for c in self.nodes[nid].children:
                parents[c] = nid
        return parents

    def descendants(self, nid: str) -> set[str]:
        out = set()
        stack = list(self.nodes[nid].children)
        while stack:
            c = stack.pop()
            out.add(c)
            stack.extend(self.nodes[c].children)
        return out


@dataclass(frozen=True)
class Violation:
    condition: str
    detail: str


class DecompositionInvalid(QueryError):
    def __init__(self, violation: Violation):
        super().__init__(f"{violation.condition}: {violation.detail}")
        self.violation = violation


def validate_decomposition(query: ConjunctiveQuery, hd: HypertreeDecomposition) -> int:
    """Width on success; raises DecompositionInvalid naming the first broken
    condition otherwise."""
    atoms = query.atoms
    for node in hd.nodes.values():
        for i in node.xi:
            if not (0 <= i < len(atoms)):
                raise DecompositionInvalid(
                    Violation("atom-index", f"node {node.id!r} references atom {i}")
                )
    for i, atom in enumerate(atoms):
        vs = set(atom.variables())
        if not any(vs <= node.chi for node in hd.nodes.values()):
            raise DecompositionInvalid(
                Violation(
                    "atom-coverage",
                    f"no node covers the variables {sorted(vs)} of atom {atom!r}",
                )
            )
    parents = hd.parent_map()
    all_vars = set(query.variables())
    for v in sorted(all_vars):
        holders = {nid for nid, node in hd.nodes.items() if v in node.chi}
        if not holders:
            continue
        # Connected iff exactly one holder lacks a holder parent.
        heads = [nid for nid in holders if parents[nid] not in holders]
        if len(heads) != 1:
            raise DecompositionInvalid(
                Violation(
                    "connectedness",
                    f"variable {v!r} appears in disconnected parts {sorted(holders)}",
                )
            )
    for node in hd.nodes.values():
        guard_vars = set()
        for i in node.xi:
            guard_vars.update(atoms[i].variables())
        if not node.chi <= guard_vars:
            extra = sorted(node.chi - guard_vars)
            raise DecompositionInvalid(
                Violation(
                    "guard",
                    f"node {node.id!r} has variables {extra} outside its atoms",
                )
            )
    for nid, node in hd.nodes.items():
        guard_vars = set()
        for i in node.xi:
            guard_vars.update(atoms[i].variables())
        below = set()
        for d in hd.descendants(nid):
            below.update(hd.nodes[d].chi)
        leaked = (guard_vars & below) - node.chi
        if leaked:
            raise DecompositionInvalid(
                Violation(
                    "descendant",
                    f"node {nid!r} hides guard variables {sorted(leaked)} that "
                    "reappear below it",
                )
            )
    return max((len(node.xi) for node in hd.nodes.values()), default=0)


def complete_decomposition(
    query: ConjunctiveQuery, hd: HypertreeDecomposition
) -> HypertreeDecomposition:
    """Ensure every atom has a node that both covers its variables and lists
    it; attaches one fresh child per uncovered atom.  Idempotent, width
    preserved."""
    validate_decomposition(query, hd)
    housed = set()
    for node in hd.nodes.values():
        for i in node.xi:
            if set(query.atoms[i].variables()) <= node.chi:
                housed.add(i)
    missing = [i for i in range(len(query.atoms)) if i not in housed]
    if not missing:
        return hd
    nodes = {nid: node for nid, node in hd.nodes.items()}
    for i in missing:
        vs = frozenset(query.atoms[i].variables())
        host = None
        for nid in hd.order:
            if vs <= nodes[nid].chi:
                host = nid
                break
        if host is None:
            raise DecompositionInvalid(
                Violation("atom-coverage", f"atom {query.atoms[i]!r} has no host")
            )
        fresh = f"{host}+a{i}"
        while fresh in nodes:
            fresh += "'"
        nodes[fresh] = DecompositionNode(fresh, vs, (i,), ())
        old = nodes[host]
        nodes[host] = DecompositionNode(old.id, old.chi, old.xi, old.children + (fresh,))
    out = HypertreeDecomposition(list(nodes.values()), hd.root)
    validate_decomposition(query, out)
    return out


class NotAcyclic(QueryError):
    pass


def gyo_join_tree(query: ConjunctiveQuery) -> HypertreeDecomposition:
    """Width-1 decomposition by ear removal: one node per atom, each holding
    exactly its own atom.  Raises NotAcyclic for cyclic queries."""
    varsets = {i: set(a.variables()) for i, a in enumerate(query.atoms)}
    alive = set(varsets)
    parent: dict[int, Optional[int]] = {}
    roots: list[int] = []
    while alive:
        counts: dict[str, int] = {}
        for i in alive:
            for v in varsets[i]:
                counts[v] = counts.get(v, 0) + 1
        changed = False
        for i in sorted(alive):
            isolated = {v for v in varsets[i] if counts[v] == 1}
            if isolated:
                varsets[i] -= isolated
                changed = True
        for i in sorted(alive):
            if not varsets[i]:
                alive.discard(i)
                roots.append(i)
                changed = True
                continue
            for j in sorted(alive):
                if j != i and varsets[i] <= varsets[j]:
                    parent[i] = j
                    alive.discard(i)
                    changed = True
                    break
            if changed:
                break
        if not changed:
            raise NotAcyclic(
                f"query {query.name!r} is cyclic; atoms {sorted(alive)} cannot "
                "be reduced further"
            )
    children: dict[int, list[int]] = {i: [] for i in range(len(query.atoms))}
    for i, j in parent.items():
        children[j].append(i)
    root, extra_roots = roots[-1], roots[:-1]
    for r in extra_roots:
        children[root].append(r)
    nodes = []
    for i, atom in enumerate(query.atoms):
        nodes.append(
            DecompositionNode(
                f"n{i}",
                frozenset(atom.variables()),
                (i,),
                tuple(f"n{c}" for c in sorted(children[i])),
            )
        )
    if not nodes:
        raise QueryError("query has no atoms")
    hd = HypertreeDecomposition(nodes, f"n{root}")
    validate_decomposition(query, hd)
    return hd


# -- homomorphisms (exact) -----------------------------------------------------


def _atom_matches(atom: Atom, row: tuple, binding: dict) -> Optional[dict]:
    new = dict(binding)
    for term, value in zip(atom.args, row):
        if isinstance(term, Const):
            if term.value != value:
                return None
        else:
            bound = new.get(term.name)
            if bound is None:
                new[term.name] = value
            elif bound != value:
                return None
    return new


def _join_atoms(atoms, db: Database, binding: dict) -> list[dict]:
    if not atoms:
        return [binding]
    first, rest = atoms[0], atoms[1:]
    out = []
    for row in sorted(db.tuples(first.rel)):
        nxt = _atom_matches(first, row, binding)
        if nxt is not None:
            out.extend(_join_atoms(rest, db, nxt))
    return out


def cq_membership(query: ConjunctiveQuery, db: Database, answer: tuple) -> bool:
    """Exact check whether the tuple is an answer (head bound, then a
    homomorphism search over the atoms)."""
    if len(answer) != len(query.head):
        raise QueryError("answer arity does not match the query head")
    binding: dict = {}
    for v, value in zip(query.head, answer):
        if binding.get(v, value) != value:
            return False
        binding[v] = value

    def search(atoms, bound) -> bool:
        if not atoms:
            return True
        atom, rest = atoms[0], atoms[1:]
        for row in db.tuples(atom.rel):
            nxt = _atom_matches(atom, row, bound)
            if nxt is not None and search(rest, nxt):
                return True
        return False

    return search(list(query.atoms), binding)


def brute_cq_count(
    query: ConjunctiveQuery, db: Database, budget: int | None = 10_000_000
) -> tuple[int, frozenset]:
    """Exact answer set and count by homomorphism enumeration."""
    n_vars = len(query.variables())
    dom = len(db.active_domain())
    if budget is not None and dom > 0 and n_vars * math.log(dom) > math.log(budget):
        raise BudgetExceeded(
            f"{dom}^{n_vars} candidate assignments exceed the budget {budget}"
        )
    answers = set()
    for h in _join_atoms(list(query.atoms), db, {}):
        answers.add(tuple(h[v] for v in query.head))
    return len(answers), frozenset(answers)


# -- the reduction ----------------------------------------------------------------


def _render_value(v: str) -> str:
    return v.replace("\\", "\\\\").replace("|", "\\|").replace("=", "\\=")


@dataclass
class ReductionResult:
    automaton: TreeAutomaton
    n: int
    head: tuple[str, ...]
    label_assignments: dict[str, tuple[tuple[str, str], ...]]

    def decode_answer(self, tree: Tree) -> tuple:
        """Read the answer tuple back off an accepted tree's labels."""
        values: dict[str, str] = {}
        for _, node in tree.nodes():
            if node.label not in self.label_assignments:
                raise QueryError(f"unknown label {node.label!r} in answer tree")
            for var, value in self.label_assignments[node.label]:
                if values.get(var, value) != value:
                    raise QueryError(f"conflicting values for {var!r} in answer tree")
                values[var] = value
        try:
            return tuple(values[v] for v in self.head)
        except KeyError as e:
            raise QueryError(f"answer tree never assigns output variable {e}")


def reduce_cq_to_ta(
    query: ConjunctiveQuery,
    db: Database,
    hd: HypertreeDecomposition,
    max_width: Optional[int] = None,
) -> ReductionResult:
    """Tree automaton whose size-n slice is in bijection with the answers,
    where n is the node count of the completed decomposition."""
    width = validate_decomposition(query, hd)
    if max_width is not None and width > max_width:
        raise QueryError(f"decomposition width {width} exceeds the cap {max_width}")
    hd = complete_decomposition(query, hd)
    for node in hd.nodes.values():
        for i in node.xi:
            query_atom = query.atoms[i]
            if query_atom.rel not in db.relations:
                raise QueryError(
                    f"relation {query_atom.rel!r} used by the decomposition is "
                    "absent from the database"
                )
    out_vars = tuple(dict.fromkeys(query.head))
    node_states: dict[str, list[tuple]] = {}
    for nid in hd.order:
        node = hd.nodes[nid]
        atoms = [query.atoms[i] for i in node.xi]
        assignments = _join_atoms(atoms, db, {})
        rows = []
        seen = set()
        for g in assignments:
            frozen = tuple(sorted(g.items()))
            if frozen not in seen:
                seen.add(frozen)
                rows.append(frozen)
        node_states[nid] = sorted(rows)

    def state_name(nid: str, frozen: tuple) -> str:
        inner = ",".join(f"{v}={_render_value(a)}" for v, a in frozen)
        return f"{nid}|{inner}"

    def label_of(nid: str, frozen: tuple) -> tuple[str, tuple]:
        binding = dict(frozen)
        shown = tuple((v, binding[v]) for v in out_vars if v in hd.nodes[nid].chi and v in binding)
        inner = ",".join(f"{v}={_render_value(a)}" for v, a in shown)
        return f"{nid}[{inner}]", shown

    states: set[str] = set()
    alphabet: set[str] = set()
    label_assignments: dict[str, tuple] = {}
    transitions = []
    for nid in hd.order:
        node = hd.nodes[nid]
        for frozen in node_states[nid]:
            parent_state = state_name(nid, frozen)
            states.add(parent_state)
            symbol, shown = label_of(nid, frozen)
            alphabet.add(symbol)
            prior = label_assignments.get(symbol)
            if prior is None:
                label_assignments[symbol] = shown
            if not node.children:
                transitions.append((parent_state, symbol, ()))
                continue
            binding = dict(frozen)

            def extend(idx: int, bound: dict, chosen: tuple):
                if idx == len(node.children):
                    transitions.append((parent_state, symbol, chosen))
                    return
                child = node.children[idx]
                for child_frozen in node_states[child]:
                    merged = dict(bound)
                    ok = True
                    for v, a in child_frozen:
                        if merged.get(v, a) != a:
                            ok = False
                            break
                        merged[v] = a
                    if ok:
                        extend(idx + 1, merged, chosen + (state_name(child, child_frozen),))

            extend(0, binding, ())
    for _, symbol, kids in transitions:
        states.update(kids)
    initials = [state_name(hd.root, f) for f in node_states[hd.root]]
    automaton = merge_initial_states(states, alphabet, transitions, initials)
    return ReductionResult(automaton, len(hd), query.head, label_assignments)


class CqSampler:
    """The slice handle of a query: the reduction plus one LanguageSampler
    over its automaton, which both counts the answers and draws them
    uniformly (tree sampler plus label decoding)."""

    def __init__(self, query, db, hd, config: Config, max_width=None):
        if hd is None:
            hd = gyo_join_tree(query)
        self.query = query
        self.reduction = reduce_cq_to_ta(query, db, hd, max_width)
        self.handle = LanguageSampler(self.reduction.automaton, self.reduction.n, config)
        self.inner = FpausSampler(self.handle)
        # Answers by drawn tree; a repeat draw usually returns the same
        # object, so most lookups hit by identity.
        self._answers: dict[Tree, tuple] = {}

    def count(self) -> CountResult:
        result = self.handle.count()
        result.certificate["mode"] = "cq-count"
        result.certificate["query"] = self.query.name
        result.certificate["decomposition_nodes"] = self.reduction.n
        return result

    def draw(self):
        t = self.inner.draw()
        if not isinstance(t, Tree):  # BOT; tested without calling Tree.__eq__
            return BOT
        answer = self._answers.get(t)
        if answer is None:
            answer = self._answers[t] = self.reduction.decode_answer(t)
        return answer


def sample_cq(query, db, hd, config: Config, max_width=None) -> CqSampler:
    return CqSampler(query, db, hd, config, max_width)


def count_cq(
    query: ConjunctiveQuery,
    db: Database,
    hd: Optional[HypertreeDecomposition],
    config: Config,
    max_width: Optional[int] = None,
) -> CountResult:
    """Randomized (1 +- epsilon) estimate of the number of answers."""
    return CqSampler(query, db, hd, config, max_width).count()


def count_ucq(
    queries: list[ConjunctiveQuery],
    db: Database,
    hds: Optional[list[Optional[HypertreeDecomposition]]],
    config: Config,
    max_width: Optional[int] = None,
) -> CountResult:
    """Union cardinality by Karp-Luby estimation: one slice handle per
    disjunct supplies both its answer-count estimate and its uniform answer
    sampler; disjuncts are picked in proportion to their estimates and a
    drawn answer counts as a hit when the picked disjunct is the first one
    containing it, which is looked up once per distinct answer.  The
    certificate's `warnings` sum the disjunct handles' counters."""
    if not queries:
        raise QueryError("a union needs at least one disjunct")
    arities = {len(q.head) for q in queries}
    if len(arities) != 1:
        raise QueryError(f"disjunct head arities differ: {sorted(arities)}")
    if hds is None:
        hds = [None] * len(queries)
    elif len(hds) != len(queries):
        raise QueryError(
            f"{len(hds)} decompositions given for {len(queries)} disjuncts"
        )
    samplers = [CqSampler(q, db, hd, config, max_width) for q, hd in zip(queries, hds)]
    estimates = [s.handle.estimate() for s in samplers]
    total = sum(estimates)

    def union_certificate(**extra) -> dict:
        stats = sum((s.handle.stats for s in samplers), RunStats())
        return certificate(config, "ucq-count", stats, disjuncts=len(queries), **extra)

    if total <= 0.0:
        return CountResult(0.0, union_certificate())
    m = len(queries)
    trials = math.ceil(8.0 * m * m * math.log(4.0 / config.delta) / config.epsilon**2)
    rand = Stream.from_seed(config.seed).child("karp-luby").rand()
    hits = 0
    done = 0
    attempts = 0
    max_attempts = 20 * trials + 100
    # The first disjunct containing an answer depends on the answer alone.
    first_of: dict[tuple, int] = {}
    while done < trials and attempts < max_attempts:
        attempts += 1
        i = rand.weighted_index(estimates)
        a = samplers[i].draw()
        if a == BOT:
            continue
        done += 1
        first = first_of.get(a)
        if first is None:
            first = first_of[a] = next(
                j for j in range(m)
                if estimates[j] > 0.0 and cq_membership(queries[j], db, a)
            )
        if first == i:
            hits += 1
    if done < trials:
        raise EngineFail("union sampling starved; disjunct samplers keep failing")
    return CountResult(
        total * hits / trials,
        union_certificate(
            trials=trials, draw_attempts=attempts, distinct_answers=len(first_of)
        ),
    )

"""Seeded random generators, and exhaustive views of library objects, shared
by the test modules."""

from __future__ import annotations

import json
import random
from itertools import product

from typing import Iterator, Optional

from taru.automata import Transition, TreeAutomaton
from taru.cq import Atom, ConjunctiveQuery, Database, QueryError, ReductionResult, Var
from taru.applications import DnnfCircuit, Ecsp, Gate, NestedWord, NestedWordAutomaton, _units
from taru.oracles import brute_slice
from taru.partition import AMP, PartitionNFA, main_path
from taru.sampling import immediate_extensions, min_hole
from taru.snfa import ExplicitLabel, NfaCounter, NfaTransition, SuccinctNFA, prune_to_paths
from taru.trees import Tree, hole, leaf
from taru.unrolling import UnrolledAutomaton


def random_ktree(rng: random.Random, alphabet, max_arity: int, size: int) -> Tree:
    if size == 1:
        return leaf(rng.choice(alphabet))
    arity = rng.randint(1, min(max_arity, size - 1))
    cuts = sorted(rng.sample(range(1, size - 1), arity - 1)) if arity > 1 else []
    parts = []
    prev = 0
    for c in cuts + [size - 1]:
        parts.append(c - prev)
        prev = c
    kids = tuple(random_ktree(rng, alphabet, max_arity, p) for p in parts)
    return Tree(rng.choice(alphabet), kids)


def random_binary_automaton(rng: random.Random, n_states=3, n_symbols=2,
                            n_internal=4, n_leaf=2) -> TreeAutomaton:
    states = [f"s{i}" for i in range(n_states)]
    symbols = [chr(ord("a") + i) for i in range(n_symbols)]
    transitions = set()
    for _ in range(n_internal):
        transitions.add(
            (rng.choice(states), rng.choice(symbols),
             (rng.choice(states), rng.choice(states)))
        )
    for _ in range(n_leaf):
        transitions.add((rng.choice(states), rng.choice(symbols), ()))
    return TreeAutomaton(states, symbols, sorted(transitions), states[0], arity=2)


def random_deterministic_automaton(rng: random.Random, n_states=3, n_symbols=2,
                                   density=0.4) -> TreeAutomaton:
    """Bottom-up deterministic: at most one source state per (symbol, child
    pair), chosen at random."""
    states = [f"s{i}" for i in range(n_states)]
    symbols = [chr(ord("a") + i) for i in range(n_symbols)]
    transitions = []
    for a in symbols:
        for q, r in product(states, repeat=2):
            if rng.random() < density:
                transitions.append((rng.choice(states), a, (q, r)))
        if rng.random() < 0.8:
            transitions.append((rng.choice(states), a, ()))
    return TreeAutomaton(states, symbols, transitions, rng.choice(states), arity=2)


def random_kary_automaton(rng: random.Random, arity: int, n_states=3,
                          n_symbols=2, n_internal=4, n_leaf=2) -> TreeAutomaton:
    states = [f"s{i}" for i in range(n_states)]
    symbols = [chr(ord("a") + i) for i in range(n_symbols)]
    transitions = set()
    for _ in range(n_internal):
        k = rng.randint(1, arity)
        transitions.add(
            (rng.choice(states), rng.choice(symbols),
             tuple(rng.choice(states) for _ in range(k)))
        )
    for _ in range(n_leaf):
        transitions.add((rng.choice(states), rng.choice(symbols), ()))
    return TreeAutomaton(states, symbols, sorted(transitions), states[0])


def depth_b_automaton(k: int) -> TreeAutomaton:
    """Binary trees over {a, b} with a b node at depth exactly k: state A
    takes any tree, p0 a tree with root b, and pj a tree whose left or right
    child is taken by p(j-1)."""
    transitions = []
    for x in "ab":
        transitions += [("A", x, ("A", "A")), ("A", x, ())]
        for j in range(1, k + 1):
            transitions += [(f"p{j}", x, (f"p{j - 1}", "A")), (f"p{j}", x, ("A", f"p{j - 1}"))]
    transitions += [("p0", "b", ("A", "A")), ("p0", "b", ())]
    states = {"A"} | {f"p{j}" for j in range(k + 1)}
    return TreeAutomaton(states, "ab", transitions, f"p{k}")


def random_partial_tree(rng: random.Random, alphabet, full_size: int,
                        steps: int) -> Tree:
    """Grow a partial tree with the smallest-hole-first discipline for a few
    random steps."""
    t = hole(full_size)
    for _ in range(steps):
        if t.is_complete():
            break
        u = min_hole(t)
        options = immediate_extensions(t, u, alphabet, alphabet)
        if not options:
            break
        t = rng.choice(options)
    return t


def random_explicit_nfa(rng: random.Random, n_states=5, max_label=8,
                        universe_size=10, n_transitions=8) -> SuccinctNFA:
    states = [f"x{i}" for i in range(n_states)]
    universe = [chr(ord("a") + i) for i in range(universe_size)]
    labels = {}
    transitions = []
    for i in range(n_transitions):
        src = rng.choice(states)
        dst = rng.choice(states)
        size = rng.randint(1, max_label)
        elems = tuple(sorted(rng.sample(universe, size)))
        key = f"L{i}"
        labels[key] = ExplicitLabel(key, elems)
        transitions.append((src, key, dst))
    return SuccinctNFA(states, transitions, states[0], states[-1], labels)


def random_cq_db(rng: random.Random, max_atoms=3, domain=4):
    dom = [f"d{i}" for i in range(domain)]
    var_pool = ["x", "y", "z", "w"]
    n_atoms = rng.randint(1, max_atoms)
    atoms = []
    relations: dict[str, set] = {}
    for i in range(n_atoms):
        arity = rng.randint(1, 2)
        rel = f"R{i}"
        args = tuple(Var(rng.choice(var_pool)) for _ in range(arity))
        atoms.append(Atom(rel, args))
        rows = set()
        for _ in range(rng.randint(0, 2 * domain)):
            rows.add(tuple(rng.choice(dom) for _ in range(arity)))
        relations[rel] = rows
    body_vars = sorted({v for a in atoms for v in a.variables()})
    head_size = rng.randint(1, len(body_vars))
    head = tuple(rng.sample(body_vars, head_size))
    query = ConjunctiveQuery("Q", head, tuple(atoms))
    return query, Database(relations)


def random_structured_circuit(rng: random.Random, n_vars: int):
    """A random v-tree over the variables plus a circuit built downward along
    it, so structuredness holds by construction."""
    names = [f"v{i}" for i in range(n_vars)]

    def build_vtree(vs):
        if len(vs) == 1:
            return leaf(vs[0])
        cut = rng.randint(1, len(vs) - 1)
        return Tree(".", (build_vtree(vs[:cut]), build_vtree(vs[cut:])))

    vtree = build_vtree(names)
    gates = []
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def gate_for(node, depth) -> str:
        # A gate whose variables sit inside this v-tree node.
        if depth <= 4 and rng.random() < 0.35:
            gid = fresh("o")
            gates.append(Gate(gid, "or", inputs=(gate_for(node, depth + 1),
                                                 gate_for(node, depth + 1))))
            return gid
        if node.is_leaf():
            gid = fresh("l")
            gates.append(Gate(gid, "lit", var=node.label, positive=rng.random() < 0.7))
            return gid
        gid = fresh("g")
        gates.append(
            Gate(gid, "and",
                 inputs=(gate_for(node.children[0], depth + 1),
                         gate_for(node.children[1], depth + 1)))
        )
        return gid

    out = gate_for(vtree, 0)
    return DnnfCircuit(gates, out), vtree


def random_nwa(rng: random.Random, n_states=3, n_symbols=2, n_hier=2,
               n_call=2, n_internal=3, n_return=2) -> NestedWordAutomaton:
    states = [f"q{i}" for i in range(n_states)]
    symbols = [chr(ord("a") + i) for i in range(n_symbols)]
    hier = [f"h{i}" for i in range(n_hier)]
    calls = set()
    for _ in range(n_call):
        calls.add((rng.choice(states), rng.choice(symbols), rng.choice(states),
                   rng.choice(hier)))
    internals = set()
    for _ in range(n_internal):
        internals.add((rng.choice(states), rng.choice(symbols), rng.choice(states)))
    returns = set()
    for _ in range(n_return):
        returns.add((rng.choice(states), rng.choice(hier), rng.choice(symbols),
                     rng.choice(states)))
    return NestedWordAutomaton(
        frozenset(states), frozenset(symbols),
        frozenset({states[0]}), frozenset({rng.choice(states)}),
        frozenset(hier), tuple(sorted(calls)), tuple(sorted(internals)),
        tuple(sorted(returns)),
    )


# -- exhaustive views ------------------------------------------------------------


def transitions_at(u: UnrolledAutomaton, state: str, level: int):
    """Flat view of the leveled transitions out of (state, level):
    (symbol, left_size, left_state, right_state)."""
    for (symbol, j), pairs in u.groups(state, level):
        for q, r in pairs:
            yield symbol, j, q, r


def as_tree_automaton(u: UnrolledAutomaton) -> TreeAutomaton:
    """The materialized leveled automaton, states named 's@i'; its size grows
    with n^2 times the base transition count."""
    base = u.base
    states = {f"{s}@{i}" for s in base.states for i in range(1, u.n + 1)}
    transitions = []
    for s in base.states:
        for a in base.leaf_symbols.get(s, ()):
            transitions.append(Transition(f"{s}@1", a, ()))
        for i in range(2, u.n + 1):
            for a, j, q, r in transitions_at(u, s, i):
                transitions.append(
                    Transition(f"{s}@{i}", a, (f"{q}@{j}", f"{r}@{i - 1 - j}"))
                )
    return TreeAutomaton(states, base.alphabet, transitions, f"{base.initial}@{u.n}", arity=2)


def nonempty_levels(u: UnrolledAutomaton) -> dict[tuple[str, int], bool]:
    """Boolean reachability table: does (state, level) derive any tree?"""
    table: dict[tuple[str, int], bool] = {}
    for s in u.base.states:
        table[(s, 1)] = u.leaf_count(s) > 0
    for i in range(2, u.n + 1):
        for s in u.base.states:
            table[(s, i)] = any(
                table.get((q, j)) and table.get((r, i - 1 - j))
                for _, j, q, r in transitions_at(u, s, i)
            )
    return table


def with_initial(automaton: TreeAutomaton, state: str) -> TreeAutomaton:
    """The same automaton, started from another state."""
    return TreeAutomaton(automaton.states, automaton.alphabet, automaton.transitions,
                         state, automaton.arity)


def accepting_run(automaton: TreeAutomaton, tree: Tree) -> Optional[dict]:
    """A run of the automaton on the tree, mapping node addresses to states,
    or None when the tree is rejected.  Built in preorder on an explicit
    stack, so trees of any depth work."""
    if not automaton.accepts(tree):
        return None
    run: dict[tuple[int, ...], str] = {}
    stack = [((), tree, automaton.initial)]
    while stack:
        addr, node, state = stack.pop()
        run[addr] = state
        child_sets = [automaton.derive_states(c) for c in node.children]
        for t in automaton.by_symbol.get((node.label, len(node.children)), ()):
            if t.src != state:
                continue
            if all(t.children[i] in child_sets[i] for i in range(len(child_sets))):
                for i in range(len(node.children), 0, -1):
                    stack.append((addr + (i,), node.children[i - 1], t.children[i - 1]))
                break
        else:
            raise AssertionError("derive_states admitted a state with no transition")
    return run


def count_runs(automaton: TreeAutomaton, tree: Tree, state: Optional[str] = None) -> int:
    """Number of distinct runs deriving the tree from the given state (the
    initial one by default)."""
    memo: dict[tuple[Tree, str], int] = {}

    def go(node: Tree, s: str) -> int:
        key = (node, s)
        if key in memo:
            return memo[key]
        total = 0
        for t in automaton.by_symbol.get((node.label, len(node.children)), ()):
            if t.src != s:
                continue
            prod = 1
            for i, c in enumerate(node.children):
                prod *= go(c, t.children[i])
                if prod == 0:
                    break
            total += prod
        memo[key] = total
        return total

    return go(tree, automaton.initial if state is None else state)


def all_shapes(n: int, arities: tuple[int, ...]) -> list[Tree]:
    """All unlabeled ordered tree shapes with n nodes and node arities from
    the given set (0 is always allowed).  Labels are "?" placeholders."""
    memo: dict[int, list[Tree]] = {}

    def seqs(total: int, parts: int) -> Iterator[tuple[Tree, ...]]:
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(1, total - parts + 2):
            for t in build(first):
                for rest in seqs(total - first, parts - 1):
                    yield (t,) + rest

    def build(m: int) -> list[Tree]:
        if m in memo:
            return memo[m]
        out = []
        if m == 1:
            out.append(Tree("?", ()))
        for k in arities:
            if k >= 1 and m - 1 >= k:
                for kids in seqs(m - 1, k):
                    out.append(Tree("?", kids))
        memo[m] = out
        return out

    return build(n)


def answer_tree(result: ReductionResult, answer: tuple) -> Optional[Tree]:
    """The unique accepted tree for an answer, or None if it is not one."""
    for t in brute_slice(result.automaton, result.n, budget=None).trees:
        if result.decode_answer(t) == tuple(answer):
            return t
    return None


# -- reference partition-NFA builder -----------------------------------------------


def _reference_up_states(unrolled: UnrolledAutomaton, t: Tree, memo: dict) -> frozenset:
    """States from which the partial subtree has a run, holes matching any
    state."""
    hit = memo.get(t)
    if hit is not None:
        return hit
    base = unrolled.base
    if t.is_hole():
        result = frozenset(base.states)
    elif t.is_leaf():
        result = frozenset(s for s in base.states if t.label in base.leaf_symbols.get(s, ()))
    else:
        kids = [_reference_up_states(unrolled, c, memo) for c in t.children]
        result = frozenset(
            tr.src
            for tr in base.by_symbol.get((t.label, len(kids)), ())
            if all(tr.children[i] in kids[i] for i in range(len(kids)))
        )
    memo[t] = result
    return result


def _reference_pair_reach(unrolled, t, start, target, up_memo) -> frozenset:
    """Pairs (c, q): a run on the subtree at `start`, excluding everything
    strictly below `target`, can carry state c at `start` and q at `target`."""
    base = unrolled.base
    if start == target:
        return frozenset((q, q) for q in base.states)
    node = t.node(start)
    step = target[len(start)]
    below = _reference_pair_reach(unrolled, t, start + (step,), target, up_memo)
    by_child_state: dict[str, set] = {}
    for c_state, q in below:
        by_child_state.setdefault(c_state, set()).add(q)
    others = [
        (idx - 1, _reference_up_states(unrolled, node.children[idx - 1], up_memo))
        for idx in range(1, len(node.children) + 1)
        if idx != step
    ]
    found = set()
    for tr in base.by_symbol.get((node.label, len(node.children)), ()):
        if any(tr.children[i] not in up for i, up in others):
            continue
        for q in by_child_state.get(tr.children[step - 1], ()):
            found.add((tr.src, q))
    return frozenset(found)


def reference_partition_nfa(unrolled: UnrolledAutomaton, t: Tree, state: str,
                            label_factory) -> PartitionNFA:
    """The layout-then-prune partition-NFA builder: every base state at every
    main-path level, transitions out of all of them, then prune_to_paths.
    The library's forward builder must return the same NFA."""
    base = unrolled.base
    size = t.full_size
    labels = {"&": ExplicitLabel("&", (AMP,))}
    if t.is_complete():
        transitions = []
        if t.size == size and state in base.derive_states(t):
            transitions.append(NfaTransition("s0", "&", "se"))
        nfa = SuccinctNFA(["s0", "se"], transitions, "s0", "se", labels, {"s0": 0, "se": 1})
        return PartitionNFA(prune_to_paths(nfa))
    path = main_path(t)
    k = path.k
    up_memo: dict = {}

    def label_key(hole_state, hole_size):
        key = f"T:{hole_state}:{hole_size}"
        if key not in labels:
            labels[key] = label_factory(hole_state, hole_size)
        return key

    states = ["s0"] + [f"{q}@{lvl}" for lvl in range(1, k + 1) for q in sorted(base.states)]
    states.append("se")
    levels = {"s0": 0, "se": k + 1}
    for lvl in range(1, k + 1):
        for q in base.states:
            levels[f"{q}@{lvl}"] = lvl
    transitions = []
    for c, q in sorted(_reference_pair_reach(unrolled, t, (), path.vertices[0], up_memo)):
        if c == state:
            transitions.append(NfaTransition("s0", "&", f"{q}@1"))
    for ell in range(k - 1):
        v = path.vertices[ell]
        hole_step = path.holes[ell][len(v)]
        path_step = 3 - hole_step
        seg = _reference_pair_reach(unrolled, t, v + (path_step,), path.vertices[ell + 1],
                                    up_memo)
        by_child: dict[str, set] = {}
        for c, q2 in seg:
            by_child.setdefault(c, set()).add(q2)
        for tr in base.by_symbol.get((t.node(v).label, 2), ()):
            r = tr.children[hole_step - 1]
            for q2 in sorted(by_child.get(tr.children[path_step - 1], ())):
                transitions.append(NfaTransition(
                    f"{tr.src}@{ell + 1}", label_key(r, path.hole_sizes[ell]), f"{q2}@{ell + 2}"
                ))
    last_size = path.hole_sizes[k - 1]
    if path.terminal_is_hole:
        for q in sorted(base.states):
            transitions.append(NfaTransition(f"{q}@{k}", label_key(q, last_size), "se"))
    else:
        v = path.vertices[k - 1]
        node = t.node(v)
        hole_step = path.holes[k - 1][len(v)]
        other_up = _reference_up_states(unrolled, node.children[2 - hole_step], up_memo)
        for tr in base.by_symbol.get((node.label, 2), ()):
            if tr.children[2 - hole_step] in other_up:
                transitions.append(NfaTransition(
                    f"{tr.src}@{k}", label_key(tr.children[hole_step - 1], last_size), "se"
                ))
    nfa = SuccinctNFA(states, transitions, "s0", "se", labels, levels)
    return PartitionNFA(prune_to_paths(nfa))


def cq_to_ecsp(query: ConjunctiveQuery, db: Database) -> Ecsp:
    """Reverse of `applications.ecsp_to_cq`; the query must be constant-free."""
    constraints = []
    for atom in query.atoms:
        scope = []
        for term in atom.args:
            if not isinstance(term, Var):
                raise QueryError("reverse translation needs a constant-free query")
            scope.append(term.name)
        constraints.append((tuple(scope), db.tuples(atom.rel)))
    domain = tuple(sorted(db.active_domain()))
    return Ecsp(
        tuple(dict.fromkeys(query.head)),
        query.variables(),
        domain,
        tuple(constraints),
    )


def frontier_rhos(counter: NfaCounter) -> list:
    """The rejection-rate estimates of a counter's ambiguous frontiers (more
    than one live transition), in the order the frontiers were first met."""
    return [info.rho for info in counter._frontier_memo.values() if len(info.trans) > 1]


# -- writers for the readers' formats ------------------------------------------


def tree_to_json(t: Tree) -> dict:
    """The JSON object form tree_from_json reads.  Iterative, so any depth
    works."""
    def shell(t: Tree) -> dict:
        if t.is_hole():
            return {"hole": t.label}
        return {"label": t.label, "children": []}

    root = shell(t)
    stack = [(t, root)]
    while stack:
        t, obj = stack.pop()
        for c in t.children:
            child = shell(c)
            obj["children"].append(child)
            stack.append((c, child))
    return root


def automaton_to_json(a: TreeAutomaton) -> str:
    """The JSON text automaton_from_json reads."""
    obj = {
        "arity": a.arity,
        "alphabet": sorted(a.alphabet),
        "states": sorted(a.states),
        "initial": a.initial,
        "transitions": [
            {"from": t.src, "symbol": t.symbol, "children": list(t.children)}
            for t in a.transitions
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True)


def encode_nested_word(word: NestedWord) -> Tree:
    """The tree nwa_to_bta's automaton accepts for a nested word: a cons
    spine of units ended by '#', where an internal position is a letter leaf
    and a call/return pair is a node '<a|b>' holding the encoded inner
    segment and a '#' pad.  Length n maps to size 2n+1."""
    def enc_seq(units) -> Tree:
        if not units:
            return leaf("#")
        head, rest = units[0], units[1:]
        return Tree(".", (enc_unit(head), enc_seq(rest)))

    def enc_unit(u) -> Tree:
        if isinstance(u, str):
            return leaf(u)
        a, inner, b = u
        return Tree(f"<{a}|{b}>", (enc_seq(inner), leaf("#")))

    return enc_seq(_units(word))

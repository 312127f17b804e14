import dataclasses
import random

import pytest

from taru.automata import TreeAutomaton
from taru.config import Config
from taru.cq import (
    Atom,
    BOT,
    ConjunctiveQuery,
    Const,
    CqSampler,
    Database,
    DecompositionInvalid,
    DecompositionNode,
    HypertreeDecomposition,
    NotAcyclic,
    QueryError,
    ReductionResult,
    Var,
    brute_cq_count,
    complete_decomposition,
    count_cq,
    count_ucq,
    cq_membership,
    gyo_join_tree,
    reduce_cq_to_ta,
    sample_cq,
    validate_decomposition,
)
from taru.engine import Engine
from taru.formats import database_from_text, queries_from_text
from taru.oracles import brute_slice

from genutil import answer_tree, random_cq_db


def triangle():
    return ConjunctiveQuery(
        "T",
        ("x", "y", "z"),
        (
            Atom("R", (Var("x"), Var("y"))),
            Atom("S", (Var("y"), Var("z"))),
            Atom("T", (Var("z"), Var("x"))),
        ),
    )


def triangle_decomposition():
    return HypertreeDecomposition(
        [
            DecompositionNode("p0", frozenset({"x", "y", "z"}), (0, 1), ("p1",)),
            DecompositionNode("p1", frozenset({"x", "z"}), (2,), ()),
        ],
        "p0",
    )


def test_triangle_width_two():
    assert validate_decomposition(triangle(), triangle_decomposition()) == 2


def test_triangle_not_acyclic():
    with pytest.raises(NotAcyclic):
        gyo_join_tree(triangle())


def test_q1_join_tree_width_one(q1_d1):
    q1, _ = q1_d1
    hd = gyo_join_tree(q1)
    assert validate_decomposition(q1, hd) == 1
    assert len(hd) == 5


def test_single_atom_join_tree():
    q = ConjunctiveQuery("Q", ("x",), (Atom("R", (Var("x"),)),))
    hd = gyo_join_tree(q)
    assert len(hd) == 1
    assert validate_decomposition(q, hd) == 1


def test_connectedness_violation_names_variable():
    q = ConjunctiveQuery(
        "Q", ("x",),
        (Atom("R", (Var("x"),)), Atom("S", (Var("x"),))),
    )
    bad = HypertreeDecomposition(
        [
            DecompositionNode("a", frozenset({"x"}), (0,), ("b",)),
            DecompositionNode("b", frozenset(), (), ("c",)),
            DecompositionNode("c", frozenset({"x"}), (1,), ()),
        ],
        "a",
    )
    with pytest.raises(DecompositionInvalid) as err:
        validate_decomposition(q, bad)
    assert err.value.violation.condition == "connectedness"
    assert "'x'" in err.value.violation.detail


def test_complete_decomposition_adds_missing_atom():
    q = ConjunctiveQuery(
        "Q", ("x",),
        (Atom("R", (Var("x"), Var("y"))), Atom("S", (Var("x"),))),
    )
    hd = HypertreeDecomposition(
        [DecompositionNode("a", frozenset({"x", "y"}), (0,), ())], "a"
    )
    done = complete_decomposition(q, hd)
    assert len(done) == 2
    again = complete_decomposition(q, done)
    assert len(again) == len(done)
    housed = set()
    for node in done.nodes.values():
        housed.update(node.xi)
    assert housed == {0, 1}


def test_q1_reduction_parsimony_and_decoding(q1_d1):
    q1, d1 = q1_d1
    red = reduce_cq_to_ta(q1, d1, gyo_join_tree(q1))
    assert red.n == 5
    slice_trees = brute_slice(red.automaton, red.n, budget=None).trees
    count, answers = brute_cq_count(q1, d1)
    assert count == 1 and answers == {("b",)}
    assert len(slice_trees) == 1
    assert red.decode_answer(slice_trees[0]) == ("b",)


def test_reduction_empty_relation():
    q = ConjunctiveQuery("Q", ("x",), (Atom("R", (Var("x"),)),))
    db = Database({"R": set()})
    red = reduce_cq_to_ta(q, db, gyo_join_tree(q))
    assert len(brute_slice(red.automaton, red.n, budget=None)) == 0


def test_reduction_missing_relation_is_an_error():
    q = ConjunctiveQuery("Q", ("x",), (Atom("R", (Var("x"),)),))
    with pytest.raises(QueryError):
        reduce_cq_to_ta(q, Database({}), gyo_join_tree(q))


def test_reduction_constants_and_repeats():
    q = ConjunctiveQuery(
        "Q", ("x",),
        (Atom("R", (Var("x"), Const("k"), Var("x"))),),
    )
    db = Database({"R": {("1", "k", "1"), ("2", "k", "3"), ("4", "j", "4")}})
    count, answers = brute_cq_count(q, db)
    assert answers == {("1",)}
    red = reduce_cq_to_ta(q, db, gyo_join_tree(q))
    trees = brute_slice(red.automaton, red.n, budget=None).trees
    assert {red.decode_answer(t) for t in trees} == answers


def _decomposition_for(rng, query):
    try:
        return gyo_join_tree(query)
    except NotAcyclic:
        # One bag holding everything is always a valid decomposition.
        all_vars = frozenset(v for a in query.atoms for v in a.variables())
        return HypertreeDecomposition(
            [DecompositionNode("all", all_vars, tuple(range(len(query.atoms))), ())],
            "all",
        )


def test_reduction_parsimony_random():
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        query, db = random_cq_db(rng)
        hd = _decomposition_for(rng, query)
        red = reduce_cq_to_ta(query, db, hd)
        count, answers = brute_cq_count(query, db)
        trees = brute_slice(red.automaton, red.n, budget=None).trees
        assert len(trees) == count
        decoded = [red.decode_answer(t) for t in trees]
        assert len(set(decoded)) == len(decoded), "decoding is not injective"
        assert set(decoded) == answers
        checked += 1


def test_answer_tree_round_trip(q1_d1):
    q1, d1 = q1_d1
    red = reduce_cq_to_ta(q1, d1, gyo_join_tree(q1))
    t = answer_tree(red, ("b",))
    assert t is not None
    assert red.decode_answer(t) == ("b",)


def test_count_cq_q1(q1_d1):
    q1, d1 = q1_d1
    res = count_cq(q1, d1, None, Config(seed=2))
    assert res.estimate == pytest.approx(1.0, rel=0.2)


def test_count_cq_statistical():
    rng = random.Random(31)
    tested = hits = 0
    while tested < 12:
        query, db = random_cq_db(rng)
        hd = _decomposition_for(rng, query)
        truth, _ = brute_cq_count(query, db)
        if truth == 0:
            assert count_cq(query, db, hd, Config(seed=tested)).estimate == 0.0
            continue
        est = count_cq(query, db, hd, Config(seed=tested)).estimate
        if abs(est - truth) <= 0.2 * truth:
            hits += 1
        tested += 1
    assert hits >= 10


def test_sample_cq_q1(q1_d1):
    q1, d1 = q1_d1
    sampler = sample_cq(q1, d1, None, Config(seed=5))
    for _ in range(10):
        out = sampler.draw()
        if out != BOT:
            assert out == ("b",)


def test_cq_membership_matches_brute():
    rng = random.Random(37)
    for trial in range(40):
        query, db = random_cq_db(rng)
        _, answers = brute_cq_count(query, db)
        dom = sorted(db.active_domain())
        for a in list(answers)[:5]:
            assert cq_membership(query, db, a)
        if dom:
            fake = tuple(dom[0] for _ in query.head)
            assert cq_membership(query, db, fake) == (fake in answers)


def test_width_cap_enforced(q1_d1):
    q1, d1 = q1_d1
    with pytest.raises(QueryError):
        reduce_cq_to_ta(q1, d1, gyo_join_tree(q1), max_width=0)


# -- unions ---------------------------------------------------------------------


def _pair_queries():
    qa = ConjunctiveQuery("Q", ("x",), (Atom("A", (Var("x"),)),))
    qb = ConjunctiveQuery("Q", ("x",), (Atom("B", (Var("x"),)),))
    db = Database({"A": {("1",), ("2",)}, "B": {("3",), ("4",), ("5",)}})
    return qa, qb, db


def test_ucq_single_disjunct_matches_cq(q1_d1, monkeypatch):
    """Also: the disjunct's count and its sampler come from one engine
    build."""
    builds = []
    build = Engine.build

    def counted_build(engine):
        builds.append(engine)
        return build(engine)

    monkeypatch.setattr(Engine, "build", counted_build)
    q1, d1 = q1_d1
    res = count_ucq([q1], d1, None, Config(seed=1))
    assert res.estimate == pytest.approx(1.0, rel=0.25)
    assert len(builds) == 1


def test_ucq_disjoint_union():
    qa, qb, db = _pair_queries()
    res = count_ucq([qa, qb], db, None, Config(seed=2))
    assert res.estimate == pytest.approx(5.0, rel=0.2)


def test_ucq_duplicate_disjunct_no_double_count():
    qa, _, db = _pair_queries()
    res = count_ucq([qa, qa], db, None, Config(seed=3))
    assert res.estimate == pytest.approx(2.0, rel=0.2)


def test_ucq_overlapping_disjuncts():
    qa = ConjunctiveQuery("Q", ("x",), (Atom("A", (Var("x"),)),))
    qb = ConjunctiveQuery("Q", ("x",), (Atom("B", (Var("x"),)),))
    db = Database({"A": {("1",), ("2",), ("3",)}, "B": {("3",), ("4",)}})
    res = count_ucq([qa, qb], db, None, Config(seed=4))
    assert res.estimate == pytest.approx(4.0, rel=0.2)


def test_ucq_checks_each_drawn_answer_once(monkeypatch):
    """cq_membership runs at most once per disjunct and distinct answer, and
    the estimate is the one recorded when every trial ran its checks."""
    checked = []

    def counted_membership(query, db, answer):
        checked.append(answer)
        return cq_membership(query, db, answer)

    monkeypatch.setattr("taru.cq.cq_membership", counted_membership)
    qa = ConjunctiveQuery("Q", ("x",), (Atom("A", (Var("x"),)),))
    qb = ConjunctiveQuery("Q", ("x",), (Atom("B", (Var("x"),)),))
    db = Database({"A": {("1",), ("2",), ("3",)}, "B": {("3",), ("4",)}})
    res = count_ucq([qa, qb], db, None, Config(seed=4))
    assert res.certificate["trials"] == 2952
    assert set(checked) == {("1",), ("2",), ("3",), ("4",)}
    assert len(checked) <= 2 * len(set(checked))
    assert res.estimate == 4.0379403794037945
    assert res.certificate["draw_attempts"] == 2952  # no draw came back bottom
    assert res.certificate["distinct_answers"] == 4


def test_cq_handle_checks_and_decodes_each_distinct_tree_once(monkeypatch):
    """Membership and answer decoding run once per distinct drawn tree; the
    reduction is parsimonious, so once per distinct answer."""
    calls = {"accepts": 0, "decode_answer": 0}
    accepts, decode_answer = TreeAutomaton.accepts, ReductionResult.decode_answer

    def counted_accepts(self, tree):
        calls["accepts"] += 1
        return accepts(self, tree)

    def counted_decode(self, tree):
        calls["decode_answer"] += 1
        return decode_answer(self, tree)

    monkeypatch.setattr(TreeAutomaton, "accepts", counted_accepts)
    monkeypatch.setattr(ReductionResult, "decode_answer", counted_decode)
    q = ConjunctiveQuery("Q", ("x", "y"), (Atom("A", (Var("x"),)), Atom("B", (Var("y"),))))
    db = Database({"A": {("1",), ("2",), ("3",)}, "B": {("3",), ("4",)}})
    sampler = sample_cq(q, db, None, Config(seed=3))
    answers = [a for a in (sampler.draw() for _ in range(80)) if a != BOT]
    distinct = set(answers)
    assert len(answers) > len(distinct) > 1
    assert distinct <= {(x, y) for x in "123" for y in "34"}
    assert calls == {"accepts": len(distinct), "decode_answer": len(distinct)}


def test_ucq_arity_mismatch():
    qa = ConjunctiveQuery("Q", ("x",), (Atom("A", (Var("x"),)),))
    qc = ConjunctiveQuery("Q", ("x", "y"), (Atom("C", (Var("x"), Var("y"))),))
    with pytest.raises(QueryError):
        count_ucq([qa, qc], Database({"A": set(), "C": set()}), None, Config())


def _edge_union():
    """Q(x,y) :- S(x), E(x,y) and Q(x,y) :- T(x), E(x,y): two answers, one
    per disjunct."""
    queries = queries_from_text("Q(x,y) :- S(x), E(x,y).\nQ(x,y) :- T(x), E(x,y).\n")
    db = database_from_text("E(a,b).\nE(c,d).\nS(a).\nT(c).\n")
    return queries, db


def test_ucq_rejects_a_decomposition_list_of_the_wrong_length():
    """zip() used to drop the second disjunct, counting 1.0 for 2 answers."""
    queries, db = _edge_union()
    assert count_ucq(queries, db, None, Config(seed=1)).estimate == 2.0
    with pytest.raises(QueryError, match="1 decompositions given for 2 disjuncts"):
        count_ucq(queries, db, [None], Config(seed=1))
    with pytest.raises(QueryError):
        count_ucq(queries, db, [None, None, None], Config(seed=1))


def test_union_certificate_sums_its_disjuncts_counters(monkeypatch):
    made = []
    init = CqSampler.__init__

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(CqSampler, "__init__", recorded_init)
    queries, db = _edge_union()
    res = count_ucq(queries, db, None, Config(seed=1))
    assert len(made) == 2
    summed = made[0].handle.stats + made[1].handle.stats
    assert res.certificate["warnings"] == dataclasses.asdict(summed)
    assert summed.pruned_by_run_check == 2

    # Over a denser graph the draws make completion layouts that neither
    # disjunct's count needed, and with two edges per answer, some of those
    # layouts need the NFA counter.
    edges = ["0,2", "0,5", "1,3", "1,4", "2,0", "2,5", "3,0", "3,5", "4,2", "4,3", "5,1", "5,4"]
    db = database_from_text("".join(f"E({e}).\n" for e in edges)
                            + "S(0).\nS(1).\nS(2).\nT(2).\nT(3).\nT(4).\n")
    paths = queries_from_text("Q(x,z) :- S(x), E(x,y), E(y,z).\n"
                              "Q(x,z) :- T(x), E(x,y), E(y,z).\n")
    for rules, layouts, unions in ((queries, 12, 0), (paths, 31, 11)):
        made.clear()
        res = count_ucq(rules, db, None, Config(seed=1))
        summed = made[0].handle.stats + made[1].handle.stats
        assert res.certificate["warnings"] == dataclasses.asdict(summed)
        assert all(sampler.handle.stats.partition_nfas > 0 for sampler in made)
        assert (summed.partition_nfas, summed.partition_unions) == (layouts, unions)


def test_decomposition_validity_under_rerooting(q1_d1):
    """Turning a child of the root into the new root keeps the join tree
    valid when the descendant condition survives the flip."""
    q1, _ = q1_d1
    hd = gyo_join_tree(q1)
    old_root = hd.nodes[hd.root]
    for child_id in old_root.children:
        nodes = {nid: node for nid, node in hd.nodes.items()}
        child = nodes[child_id]
        nodes[hd.root] = DecompositionNode(
            old_root.id, old_root.chi, old_root.xi,
            tuple(c for c in old_root.children if c != child_id),
        )
        nodes[child_id] = DecompositionNode(
            child.id, child.chi, child.xi, child.children + (hd.root,)
        )
        rerooted = HypertreeDecomposition(list(nodes.values()), child_id)
        assert validate_decomposition(q1, rerooted) == 1


def test_boolean_query_empty_head():
    """A query with no output variables counts 0 or 1 and decodes to ()."""
    q = ConjunctiveQuery("Q", (), (Atom("R", (Var("x"), Var("y"))),))
    db_yes = Database({"R": {("1", "2"), ("2", "2")}})
    db_no = Database({"R": set()})
    assert brute_cq_count(q, db_yes) == (1, frozenset({()}))
    assert brute_cq_count(q, db_no) == (0, frozenset())
    red = reduce_cq_to_ta(q, db_yes, gyo_join_tree(q))
    trees = brute_slice(red.automaton, red.n, budget=None).trees
    assert len(trees) == 1
    assert red.decode_answer(trees[0]) == ()

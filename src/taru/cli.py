"""Command-line interface.

Machine-readable JSON goes to stdout, a one-line human summary to stderr.
Exit codes: 0 success, 1 usage error, 2 input validation error, 3 budget
exhaustion or estimator failure.  Runs with the same inputs and seed produce
byte-identical JSON except for the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .applications import (
    brute_ecsp_count,
    brute_nwa_count,
    count_dnnf,
    count_ecsp,
    count_nwa,
    truth_table_count,
)
from .config import Config, certificate
from .cq import brute_cq_count, count_cq, count_ucq, sample_cq
from .engine import BOT, CountResult, Engine, EngineFail, LanguageSampler, fpras_ta
from .formats import (
    FormatError,
    automaton_from_json,
    circuit_from_json,
    database_from_text,
    decompositions_from_json,
    ecsp_from_json,
    file_digest,
    nfa_from_json,
    nwa_from_json,
    queries_from_text,
    tree_from_text,
    vtree_from_json,
)
from .oracles import BudgetExceeded, brute_nfa_count, brute_slice, exact_slice_count
from .sampling import EMPTY
from .snfa import OracleExhausted, count_succinct_nfa
from .trees import Tree, serialize_tree

MAX_N = 10_000


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}")


def _budget() -> int | None:
    env = os.environ.get("TARU_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"TARU_BUDGET must be an integer, got {env!r}")
    return 10_000_000


def _config(args) -> Config:
    return Config(
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        profile=args.profile,
    )


def _check_n(n: int):
    if n < 1 or n > MAX_N:
        raise UsageError(f"--n must lie in [1, {MAX_N}]")


def _check_count(count: int):
    if count < 0:
        raise UsageError("--count must not be negative")


def make_parser() -> _Parser:
    p = _Parser(prog="taru", description="Tree automata slice counting and sampling")
    p.add_argument("--version", action="version", version=f"taru {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--epsilon", type=float, default=0.2)
        sp.add_argument("--delta", type=float, default=0.1)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--profile", choices=["practical", "theory"], default="practical")

    sp = sub.add_parser("count", help="count size-n trees of a tree automaton")
    sp.add_argument("--automaton", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=["fpras", "exact-dp", "brute"], default="fpras")
    common(sp)

    sp = sub.add_parser("sample", help="draw uniform size-n trees")
    sp.add_argument("--automaton", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)
    common(sp)

    sp = sub.add_parser("nfa-count", help="count length-k words of a succinct NFA")
    sp.add_argument("--nfa", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mode", choices=["fpras", "brute"], default="fpras")
    common(sp)

    sp = sub.add_parser("cq-count", help="estimate the number of answers of a query")
    sp.add_argument("--query", required=True)
    sp.add_argument("--database", required=True)
    sp.add_argument("--decomposition")
    sp.add_argument("--k", type=int, help="hard cap on decomposition width")
    common(sp)

    sp = sub.add_parser("cq-sample", help="sample answers of a query uniformly")
    sp.add_argument("--query", required=True)
    sp.add_argument("--database", required=True)
    sp.add_argument("--decomposition")
    sp.add_argument("--k", type=int)
    sp.add_argument("--count", type=int, default=1)
    common(sp)

    sp = sub.add_parser("ucq-count", help="estimate the answer count of a union of queries")
    sp.add_argument("--query", required=True)
    sp.add_argument("--database", required=True)
    sp.add_argument("--decomposition")
    sp.add_argument("--k", type=int)
    common(sp)

    sp = sub.add_parser("ecsp-count", help="estimate the solution count of an existential CSP")
    sp.add_argument("--ecsp", required=True)
    sp.add_argument("--decomposition")
    sp.add_argument("--k", type=int)
    common(sp)

    sp = sub.add_parser("dnnf-count", help="estimate the model count of a structured DNNF")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--vtree", required=True)
    common(sp)

    sp = sub.add_parser("nwa-count", help="estimate length-n words of a nested word automaton")
    sp.add_argument("--nwa", required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("partition-count", help="count completions of a partial tree")
    sp.add_argument("--automaton", required=True)
    sp.add_argument("--partial-tree", required=True,
                    help="tree text; integer leaves are holes")
    sp.add_argument("--state", required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--mode", choices=["estimate", "brute"], default="estimate")
    common(sp)

    sp = sub.add_parser("oracle", help="exact brute-force answers")
    sp.add_argument("--n", type=int)
    sp.add_argument("--query")
    sp.add_argument("--database")
    sp.add_argument("--ecsp")
    sp.add_argument("--circuit")
    sp.add_argument("--nwa")
    return p


def _stamped(payload: dict, started: float) -> str:
    payload["elapsed_ms"] = int((time.time() - started) * 1000)
    payload["version"] = __version__
    return json.dumps(payload, sort_keys=True)


def _emit(payload: dict, summary: str, started: float) -> None:
    print(_stamped(payload, started))
    print(summary, file=sys.stderr)


def _emit_estimate(result, started: float, exact_hint: str = "", **fields) -> int:
    """Print an estimate with its certificate and the command's own fields.
    A non-finite estimate is no (1 ± ε) estimate and has no JSON form: the
    run fails, naming the exact alternative when the command has one."""
    if not math.isfinite(result.estimate):
        print(f"failed: the estimate {result.estimate} is not a finite number"
              f"{exact_hint}", file=sys.stderr)
        return 3
    _emit({"estimate": result.estimate, **fields, **result.certificate},
          f"estimate {result.estimate:.6g}", started)
    return 0


def _cmd_count(args, started) -> int:
    automaton = automaton_from_json(_read(args.automaton))
    _check_n(args.n)
    digests = {"automaton": file_digest(args.automaton)}
    if args.mode == "brute":
        result = brute_slice(automaton, args.n, budget=_budget())
        _emit({"count": len(result), "mode": "brute", "n": args.n, "inputs": digests},
              f"exact count {len(result)}", started)
        return 0
    if args.mode == "exact-dp":
        count = exact_slice_count(automaton, args.n, budget=_budget())
        _emit({"count": count, "mode": "exact-dp", "n": args.n, "inputs": digests},
              f"exact count {count}", started)
        return 0
    return _emit_estimate(fpras_ta(automaton, args.n, _config(args)), started,
                          "; --mode exact-dp gives the exact count", n=args.n,
                          inputs=digests)


def _cmd_sample(args, started) -> int:
    automaton = automaton_from_json(_read(args.automaton))
    _check_n(args.n)
    _check_count(args.count)
    config = _config(args)
    handle = LanguageSampler(automaton, args.n, config)
    emitted = failed = 0
    for _ in range(args.count):
        t = handle.draw()
        if isinstance(t, Tree):
            print(serialize_tree(t))
            emitted += 1
        elif t == EMPTY:
            break
        else:
            failed += 1
    status = certificate(
        config, "sample", handle.stats, requested=args.count, emitted=emitted,
        failed=failed, empty=handle.empty, n=args.n,
        inputs={"automaton": file_digest(args.automaton)},
    )
    print(_stamped(status, started), file=sys.stderr)
    return 0


def _cmd_nfa_count(args, started) -> int:
    nfa = nfa_from_json(_read(args.nfa))
    if args.k < 1 or args.k > MAX_N:
        raise UsageError(f"--k must lie in [1, {MAX_N}]")
    digests = {"nfa": file_digest(args.nfa)}
    if args.mode == "brute":
        count = brute_nfa_count(nfa, args.k, budget=_budget())
        _emit({"count": count, "mode": "brute", "k": args.k, "inputs": digests},
              f"exact count {count}", started)
        return 0
    return _emit_estimate(count_succinct_nfa(nfa, args.k, _config(args)), started,
                          inputs=digests)


def _load_query_inputs(args):
    queries = queries_from_text(_read(args.query))
    db = database_from_text(_read(args.database))
    hds = None
    if args.decomposition:
        hds = decompositions_from_json(_read(args.decomposition))
    digests = {"query": file_digest(args.query), "database": file_digest(args.database)}
    return queries, db, hds, digests


def _single_decomposition(hds, path, what: str):
    """The one entry of a decomposition file, or None without a file."""
    if hds is None:
        return None
    if len(hds) != 1:
        raise FormatError(f"{what} takes exactly one decomposition; {path} holds {len(hds)}")
    return hds[0]


def _cmd_cq_count(args, started) -> int:
    queries, db, hds, digests = _load_query_inputs(args)
    if len(queries) != 1:
        raise UsageError("cq-count expects a single rule; use ucq-count for unions")
    hd = _single_decomposition(hds, args.decomposition, "a CQ")
    return _emit_estimate(count_cq(queries[0], db, hd, _config(args), args.k), started,
                          inputs=digests)


def _cmd_cq_sample(args, started) -> int:
    queries, db, hds, digests = _load_query_inputs(args)
    if len(queries) != 1:
        raise UsageError("cq-sample expects a single rule")
    _check_count(args.count)
    hd = _single_decomposition(hds, args.decomposition, "a CQ")
    config = _config(args)
    sampler = sample_cq(queries[0], db, hd, config, args.k)
    emitted = bottoms = 0
    for _ in range(args.count):
        a = sampler.draw()
        if a == BOT:
            bottoms += 1
        else:
            print(json.dumps(list(a)))
            emitted += 1
    status = certificate(
        config, "cq-sample", sampler.handle.stats, requested=args.count,
        emitted=emitted, bottom=bottoms, inputs=digests,
    )
    print(_stamped(status, started), file=sys.stderr)
    return 0


def _cmd_ucq_count(args, started) -> int:
    queries, db, hds, digests = _load_query_inputs(args)
    return _emit_estimate(count_ucq(queries, db, hds, _config(args), args.k), started,
                          inputs=digests)


def _cmd_ecsp_count(args, started) -> int:
    ecsp = ecsp_from_json(_read(args.ecsp))
    hds = decompositions_from_json(_read(args.decomposition)) if args.decomposition else None
    hd = _single_decomposition(hds, args.decomposition, "an ECSP")
    return _emit_estimate(count_ecsp(ecsp, hd, _config(args), args.k), started,
                          inputs={"ecsp": file_digest(args.ecsp)})


def _cmd_dnnf_count(args, started) -> int:
    circuit = circuit_from_json(_read(args.circuit))
    vtree = vtree_from_json(_read(args.vtree))
    return _emit_estimate(count_dnnf(circuit, vtree, _config(args)), started,
                          inputs={"circuit": file_digest(args.circuit),
                                  "vtree": file_digest(args.vtree)})


def _cmd_nwa_count(args, started) -> int:
    nwa = nwa_from_json(_read(args.nwa))
    _check_n(args.n)
    return _emit_estimate(count_nwa(nwa, args.n, _config(args)), started,
                          inputs={"nwa": file_digest(args.nwa)})


def _cmd_partition_count(args, started) -> int:
    automaton = automaton_from_json(_read(args.automaton))
    text = args.partial_tree
    if text.startswith("@"):
        text = _read(text[1:])
    partial = tree_from_text(text)
    _check_n(args.level)
    if partial.full_size != args.level:
        raise FormatError(
            f"partial tree has full size {partial.full_size}, not {args.level}"
        )
    if args.state not in automaton.states:
        raise FormatError(f"state {args.state!r} is not declared")
    digests = {"automaton": file_digest(args.automaton)}
    if args.mode == "brute":
        from .oracles import brute_completions

        completions = brute_completions(
            automaton, partial, args.state, args.level, budget=_budget()
        )
        _emit({"count": len(completions), "mode": "brute", "inputs": digests},
              f"exact completions {len(completions)}", started)
        return 0
    config = _config(args)
    engine = Engine(automaton, args.level, config)
    engine.build()
    value = engine.estimate_partition(partial, args.state, args.level)
    cert = certificate(config, "partition-count", engine.stats)
    return _emit_estimate(CountResult(value, cert), started, inputs=digests)


def _cmd_oracle(args, started) -> int:
    budget = _budget()
    if args.query and args.database:
        queries = queries_from_text(_read(args.query))
        db = database_from_text(_read(args.database))
        total = set()
        for q in queries:
            total |= brute_cq_count(q, db, budget=budget)[1]
        _emit({"count": len(total), "mode": "oracle"}, f"{len(total)}", started)
        return 0
    if args.ecsp:
        count = brute_ecsp_count(ecsp_from_json(_read(args.ecsp)), budget=budget)
        _emit({"count": count, "mode": "oracle"}, f"{count}", started)
        return 0
    if args.circuit:
        count = truth_table_count(circuit_from_json(_read(args.circuit)), budget=budget)
        _emit({"count": count, "mode": "oracle"}, f"{count}", started)
        return 0
    if args.nwa and args.n is not None:
        nwa = nwa_from_json(_read(args.nwa))
        _check_n(args.n)
        count = brute_nwa_count(nwa, args.n, budget=budget)
        _emit({"count": count, "mode": "oracle", "n": args.n}, f"{count}", started)
        return 0
    raise UsageError("oracle needs one of: --query/--database, --ecsp, --circuit, "
                     "--nwa/--n; count and nfa-count take --mode brute")


_HANDLERS = {
    "count": _cmd_count,
    "sample": _cmd_sample,
    "nfa-count": _cmd_nfa_count,
    "cq-count": _cmd_cq_count,
    "cq-sample": _cmd_cq_sample,
    "ucq-count": _cmd_ucq_count,
    "ecsp-count": _cmd_ecsp_count,
    "dnnf-count": _cmd_dnnf_count,
    "nwa-count": _cmd_nwa_count,
    "partition-count": _cmd_partition_count,
    "oracle": _cmd_oracle,
}


def run(argv=None) -> int:
    started = time.time()
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args, started)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:  # every input error of the library is one
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (BudgetExceeded, EngineFail, OracleExhausted) as e:
        print(f"failed: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

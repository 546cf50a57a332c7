"""Command-line front end: replay evidence streams, verify strategies
against oracles, and emit operation-count benchmarks.

Stream grammar, one command per line ('#' comments and blank lines ignored):

    U <leaf-id> <value-index>     hard evidence (one-hot)
    S <leaf-id> <v1> ... <vk>     soft evidence likelihood
    Q <node-id>                   print the posterior marginal

Exit codes: 0 ok; 1 parse or validation failure; 2 impossible evidence at a
query; 3 verify found a deviation beyond tolerance.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from functools import partial

import numpy as np

from .contraction import Identity, contract
from .errors import FormatError, ImpossibleEvidence, LogbelError
from .generate import balanced_tree, chain_tree, random_likelihood, random_tree
from .jointree import Polytree, build_engine, build_polytree
from .model import BruteForceOracle, CausalTree, Evidence, _owned_normal_form, build_tree, read_json
from .propagate import FullState, LazyState


def load_problem(path) -> tuple[str, CausalTree | Polytree]:
    spec = read_json(path)
    if not isinstance(spec, dict):
        raise FormatError("network file must contain a JSON object")
    if "nodes" in spec:
        return "tree", build_tree(spec)
    if "variables" in spec:
        return "polytree", build_polytree(spec)
    raise FormatError("network file needs a 'nodes' or 'variables' list")


def parse_stream(path) -> list[tuple]:
    """Commands as tuples: ('soft', id, vec), ('hard', id, idx), ('query', id)."""
    ops: list[tuple] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            cmd, args = parts[0], parts[1:]
            try:
                if cmd == "U" and len(args) == 2:
                    ops.append(("hard", args[0], int(args[1])))
                elif cmd == "S" and len(args) >= 2:
                    ops.append(("soft", args[0],
                                np.array([float(v) for v in args[1:]])))
                elif cmd == "Q" and len(args) == 1:
                    ops.append(("query", args[0]))
                else:
                    raise ValueError
            except ValueError:
                raise FormatError(f"line {lineno}: cannot parse {line!r}") from None
    return ops


# -- engines ------------------------------------------------------------------------


def _contraction_engine(tree: CausalTree):
    """contract over the tree's owned normal form, each identity edge
    normalize_tree names stored as Identity."""
    normalized, identity_ids = _owned_normal_form(tree)
    return contract(normalized, coeffs={nid: Identity(normalized.nodes[nid].domain)
                                        for nid in identity_ids})


# Every engine answers update(id, vec) and query(id) -> Belief; those that
# count their work expose counters.  A polytree is compiled once and any
# tree engine answers the compiled tree.  run replays a stream through one
# (by default the log-time engine of the network's kind, LOG_TIME), verify
# pits the log-time engine against brute or full, and bench times full
# against contract.
ENGINES = {
    "tree": {
        "full": FullState,
        "lazy": LazyState,
        "contract": _contraction_engine,
        "brute": BruteForceOracle,
    },
    "polytree": {
        "polytree": build_engine,
        "full": partial(build_engine, tree_engine=FullState),
        "lazy": partial(build_engine, tree_engine=LazyState),
        "brute": BruteForceOracle,
    },
}
LOG_TIME = {"tree": "contract", "polytree": "polytree"}


def _make_runner(kind: str, problem, strategy: str):
    """The engine run replays through; brute is an oracle for verify only."""
    strategies = [name for name in ENGINES[kind] if name != "brute"]
    if strategy not in strategies:
        raise FormatError(f"strategy {strategy!r} does not run on a {kind} network; "
                          f"{kind} networks support {', '.join(strategies)}")
    return ENGINES[kind][strategy](problem)


def _domain_of(kind: str, problem, node_id: str) -> int:
    """Domain of a node or variable of the loaded network.  Every op's id is
    checked here, so ids the engines add themselves (normalize_tree's
    dummies, a polytree's clique nodes and indicator leaves) are unknown."""
    if kind == "tree":
        return problem.node(node_id).domain
    if node_id not in problem.variables:
        raise FormatError(f"no variable {node_id!r}")
    return problem.variables[node_id].domain


def _format_query(node_id: str, dist: np.ndarray) -> str:
    return f"Q {node_id} " + " ".join(f"{p:.12f}" for p in dist)


def _replay(kind: str, problem, ops: list[tuple], engines: list, answer) -> int:
    """Replay ops through every engine and return the exit code.  Each op's
    id is checked against the loaded network; an update goes to every
    engine, and a query's beliefs, one per engine, go to answer(id, dists),
    which returns an exit code to stop with, or None to go on.
    ImpossibleEvidence exits 2 and any other LogbelError 1, printed."""
    try:
        for op in ops:
            domain = _domain_of(kind, problem, op[1])
            if op[0] == "query":
                code = answer(op[1], [engine.query(op[1]).dist for engine in engines])
                if code is not None:
                    return code
            else:
                vec = Evidence.one_hot(domain, op[2]).likelihood if op[0] == "hard" else op[2]
                for engine in engines:
                    engine.update(op[1], vec)
    except ImpossibleEvidence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LogbelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    try:
        kind, problem = load_problem(args.network)
        ops = parse_stream(args.ops)
        runner = _make_runner(kind, problem, args.strategy or LOG_TIME[kind])
    except (LogbelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _replay(kind, problem, ops, [runner],
                   lambda node_id, dists: print(_format_query(node_id, dists[0])))


# -- verify -------------------------------------------------------------------------


def cmd_verify(args) -> int:
    """Replay the stream under the log-time strategy and an oracle; compare
    every query."""
    try:
        kind, problem = load_problem(args.network)
        ops = parse_stream(args.ops)
        subject = ENGINES[kind][LOG_TIME[kind]](problem)
        oracle = ENGINES[kind][args.oracle](problem)
    except (LogbelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    devs: list[float] = []

    def compare(node_id: str, dists: list[np.ndarray]) -> int | None:
        got, want = dists
        devs.append(float(np.max(np.abs(got - want))))
        if devs[-1] > args.tol:
            print(f"FAIL query #{len(devs)} {node_id!r}: deviation {devs[-1]:.3e} "
                  f"> tol {args.tol:.3e}")
            return 3
        return None

    code = _replay(kind, problem, ops, [subject, oracle], compare)
    if code == 0:
        print(f"PASS {len(devs)} queries, max deviation {max(devs, default=0.0):.3e} "
              f"(tol {args.tol:.3e})")
    return code


# -- bench --------------------------------------------------------------------------


def _bench_tree(shape: str, n: int, k: int, seed: int) -> CausalTree:
    rng = np.random.default_rng([seed, n, k])
    maker = {"chain": chain_tree, "balanced": balanced_tree, "random": random_tree}[shape]
    return maker(n, k, rng, evidence_floor=0.5)


def _bench_ops(tree: CausalTree, cycles: int, seed: int) -> list[tuple]:
    rng = np.random.default_rng([seed, tree.n, 17])
    leaves = tree.leaf_order()
    ids = list(tree.nodes)
    ops = []
    for _ in range(cycles):
        leaf = leaves[int(rng.integers(len(leaves)))]
        ops.append(("soft", leaf,
                    random_likelihood(tree.nodes[leaf].domain, rng, floor=0.5)))
        ops.append(("query", ids[int(rng.integers(len(ids)))]))
    return ops


def _run_bench_strategy(tree: CausalTree, strategy: str, ops: list[tuple]) -> list[dict]:
    t0 = time.perf_counter_ns()
    runner = ENGINES["tree"][strategy](tree)
    build_ns = time.perf_counter_ns() - t0
    build_snap = runner.counters.snapshot()
    rows = {
        "build": {"count": 1, "mult_adds": build_snap[3],
                  "equation_evals": build_snap[2], "wall_ns": build_ns},
        "update": {"count": 0, "mult_adds": 0, "equation_evals": 0, "wall_ns": 0},
        "query": {"count": 0, "mult_adds": 0, "equation_evals": 0, "wall_ns": 0},
    }
    for op in ops:
        key = "query" if op[0] == "query" else "update"
        before = runner.counters.snapshot()
        t0 = time.perf_counter_ns()
        if key == "query":
            runner.query(op[1])
        else:
            runner.update(op[1], op[2])
        elapsed = time.perf_counter_ns() - t0
        after = runner.counters.snapshot()
        rows[key]["count"] += 1
        rows[key]["mult_adds"] += after[3] - before[3]
        rows[key]["equation_evals"] += after[2] - before[2]
        rows[key]["wall_ns"] += elapsed
    return [{"strategy": strategy, "op": op_kind, **vals} for op_kind, vals in rows.items()]


def cmd_bench(args) -> int:
    try:
        sizes = [int(v) for v in str(args.n).split(",") if v]
    except ValueError:
        print(f"error: cannot parse --n {args.n!r}", file=sys.stderr)
        return 1
    if not sizes or min(sizes) < 3 or args.cycles < 1 or args.k < 2:
        print("error: need n >= 3, k >= 2, cycles >= 1", file=sys.stderr)
        return 1
    all_rows = []
    for n in sizes:
        tree = _bench_tree(args.shape, n, args.k, args.seed)
        ops = _bench_ops(tree, args.cycles, args.seed)
        per_cycle = {}
        for strategy in ("full", "contract"):
            for row in _run_bench_strategy(tree, strategy, ops):
                all_rows.append({"shape": args.shape, "n": tree.n, "k": args.k, **row})
                if row["op"] in ("update", "query"):
                    per_cycle[strategy] = per_cycle.get(strategy, 0) + row["mult_adds"]
        ratio = per_cycle["contract"] / per_cycle["full"] if per_cycle.get("full") else float("nan")
        print(f"{args.shape} n={tree.n} k={args.k}: per-cycle mult_adds "
              f"contract/full = {ratio:.4f}")
    try:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[
                "shape", "n", "k", "strategy", "op",
                "count", "mult_adds", "equation_evals", "wall_ns"])
            writer.writeheader()
            writer.writerows(all_rows)
    except OSError as exc:
        print(f"error: cannot write {args.csv!r}: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logbel",
        description="Exact inference on causal trees and polytrees with "
                    "logarithmic-time updates")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay an update/query stream")
    run.add_argument("--network", required=True)
    run.add_argument("--ops", required=True)
    run.add_argument("--strategy", choices=["full", "lazy", "contract", "polytree"],
                     help="default: contract for trees, polytree for polytrees")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="compare a strategy against an oracle")
    verify.add_argument("--network", required=True)
    verify.add_argument("--ops", required=True)
    verify.add_argument("--oracle", default="brute", choices=["brute", "full"])
    verify.add_argument("--tol", type=float, default=1e-8)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="operation-count benchmark, CSV output")
    bench.add_argument("--shape", default="chain",
                       choices=["chain", "balanced", "random"])
    bench.add_argument("--n", default="600")
    bench.add_argument("--k", type=int, default=2)
    bench.add_argument("--cycles", type=int, default=1000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", required=True)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

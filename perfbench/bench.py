"""Set-up, op-stream, count and trace measurements behind run.py."""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
from collections import Counter
from time import perf_counter, perf_counter_ns

import numpy as np

import logbel
import logbel.cli
import logbel.contraction
import logbel.jointree

import gen
import speed
from spans import Tracer
from workloads import CLI_PATCHES, CONTRACTION_PATCHES, JOINTREE_PATCHES, WORKLOADS

SETUP_REPEATS = 5       # set-up time is the median of these builds
PREFIX_CYCLES = 64      # op-count replay on the spare engines
CLI_CYCLES = 32         # cycles written to the `logbel run` ops file
CHUNK_OPS = 16          # ops per timed chunk; each chunk is bracketed by calibrations
CHECK_TOL = 1e-9        # max abs deviation of a belief from the reference
FULL_PROPAGATE_RUNS = 3
# Cycles whose queries are checked against the reference: a geometric
# schedule, so checking stays a small, bounded share of any run length.
CHECK_CYCLES = frozenset(8 ** j for j in range(20))


def _plain_call(name, fn, *args):
    return fn(*args)


def _pct(samples, q) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def longest_update_chain(index) -> int:
    """Longest consumer chain an update can walk, over every leaf."""
    best = 0
    for equation in index.leaf_consumer.values():
        length = 0
        while equation is not None:
            length += 1
            equation = equation.output.consumer
        best = max(best, length)
    return best


def count_record(wl, spec, engine, new_stream, replay: bool):
    """Deterministic shape and operation counts of a freshly built engine,
    plus, with replay, the counts of the first PREFIX_CYCLES of the stream
    and their answers (None where the query raised)."""
    index = wl.index(engine)
    counters = index.counters
    record = {
        "nodes": index.tree.n,
        "base_matrices": index.base_matrix_count,
        "stored_matrices": index.stored_matrix_count,
        "rake_levels": len(index.levels) - 1,
        "build_counters": [*counters.snapshot(), counters.matmat_mult_adds],
        "longest_update_chain": longest_update_chain(index),
    }
    answers = []
    if replay:
        stream = new_stream()
        before = counters.snapshot()
        chain = walk = failed = 0
        for _ in range(PREFIX_CYCLES):
            ups, qs = stream.cycle()
            for _, target, vec in ups:
                try:
                    wl.update(engine, target, vec)
                except logbel.LogbelError:
                    failed += 1
                chain = max(chain, len(index.last_update_trace))
            for _, target, _ in qs:
                index.last_calc_depth = 0
                try:
                    dist = wl.query(engine, target)
                except logbel.LogbelError:
                    dist = None
                    failed += 1
                walk = max(walk, index.last_calc_depth)
                answers.append((target, dist))
        record["prefix"] = {"cycles": PREFIX_CYCLES,
                            "counters": list(counters.delta(before).values()),
                            "longest_update_chain": chain, "longest_query_walk": walk,
                            "failed_ops": failed}
    return record, answers


class StreamStats:
    """Op times of one mode: raw wall ns, and scaled to nominal machine
    speed (see speed.py) using the calibrations around each chunk."""

    def __init__(self):
        self.wall_ns = 0
        self.scaled_wall_ns = 0.0
        self.raw_update_ns: list[int] = []
        self.raw_query_ns: list[int] = []
        self.update_ns: list[float] = []
        self.query_ns: list[float] = []
        self.factors: list[float] = []

    @property
    def ops(self) -> int:
        return len(self.update_ns) + len(self.query_ns)


class StreamResult:
    def __init__(self, modes: int):
        self.stats = [StreamStats() for _ in range(modes)]
        self.failed = 0
        self.errors: Counter = Counter()
        self.checked = 0
        self.mismatched = 0
        self.max_dev = 0.0
        self.cycles = 0

    @property
    def attempted(self) -> int:
        return sum(s.ops for s in self.stats)


def run_stream(stream, engine, ref, seconds: float, modes) -> StreamResult:
    """Drive the engine with the stream for `seconds` of op wall time.

    modes is a list of (update, query) callables used chunk by chunk in
    turn.  Only op execution is timed: generating a chunk, calibrating,
    feeding the reference and checking answers happen between chunks.
    Failed ops are timed and kept like any other.
    """
    result = StreamResult(len(modes))
    budget_ns = seconds * 1e9
    chunk = 0
    cal_before = speed.calibration_ns()
    while sum(s.wall_ns for s in result.stats) < budget_ns:
        nxt = min(c for c in CHECK_CYCLES if c > result.cycles)
        n = min(max(1, CHUNK_OPS // (stream.updates + stream.queries)), nxt - result.cycles)
        cycles = [stream.cycle() for _ in range(n)]
        check = result.cycles in CHECK_CYCLES
        if check:
            for _, target, vec in cycles[0][0]:
                ref.set_evidence(target, vec)
            expected, _ = ref.solve()
        ops = [op for ups, qs in cycles for op in ups + qs]
        update, query = modes[chunk % len(modes)]
        stats = result.stats[chunk % len(modes)]
        update_ns, query_ns, outs = [], [], []
        chunk_start = perf_counter_ns()
        for _, target, vec in ops:
            t0 = perf_counter_ns()
            try:
                out = query(engine, target) if vec is None else update(engine, target, vec)
            except Exception as exc:  # a failed op is counted, and the stream goes on
                out = exc
            t1 = perf_counter_ns()
            (query_ns if vec is None else update_ns).append(t1 - t0)
            outs.append(out)
        wall = perf_counter_ns() - chunk_start

        cal_after = speed.calibration_ns()
        f = speed.factor(cal_before, cal_after)
        cal_before = cal_after
        stats.wall_ns += wall
        stats.scaled_wall_ns += wall / f
        stats.factors.append(f)
        stats.raw_update_ns += update_ns
        stats.raw_query_ns += query_ns
        stats.update_ns += [t / f for t in update_ns]
        stats.query_ns += [t / f for t in query_ns]
        for out in outs:
            if isinstance(out, Exception):
                result.failed += 1
                result.errors[type(out).__name__] += 1
        if check:
            first = len(cycles[0][0])
            for (_, target, _), out in zip(ops[first:first + len(cycles[0][1])],
                                           outs[first:first + len(cycles[0][1])]):
                if isinstance(out, Exception):
                    continue
                dev = float(np.max(np.abs(np.asarray(out) - expected[target])))
                result.checked += 1
                result.max_dev = max(result.max_dev, dev)
                if dev > CHECK_TOL:
                    result.mismatched += 1
                    result.failed += 1
        for ups, _ in cycles[1:] if check else cycles:
            for _, target, vec in ups:
                ref.set_evidence(target, vec)
        result.cycles += n
        chunk += 1
    return result


def traced_ops(wl, engine, tracer: Tracer, oplog: list):
    """update/query callables that record a span and the op's counts."""
    index = wl.index(engine)
    counters = index.counters

    def update(engine, target, vec):
        tracer.new_op()
        before = counters.snapshot()
        try:
            return tracer.call(wl.update_span, wl.update, engine, target, vec)
        finally:
            after = counters.snapshot()
            oplog.append(("u", after[3] - before[3], after[2] - before[2],
                          len(index.last_update_trace), 0))

    def query(engine, target):
        tracer.new_op()
        index.last_calc_depth = 0
        before = counters.snapshot()
        try:
            return tracer.call(wl.query_span, wl.query, engine, target)
        finally:
            after = counters.snapshot()
            oplog.append(("q", after[3] - before[3], after[2] - before[2], 0,
                          index.last_calc_depth))

    return update, query


def source_hash(dirs) -> str:
    digest = hashlib.sha256()
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def check_counts(records, path) -> tuple[bool, str]:
    """Counts must repeat exactly: across the builds of this run, and
    against an earlier run of the same seed and sources."""
    builds = [{k: v for k, v in r.items() if k != "prefix"} for r in records]
    if any(b != builds[0] for b in builds):
        return False, "build counts differ between builds of one run"
    replays = [r["prefix"] for r in records if "prefix" in r]
    if any(p != replays[0] for p in replays):
        return False, "prefix-replay counts differ between builds of one run"
    record = {**builds[0], "prefix": replays[0]}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != json.loads(json.dumps(record)):
            return False, f"counts differ from the earlier run recorded in {path}"
        return True, f"repeat within the run and match {os.path.basename(path)}"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return True, f"repeat within the run; recorded in {os.path.basename(path)}"


def _cli_line_ok(line: str, target: str, dist) -> bool:
    fields = line.split()
    return (fields[:2] == ["Q", target] and len(fields) == 2 + len(dist)
            and float(np.max(np.abs(np.array(fields[2:], dtype=float) - dist))) <= CHECK_TOL)


def run_cli(wl, spec, new_stream, answers, tracer: Tracer, out_dir, name):
    """Replay the first CLI_CYCLES cycles through `logbel run` in-process and
    compare its stdout, line by line, with the library's answers."""
    net_path = os.path.join(out_dir, f"{name}-network.json")
    ops_path = os.path.join(out_dir, f"{name}-ops.txt")
    stream = new_stream()
    ops = [op for _ in range(CLI_CYCLES) for ups, qs in [stream.cycle()] for op in ups + qs]
    with open(net_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    gen.write_ops_file(ops_path, ops)
    args = argparse.Namespace(network=net_path, ops=ops_path,
                              strategy="contract" if wl.kind == "tree" else "polytree")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = perf_counter()
        code = tracer.call("cli.run", logbel.cli.cmd_run, args)
        run_s = perf_counter() - t0

    printed = stdout.getvalue().splitlines()
    queries = [i for i, op in enumerate(ops) if op[0] == gen.QUERY]
    failing = next((k for k, (_, dist) in enumerate(answers[:len(queries)]) if dist is None), None)
    expected_code = 0 if failing is None else 2
    expected_lines = len(queries) if failing is None else failing
    ok = code == expected_code and len(printed) == expected_lines and all(
        _cli_line_ok(line, target, dist) for line, (target, dist) in zip(printed, answers))
    completed = queries[len(printed)] if code and len(printed) < len(queries) else len(ops)
    return ok, {"cli.run_s": run_s, "cli.ops_completed": completed, "cli.exit_code": code}


def run_lazy(wl, spec, new_stream) -> dict:
    """Capped `lazy` baseline on the original tree, then `full` on its
    normalized form under the evidence lazy ended with."""
    tree = logbel.build_tree(spec)
    t0 = perf_counter()
    state = logbel.LazyState(tree)
    setup_s = perf_counter() - t0
    stream = new_stream()
    update_ns, query_ns = [], []
    for _ in range(wl.lazy_cycles):
        ups, qs = stream.cycle()
        for _, target, vec in ups:
            t0 = perf_counter_ns()
            logbel.lazy_update(state, target, vec)
            update_ns.append(perf_counter_ns() - t0)
        for _, target, _ in qs:
            t0 = perf_counter_ns()
            try:
                logbel.lazy_query(state, target)
            except logbel.ImpossibleEvidence:
                pass  # timed all the same, as in the contract stream
            query_ns.append(perf_counter_ns() - t0)
    # full_propagate costs O(m^2) at a node with m children (about 50 s on
    # the star's 4000-child root), so it runs on the complete binary form.
    full_tree, _ = logbel.normalize_tree(state.tree)
    full_ns = []
    for _ in range(FULL_PROPAGATE_RUNS):
        t0 = perf_counter_ns()
        try:
            logbel.full_propagate(full_tree)
        except logbel.ImpossibleEvidence:
            pass
        full_ns.append(perf_counter_ns() - t0)
    return {"propagate.lazy_setup_s": setup_s,
            "propagate.lazy_update_us_p50": _pct(update_ns, 50) / 1e3,
            "propagate.lazy_query_us_p50": _pct(query_ns, 50) / 1e3,
            "propagate.lazy_ops": len(update_ns) + len(query_ns),
            "propagate.full_propagate_ms": _pct(full_ns, 50) / 1e6}


def layer_metrics(wl, tracer, setup_marks, stream_lo, oplog, index, result, log10_pe) -> dict:
    """Per-layer numbers from the spans and per-op counts of a traced run;
    op spans are those from spans[stream_lo:]."""
    def setup_median(name, self_time=False):
        per_build = [sum(tracer.durations(name, lo, hi, self_time=self_time))
                     for lo, hi in setup_marks]
        return _pct(per_build, 50) / 1e9

    ups = [r for r in oplog if r[0] == "u"]
    qs = [r for r in oplog if r[0] == "q"]
    update_ns = tracer.durations("contraction.update_evidence", stream_lo)
    query_ns = tracer.durations("contraction.belief_query", stream_lo)
    update_adds = sum(r[1] for r in ups)
    query_adds = sum(r[1] for r in qs)
    n = index.tree.n
    metrics = {
        "model.build_tree_s": setup_median("model.build_tree"),
        "model.build_polytree_s": setup_median("model.build_polytree"),
        "model.normalize_tree_s": setup_median("model.normalize_tree"),
        "contraction.contract_s": setup_median("contraction.contract"),
        "contraction.rake_s": setup_median("contraction.rake"),
        "contraction.frontier_s": setup_median("contraction.contract", self_time=True),
        "contraction.rake_levels": len(index.levels) - 1,
        "contraction.stored_matrices": index.stored_matrix_count,
        "contraction.storage_bound": 2 * index.base_matrix_count + 4,
        "contraction.update_chain_mean": sum(r[3] for r in ups) / len(ups) if ups else 0.0,
        "contraction.update_chain_max": longest_update_chain(index),
        "contraction.update_chain_bound": 2 * math.ceil(math.log2(n)),
        "contraction.update_mult_adds_mean": update_adds / len(ups) if ups else 0.0,
        "contraction.update_ns_per_mult_add": sum(update_ns) / update_adds if update_adds else 0.0,
        "contraction.update_us_p50": _pct(update_ns, 50) / 1e3,
        "contraction.query_equations_mean": sum(r[2] for r in qs) / len(qs) if qs else 0.0,
        "contraction.query_equations_max": max((r[2] for r in qs), default=0),
        "contraction.query_walk_max": max((r[4] for r in qs), default=0),
        "contraction.query_mult_adds_mean": query_adds / len(qs) if qs else 0.0,
        "contraction.query_ns_per_mult_add": sum(query_ns) / query_adds if query_adds else 0.0,
        "contraction.query_us_p50": _pct(query_ns, 50) / 1e3,
        # the root normalizer is 1 / P(evidence); float64 ends at 10^308
        "contraction.root_normalizer_log10": -log10_pe,
        "jointree.extract_cliques_s": setup_median("jointree.extract_cliques"),
        "jointree.build_join_tree_s": setup_median("jointree.build_join_tree"),
        "jointree.prior_marginals_s": setup_median("jointree.prior_marginals"),
        "jointree.compile_join_tree_s": setup_median("jointree.compile_join_tree"),
        "jointree.update_self_us_p50":
            _pct(tracer.durations("jointree.polytree_update", stream_lo, self_time=True), 50) / 1e3,
        "stream.failed_ops_frac": result.failed / result.attempted,
        "stream.update_samples": len(ups),
        "stream.query_samples": len(qs),
    }
    plain, traced = result.stats
    metrics["trace.overhead_frac"] = (
        (traced.scaled_wall_ns / traced.ops) / (plain.scaled_wall_ns / plain.ops) - 1.0)
    return metrics


def build_engines(wl, spec, new_stream, tracer):
    """Build the engine SETUP_REPEATS times, each build bracketed by speed
    calibrations.  The spare engines replay the stream prefix for the count
    record; the last one is returned fresh for the timed stream."""
    call = tracer.call if tracer else _plain_call
    raw_s, scaled_s, records, marks, answers = [], [], [], [], []
    for i in range(SETUP_REPEATS):
        engine = None
        gc.collect()
        lo = len(tracer.spans) if tracer else 0
        cal_before = speed.calibration_ns()
        t0 = perf_counter()
        engine = wl.setup(spec, call)
        elapsed = perf_counter() - t0
        raw_s.append(elapsed)
        scaled_s.append(elapsed / speed.factor(cal_before, speed.calibration_ns()))
        marks.append((lo, len(tracer.spans) if tracer else 0))
        record, replayed = count_record(wl, spec, engine, new_stream,
                                        replay=i < SETUP_REPEATS - 1)
        records.append(record)
        answers = answers or replayed
    return engine, raw_s, scaled_s, records, marks, answers


def traced_metrics(wl, spec, new_stream, engine, ref, tracer, marks, stream_lo, oplog, result,
                   build_counters, answers, out_dir, name) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run, the capped lazy/full baseline and
    the `logbel run` replay.  build_counters are the engine's counters as
    built, before any op.  Returns the metrics and whether the CLI agreed
    with the library."""
    index = wl.index(engine)
    _, log10_pe = ref.solve()
    metrics = {**wl.sizes(spec, engine),
               **layer_metrics(wl, tracer, marks, stream_lo, oplog, index, result, log10_pe),
               "contraction.build_mult_adds": build_counters[3],
               "jointree.matmat_mult_adds": build_counters[4] if wl.kind == "polytree" else 0}
    del engine, index, ref
    gc.collect()
    lazy = run_lazy(wl, spec, new_stream) if wl.lazy_cycles else dict.fromkeys((
        "propagate.lazy_setup_s", "propagate.lazy_update_us_p50", "propagate.lazy_query_us_p50",
        "propagate.lazy_ops", "propagate.full_propagate_ms"), 0)
    metrics.update(lazy)
    for op in ("update", "query"):
        base = lazy[f"propagate.lazy_{op}_us_p50"]
        metrics[f"propagate.contract_lazy_{op}_ratio"] = (
            metrics[f"contraction.{op}_us_p50"] / base if base else 0.0)
    cli_lo = len(tracer.spans)
    cli_ok, cli_metrics = run_cli(wl, spec, new_stream, answers, tracer, out_dir, name)
    metrics.update(cli_metrics)
    for span, key in (("cli.load_problem", "cli.load_problem_s"),
                      ("cli.parse_stream", "cli.parse_stream_s"),
                      ("cli.runner_build", "cli.runner_build_s")):
        metrics[key] = sum(tracer.durations(span, cli_lo)) / 1e9
    return metrics, cli_ok


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, declared: dict,
                  out_dir: str, source_dirs) -> tuple[list[str], dict]:
    """One benchmark run.  declared maps each metric name BENCHMARK.json
    lists for this mode to its unit; exactly those are reported."""
    wl = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    spec = wl.make_spec(np.random.default_rng([seed, 0]))

    def new_stream():
        return wl.stream(spec, np.random.default_rng([seed, 1]))

    lines = [f"logbel benchmark: workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}",
             f"env: python {platform.python_version()} numpy {np.__version__} "
             f"nproc {os.cpu_count()} " + " ".join(f"{k}={os.environ.get(k)}" for k in (
                 "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED"))]
    problems = []
    self_dev = wl.self_check(np.random.default_rng([seed, 2]))
    if not self_dev <= CHECK_TOL:
        problems.append(f"reference self-check deviation {self_dev:.3e} > {CHECK_TOL:g}")

    tracer = Tracer() if trace else None
    with contextlib.ExitStack() as patches:
        if trace:
            patches.enter_context(tracer.patched(logbel.jointree, JOINTREE_PATCHES))
            patches.enter_context(tracer.patched(logbel.contraction, CONTRACTION_PATCHES))
            patches.enter_context(tracer.patched(logbel.cli, CLI_PATCHES))
        engine, raw_setup_s, setup_s, records, marks, answers = build_engines(
            wl, spec, new_stream, tracer)
        counts_path = os.path.join(out_dir, f"counts-{name}-{seed}-{source_hash(source_dirs)}.json")
        counts_ok, counts_note = check_counts(records, counts_path)
        if not counts_ok:
            problems.append(counts_note)
        gc.collect()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sizes = wl.sizes(spec, engine)
        ref = wl.reference(spec, engine)

        oplog: list = []
        modes = [(wl.update, wl.query)]
        if trace:
            modes.append(traced_ops(wl, engine, tracer, oplog))
            stream_lo = len(tracer.spans)
        result = run_stream(new_stream(), engine, ref, seconds, modes)
        if result.mismatched:
            problems.append(f"{result.mismatched} checked answers off the reference by more "
                            f"than {CHECK_TOL:g} (max {result.max_dev:.3e})")
        if trace:
            metrics, cli_ok = traced_metrics(wl, spec, new_stream, engine, ref, tracer, marks,
                                             stream_lo, oplog, result, records[-1]["build_counters"],
                                             answers, out_dir, name)
            if not cli_ok:
                problems.append("`logbel run` output differs from the library's answers")
            tracer.write(os.path.join(out_dir, f"trace-{name}.json"))

    plain = result.stats[0]
    if not trace:
        metrics = {
            "setup_s": _pct(setup_s, 50),
            "update_us_p50": _pct(plain.update_ns, 50) / 1e3,
            "update_us_p99": _pct(plain.update_ns, 99) / 1e3,
            "query_us_p50": _pct(plain.query_ns, 50) / 1e3,
            "query_us_p99": _pct(plain.query_ns, 99) / 1e3,
            "ops_per_s": plain.ops / (plain.scaled_wall_ns / 1e9),
            "ok_ops_frac": 1.0 - result.failed / result.attempted,
            "peak_rss_mb": peak_rss_mb,
        }

    lines += [
        "sizes: " + " ".join(f"{k}={v}" for k, v in sizes.items()),
        "setup_s per build: raw " + " ".join(f"{t:.4f}" for t in raw_setup_s)
        + " scaled " + " ".join(f"{t:.4f}" for t in setup_s),
        f"stream: cycles={result.cycles} attempted={result.attempted} failed={result.failed} "
        f"failed_ops_frac={result.failed / result.attempted:.6f} errors={dict(result.errors)} "
        f"checked={result.checked} max_dev={result.max_dev:.3e} tol={CHECK_TOL:g}",
        f"untraced samples: update={len(plain.update_ns)} query={len(plain.query_ns)}; "
        f"raw wall us p50/p99: update {_pct(plain.raw_update_ns, 50) / 1e3:.1f}/"
        f"{_pct(plain.raw_update_ns, 99) / 1e3:.1f} query {_pct(plain.raw_query_ns, 50) / 1e3:.1f}/"
        f"{_pct(plain.raw_query_ns, 99) / 1e3:.1f}, raw ops/s {plain.ops / (plain.wall_ns / 1e9):.1f}; "
        f"speed factor p10/p50/p90 " + "/".join(f"{_pct(plain.factors, q):.3f}" for q in (10, 50, 90)),
        f"counts: {counts_note}: {json.dumps(records[0])}",
    ]
    lines += [f"PROBLEM: {problem}" for problem in problems]
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} not both measured "
                           "and declared in BENCHMARK.json")
    out = {}
    for key, unit in declared.items():
        out[key] = {"value": metrics[key], "unit": unit}
        lines.append(f"  {key:40s} {metrics[key]:>16.6g} {unit}")
    return lines, {"correct": not problems, "attempted": result.attempted,
                   "failed": result.failed, "metrics": out}

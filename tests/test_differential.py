"""Differential property tests.  On random trees of any arity, every tree
strategy of the command line (full, lazy, and contract with normalize_tree's
identity edges stored as Identity) and the contraction index over the
dense normalized tree answer every query of a random update/query stream
like the joint enumerator, or all raise ImpossibleEvidence.  On random
polytrees (at most 3 parents) every polytree strategy of the command line
does the same.  The streams also draw invalid ops (an unknown id, a
wrong-length, negative, NaN or all-zero likelihood, a query of an unknown
id): every engine raises the same error class with the same message, and
the valid ops after it still agree.  A few streams also go through
`logbel run` (cli.main), which must print the same stdout and stderr and
exit with the same code under every strategy of the network's kind.

Tables and likelihoods draw their entries from a small set that includes
exact zeros, so evidence that is jointly impossible, zero prior states
(zero prior marginals among them) and zero conditional entries all occur.
Every entry is either zero or at least 0.5 before normalization, so no
mass underflows at this size: a query's mass is zero exactly when the
evidence is impossible.
"""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logbel import (ImpossibleEvidence, LogbelError, build_polytree, build_tree, contract,
                    normalize_tree, tree_to_spec)
from logbel.cli import ENGINES, main
from test_cli import polytree_spec

MAX_NODES = 12
MAX_FANOUT = 4
MAX_VARIABLES = 6
MAX_PARENTS = 3
MAX_OPS = 8
ENTRIES = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def weights(draw, k):
    """k nonnegative weights, at least one positive."""
    w = draw(st.lists(ENTRIES, min_size=k, max_size=k))
    if not any(w):
        w[draw(st.integers(0, k - 1))] = 1.0
    return w


@st.composite
def distribution(draw, k):
    w = np.array(draw(weights(k)))
    return (w / w.sum()).tolist()


@st.composite
def trees(draw):
    n = draw(st.integers(2, MAX_NODES))
    domains = [draw(st.integers(1, 3)) for _ in range(n)]
    fanout = [0] * n
    nodes = [{"id": "n0", "domain": domains[0], "prior": draw(distribution(domains[0]))}]
    for i in range(1, n):
        parent = draw(st.sampled_from([j for j in range(i) if fanout[j] < MAX_FANOUT]))
        fanout[parent] += 1
        nodes.append({"id": f"n{i}", "domain": domains[i], "parent": f"n{parent}",
                      "cpt": [draw(distribution(domains[i])) for _ in range(domains[parent])]})
    for entry, children in zip(nodes, fanout):
        if not children:
            entry["evidence"] = draw(weights(entry["domain"]))
    return build_tree({"nodes": nodes})


@st.composite
def polytrees(draw):
    """A connected polytree: each new variable is joined to an earlier one,
    as its parent or its child, without passing MAX_PARENTS anywhere."""
    n = draw(st.integers(2, MAX_VARIABLES))
    domains = [draw(st.integers(1, 3)) for _ in range(n)]
    parents: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        other = draw(st.integers(0, i - 1))
        if len(parents[other]) < MAX_PARENTS and draw(st.booleans()):
            parents[other].append(i)
        else:
            parents[i].append(other)
    variables = []
    for i, (domain, among) in enumerate(zip(domains, parents)):
        entry = {"id": f"v{i}", "domain": domain, "parents": [f"v{p}" for p in among]}
        if among:
            rows = math.prod(domains[p] for p in among)
            entry["cpt"] = [draw(distribution(domain)) for _ in range(rows)]
        else:
            entry["prior"] = draw(distribution(domain))
        variables.append(entry)
    return build_polytree({"variables": variables})


UNKNOWN = "zz"  # no generated network has this id


@st.composite
def invalid_op(draw, domains: dict, updatable: list):
    """One op every engine must reject: an unknown id, or a likelihood of
    the wrong length, with a negative or NaN entry, or all zero."""
    target = draw(st.sampled_from(updatable))
    vec = draw(weights(domains[target]))
    flaw = draw(st.sampled_from(["unknown", "query unknown", "length", "negative", "nan", "zero"]))
    if flaw == "unknown":
        return ("U", UNKNOWN, vec)
    if flaw == "query unknown":
        return ("Q", UNKNOWN, None)
    if flaw == "length":
        return ("U", target, vec + [1.0] if draw(st.booleans()) else vec[:-1])
    if flaw == "zero":
        return ("U", target, [0.0] * len(vec))
    vec[draw(st.integers(0, len(vec) - 1))] = -0.5 if flaw == "negative" else math.nan
    return ("U", target, vec)


@st.composite
def streams(draw, domains: dict, updatable: list):
    """U/Q ops over the ids of domains, updates only on updatable, some of
    them invalid, ending with a valid query."""
    ids = list(domains)
    ops = []
    for _ in range(draw(st.integers(1, MAX_OPS))):
        kind = draw(st.sampled_from(["U", "U", "Q", "Q", "invalid"]))
        if kind == "U":
            target = draw(st.sampled_from(updatable))
            ops.append(("U", target, draw(weights(domains[target]))))
        elif kind == "Q":
            ops.append(("Q", draw(st.sampled_from(ids)), None))
        else:
            ops.append(draw(invalid_op(domains, updatable)))
    ops.append(("Q", draw(st.sampled_from(ids)), None))
    return ops


@st.composite
def scenarios(draw):
    tree = draw(trees())
    domains = {nid: node.domain for nid, node in tree.nodes.items()}
    return tree, draw(streams(domains, tree.leaf_order()))


@st.composite
def polytree_scenarios(draw):
    pt = draw(polytrees())
    domains = {vid: var.domain for vid, var in pt.variables.items()}
    return pt, draw(streams(domains, list(domains)))


def _outcome(engine, kind, target, vec):
    """A query's belief, None for an update that succeeded, "impossible"
    for ImpossibleEvidence, or any other error's class and message."""
    try:
        if kind == "U":
            return engine.update(target, vec)
        return engine.query(target).dist
    except ImpossibleEvidence:
        return "impossible"
    except LogbelError as exc:
        return type(exc), str(exc)


def _replay(engines, ops):
    """Run ops on every engine; the first one's outcomes are the reference."""
    for kind, target, vec in ops:
        want, *others = [_outcome(engine, kind, target, vec) for engine in engines]
        for got in others:
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray), got
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            else:
                assert not isinstance(got, np.ndarray) and got == want, (want, got)


@settings(max_examples=350, derandomize=True, deadline=None)
@given(scenarios())
def test_engines_agree_on_random_streams(scenario):
    tree, ops = scenario
    strategies = ENGINES["tree"]
    _replay([strategies["brute"](tree)]
            + [make(tree) for name, make in strategies.items() if name != "brute"]
            + [contract(normalize_tree(tree)[0])], ops)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(polytree_scenarios())
def test_polytree_strategies_agree_on_random_streams(scenario):
    pt, ops = scenario
    strategies = ENGINES["polytree"]
    _replay([strategies["brute"](pt)]
            + [make(pt) for name, make in strategies.items() if name != "brute"], ops)


def _stream_text(ops) -> str:
    """ops as a stream file: a likelihood with one nonzero entry as hard
    evidence (U), any other as soft (S)."""
    lines = []
    for kind, target, vec in ops:
        if kind == "Q":
            lines.append(f"Q {target}")
        elif sum(v != 0 for v in vec) == 1:
            lines.append(f"U {target} {next(i for i, v in enumerate(vec) if v != 0)}")
        else:
            lines.append(f"S {target} " + " ".join(map(repr, vec)))
    return "\n".join(lines) + "\n"


def _run_under_every_strategy(kind, spec, ops):
    """(exit code, stdout, stderr) of logbel run under each strategy of the
    kind, then without --strategy."""
    strategies = [name for name in ENGINES[kind] if name != "brute"]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        net, stream = os.path.join(tmp, "net.json"), os.path.join(tmp, "ops.txt")
        with open(net, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with open(stream, "w", encoding="utf-8") as fh:
            fh.write(_stream_text(ops))
        for args in [["--strategy", name] for name in strategies] + [[]]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["run", "--network", net, "--ops", stream, *args])
            results.append((code, out.getvalue(), err.getvalue()))
    return results


@settings(max_examples=25, derandomize=True, deadline=None)
@given(scenarios())
def test_run_prints_alike_under_every_tree_strategy(scenario):
    tree, ops = scenario
    results = _run_under_every_strategy("tree", tree_to_spec(tree), ops)
    assert results == [results[0]] * len(results)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(polytree_scenarios())
def test_run_prints_alike_under_every_polytree_strategy(scenario):
    pt, ops = scenario
    results = _run_under_every_strategy("polytree", polytree_spec(pt), ops)
    assert results == [results[0]] * len(results)

"""Differential property tests.  On random trees of any arity, every tree
strategy of the command line (full, lazy, and contract with normalize_tree's
identity edges stored as Identity) and the contraction index over the
dense normalized tree answer every query of a random update/query stream
like the joint enumerator, or all raise ImpossibleEvidence.  On random
polytrees (at most 3 parents) every polytree strategy of the command line
does the same.

Tables and likelihoods draw their entries from a small set that includes
exact zeros, so evidence that is jointly impossible, zero prior states
(zero prior marginals among them) and zero conditional entries all occur.
Every entry is either zero or at least 0.5 before normalization, so no
mass underflows at this size: a query's mass is zero exactly when the
evidence is impossible.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logbel import ImpossibleEvidence, build_polytree, build_tree, contract, normalize_tree
from logbel.cli import ENGINES

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


@st.composite
def streams(draw, domains: dict, updatable: list):
    """U/Q ops over the ids of domains, updates only on updatable, ending
    with a query."""
    ids = list(domains)
    ops = []
    for _ in range(draw(st.integers(1, MAX_OPS))):
        if draw(st.booleans()):
            target = draw(st.sampled_from(updatable))
            ops.append(("U", target, draw(weights(domains[target]))))
        else:
            ops.append(("Q", draw(st.sampled_from(ids)), None))
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


def _answer(engine, node_id):
    try:
        return engine.query(node_id).dist
    except ImpossibleEvidence:
        return None


def _replay(engines, ops):
    """Run ops on every engine; the first one's answers are the reference."""
    for kind, target, vec in ops:
        if kind == "U":
            for engine in engines:
                engine.update(target, vec)
            continue
        want, *others = [_answer(engine, target) for engine in engines]
        if want is None:
            assert all(got is None for got in others)
        else:
            for got in others:
                assert got is not None
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


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

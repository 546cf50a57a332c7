"""Differential property test: on random trees of any arity, the contraction
index (on the normalized tree), the full and lazy engines and the joint
enumerator answer every query of a random update/query stream alike, or all raise
ImpossibleEvidence.

Tables and likelihoods draw their entries from a small set that includes
exact zeros, so evidence that is jointly impossible, zero prior states and
zero conditional entries all occur.  Every entry is either zero or at least
0.5 before normalization, so no mass underflows at this size: a query's
mass is zero exactly when the evidence is impossible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logbel import ImpossibleEvidence, LazyState, build_tree, contract, normalize_tree
from logbel.propagate import FullState
from logbel.model import BruteForceOracle

MAX_NODES = 12
MAX_FANOUT = 4
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
def scenarios(draw):
    tree = draw(trees())
    leaves, ids = tree.leaf_order(), list(tree.nodes)
    ops = []
    for _ in range(draw(st.integers(1, MAX_OPS))):
        if draw(st.booleans()):
            leaf = draw(st.sampled_from(leaves))
            ops.append(("U", leaf, draw(weights(tree.nodes[leaf].domain))))
        else:
            ops.append(("Q", draw(st.sampled_from(ids)), None))
    ops.append(("Q", draw(st.sampled_from(ids)), None))
    return tree, ops


def _answer(engine, node_id):
    try:
        return engine.query(node_id).dist
    except ImpossibleEvidence:
        return None


@settings(max_examples=350, derandomize=True, deadline=None)
@given(scenarios())
def test_engines_agree_on_random_streams(scenario):
    tree, ops = scenario
    engines = [BruteForceOracle(tree), FullState(tree), LazyState(tree),
               contract(normalize_tree(tree)[0])]
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

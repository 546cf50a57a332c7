"""Golden operation counts: a fixed, seeded stream of updates and queries
must leave the counters exactly where these pinned totals say.

The counts are the package's deterministic cost signal, so any change to
how an update or a query is evaluated must leave them byte for byte as
they are.  One dense tree (wide and single-child nodes, normalized) and one
compiled polytree (factored coefficients) are replayed.
"""

import numpy as np

from logbel import (
    ImpossibleEvidence,
    belief_query,
    build_engine,
    build_tree,
    calc_pi_lambda,
    contract,
    lambda_query,
    normalize_tree,
    pi_query,
    polytree_query,
    polytree_update,
    random_polytree,
    update_evidence,
)
from logbel.generate import random_likelihood


def ragged_tree(n_nodes, rng):
    """Random tree whose nodes have 1 to 4 children, domains 2 or 3."""
    domains = [int(rng.integers(2, 4)) for _ in range(n_nodes)]
    parents = [None] + [int(rng.integers(max(0, i - 4), i)) for i in range(1, n_nodes)]
    has_child = {p for p in parents if p is not None}
    nodes = []
    for i, (domain, parent) in enumerate(zip(domains, parents)):
        entry = {"id": f"v{i}", "domain": domain}
        if parent is None:
            entry["prior"] = rng.dirichlet(np.ones(domain)).tolist()
        else:
            entry["parent"] = f"v{parent}"
            entry["cpt"] = rng.dirichlet(np.ones(domain), size=domains[parent]).tolist()
        if i not in has_child:
            entry["evidence"] = random_likelihood(domain, rng).tolist()
        nodes.append(entry)
    return build_tree({"nodes": nodes})


def totals(counters):
    return (*counters.snapshot(), counters.matmat_mult_adds)


def test_dense_tree_counts_are_pinned():
    rng = np.random.default_rng(5)
    tree, _ = normalize_tree(ragged_tree(60, rng))
    index = contract(tree)
    assert totals(index.counters) == DENSE_BUILD
    nodes = list(tree.nodes)
    leaves = tree.leaf_order()
    chains = []
    for _ in range(40):
        leaf = leaves[int(rng.integers(len(leaves)))]
        update_evidence(index, leaf, random_likelihood(tree.nodes[leaf].domain, rng))
        chains.append(len(index.last_update_trace))
        for _ in range(3):
            belief_query(index, nodes[int(rng.integers(len(nodes)))])
        node = nodes[int(rng.integers(len(nodes)))]
        pi_query(index, node)
        lambda_query(index, node)
    for level in index.levels:
        for node_id, entry in level.nodes.items():
            if entry.record is not None:
                calc_pi_lambda(index, node_id, level.index)
    assert chains == DENSE_CHAINS
    assert totals(index.counters) == DENSE_TOTALS


def test_polytree_counts_are_pinned():
    rng = np.random.default_rng(6)
    pt = random_polytree(30, 3, (2, 3), rng)
    engine = build_engine(pt)
    index = engine.index
    assert totals(index.counters) == POLYTREE_BUILD
    variables = list(pt.variables)
    chains = []
    for _ in range(40):
        var = variables[int(rng.integers(len(variables)))]
        polytree_update(engine, var, random_likelihood(pt.variables[var].domain, rng))
        chains.append(len(index.last_update_trace))
        var = variables[int(rng.integers(len(variables)))]
        try:
            polytree_query(engine, var)
            for via in pt.variables[var].parents:
                polytree_query(engine, via, via=var)
        except ImpossibleEvidence:  # counted like any other query
            pass
    assert chains == POLYTREE_CHAINS
    assert totals(index.counters) == POLYTREE_TOTALS


# Recorded by an implementation that counted every product as it computed it.
DENSE_BUILD = (41, 41, 41, 819, 422)
DENSE_CHAINS = [3, 7, 6, 7, 6, 5, 5, 5, 7, 5, 8, 7, 5, 3, 5, 0, 6, 7, 6, 6, 6, 0, 7, 7, 7, 5, 6, 0, 4,
                6, 8, 5, 6, 5, 2, 0, 5, 7, 3, 3]
DENSE_TOTALS = (3332, 242, 1787, 22881, 2530)
# The polytree numbers were re-recorded when every coefficient took its
# cheapest form (identity edges free, unprofitable factored products
# multiplied out): (88, 88, 44, 1171861, 1155067) and
# (2626, 438, 766, 3833467, 3486101) before.
POLYTREE_BUILD = (40, 44, 44, 36471, 26891)
POLYTREE_CHAINS = [5, 5, 3, 3, 3, 6, 3, 0, 6, 5, 5, 4, 7, 4, 6, 6, 5, 5, 6, 5, 8, 6, 5, 3, 1, 5, 5, 3,
                   5, 2, 7, 5, 0, 5, 6, 3, 5, 1, 4, 4]
POLYTREE_TOTALS = (1353, 258, 766, 158982, 86677)

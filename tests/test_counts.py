"""Golden operation counts: a fixed, seeded stream of updates and queries
must leave the counters exactly where these pinned totals say.

The counts are the package's deterministic cost signal, so any change to
how an update or a query is evaluated must leave them byte for byte as
they are.  One dense tree (wide and single-child nodes, normalized) and one
compiled polytree (identity and dense coefficients) are replayed.  The
counts are checked against the work numpy is asked to do on the dense
tree, and against closed forms on hand-built trees.
"""

import numpy as np

import logbel.contraction
from logbel import (
    ImpossibleEvidence,
    belief_query,
    build_engine,
    build_tree,
    calc_pi_lambda,
    contract,
    full_propagate,
    lambda_query,
    normalize_tree,
    pi_query,
    polytree_query,
    polytree_update,
    random_polytree,
    update_evidence,
)
from logbel.generate import random_likelihood
from logbel.model import normalize_belief
from test_forms import counted, measured


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


def star_tree(fanout, rng):
    """A binary root with fanout children, each a leaf with soft evidence."""
    nodes = [{"id": "r", "domain": 2, "prior": [0.4, 0.6]}]
    nodes += [{"id": f"c{i}", "domain": 2, "parent": "r",
               "cpt": rng.dirichlet(np.ones(2), size=2).tolist(),
               "evidence": random_likelihood(2, rng).tolist()} for i in range(fanout)]
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
        for node_id, rec in level.nodes.items():
            if rec is not None:
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


def test_full_propagate_is_linear_in_the_fan_out():
    """full_propagate does the work of normalize_tree's complete binary
    tree: on a star with m children, 2 products per lambda equation at its
    m - 1 internal nodes and 2 per pi equation at its 2m - 2 others.  A
    per-sibling pi loop on the raw star would take m^2 + m."""
    rng = np.random.default_rng(9)
    star = star_tree(64, rng)
    mults = full_propagate(star).counters.matrix_vector_mults
    assert mults == full_propagate(normalize_tree(star)[0]).counters.matrix_vector_mults
    for fanout in (16, 64, 256):
        assert full_propagate(star_tree(fanout, rng)).counters.matrix_vector_mults \
            == 6 * (fanout - 1)


def counted_index(rng):
    """(tree, index, the build's work) for the dense tree with every
    coefficient a Counted array.  The build runs under measured(), so every
    product it stores is a Counted array too."""
    tree, _ = normalize_tree(ragged_tree(60, rng))
    coeffs = {nid: counted(rng, node.cpt.shape) for nid, node in tree.nodes.items()
              if node.parent is not None}
    index, work = measured(lambda: contract(tree, coeffs=coeffs))
    return tree, index, work


def test_counts_equal_the_work_done():
    """Build, updates and walks on the dense tree with every coefficient a
    Counted array: the counters add up to the products numpy computed (the
    equation evaluations aside, which numpy does not see)."""
    rng = np.random.default_rng(5)
    tree, index, work = counted_index(rng)
    assert work == totals_without_equations(index.counters)
    nodes, leaves = list(tree.nodes), tree.leaf_order()

    def stream():
        for _ in range(40):
            leaf = leaves[int(rng.integers(len(leaves)))]
            update_evidence(index, leaf, random_likelihood(tree.nodes[leaf].domain, rng))
            pi_query(index, nodes[int(rng.integers(len(nodes)))])
            lambda_query(index, nodes[int(rng.integers(len(nodes)))])

    before = totals_without_equations(index.counters)
    _, work = measured(stream)
    after = totals_without_equations(index.counters)
    assert work == tuple(a - b for a, b in zip(after, before))


def test_each_update_and_query_counts_the_work_it_does(monkeypatch):
    """The dense tree with every coefficient a Counted array: each leaf's
    update, then each node's belief query, measured alone, adds to the
    counters exactly the products numpy computed (the equation evaluations
    aside), whatever slot its chain or walk enters through."""
    # normalizing a belief (a sum and a division) is outside the count rule
    monkeypatch.setattr(logbel.contraction, "normalize_belief",
                        lambda raw, node: normalize_belief(np.asarray(raw), node=node))
    rng = np.random.default_rng(5)
    tree, index, _ = counted_index(rng)

    def counted_alone(op, *args):
        before = totals_without_equations(index.counters)
        _, work = measured(lambda: op(index, *args))
        after = totals_without_equations(index.counters)
        return work, tuple(a - b for a, b in zip(after, before))

    for leaf in tree.leaf_order():
        work, delta = counted_alone(update_evidence, leaf,
                                    random_likelihood(tree.nodes[leaf].domain, rng))
        assert work == delta, leaf
    for node in tree.nodes:
        work, delta = counted_alone(belief_query, node)
        assert work == delta, node


def totals_without_equations(counters):
    mv, mm, _, adds, mm_adds = totals(counters)
    return (mv, mm, 0, adds, mm_adds)


def hand_built(k, parent, rng):
    """contract() over a tree with a binary root u, domains k and parent
    links: random tables, unit evidence on the leaves."""
    nodes = [{"id": "u", "domain": 2, "prior": [0.3, 0.7]}]
    for nid, par in parent.items():
        entry = {"id": nid, "domain": k[nid], "parent": par,
                 "cpt": rng.dirichlet(np.ones(k[nid]), size=k[par]).tolist()}
        if nid not in parent.values():
            entry["evidence"] = [1.0] * k[nid]
        nodes.append(entry)
    return contract(build_tree({"nodes": nodes}))


def test_chain_steps_count_the_e_side_product_only_when_it_changed():
    """u -> (y, e), y -> (x, d), x -> (a, p), p -> (b, c); domains below.
    Level 1 rakes b (parent p into x) and d (parent y into u); level 2
    rakes c (parent x into u), whose e side is b's output and whose parent
    side is d's.  A rake (leaf, x, u) over z costs k_x k_leaf for its
    e-side product when its diagonal is refreshed, k_u k_x to scale and
    k_u k_x k_z to multiply through."""
    k = {"u": 2, "y": 3, "x": 4, "p": 3, "a": 2, "b": 2, "c": 3, "d": 2, "e": 2}
    parent = {"y": "u", "e": "u", "x": "y", "d": "y", "a": "x", "p": "x", "b": "p", "c": "p"}
    rng = np.random.default_rng(8)
    index = hand_built(k, parent, rng)
    assert [(rk.level, rk.leaf, rk.parent, rk.owner) for rk in index.leaf_consumer.values()] == [
        (1, "b", "p", "x"), (1, "d", "y", "u"), (2, "c", "x", "u")]
    rake_b, rake_d, rake_c = index.leaf_consumer.values()
    assert rake_c.e_side_input is rake_b.output and rake_c.parent_input is rake_d.output

    def adds_of_update(leaf):
        before = index.counters.snapshot()
        update_evidence(index, leaf, random_likelihood(k[leaf], rng))
        return index.counters.delta(before)

    # b's chain enters c through its e side: c refreshes its diagonal
    delta = adds_of_update("b")
    assert delta["scalar_mult_adds"] == (3 * 2 + 4 * 3 + 4 * 3 * 3) + (4 * 3 + 2 * 4 + 2 * 4 * 2)
    assert (delta["matrix_vector_mults"], delta["matrix_matrix_mults"]) == (2, 2)
    # d's chain enters c through its parent side: c reuses its diagonal
    delta = adds_of_update("d")
    assert delta["scalar_mult_adds"] == (3 * 2 + 2 * 3 + 2 * 3 * 4) + (2 * 4 + 2 * 4 * 2)
    assert (delta["matrix_vector_mults"], delta["matrix_matrix_mults"]) == (1, 2)


def test_a_chain_step_entered_through_the_z_side_is_one_product():
    """u -> (x, g), x -> (y, e), y -> (a, b); domains below.  Level 1 rakes
    b (parent y into x), level 2 rakes e (parent x into u), whose z side is
    b's output.  An update of b refreshes b's rake (k_y k_b for the e side,
    k_x k_y to scale, k_x k_y k_a to multiply through), then enters e's
    through its z side, which neither refreshes its diagonal nor scales its
    parent: k_u k_x k_a multiply-adds only."""
    k = {"u": 2, "x": 3, "y": 4, "a": 2, "b": 3, "e": 2, "g": 2}
    parent = {"x": "u", "g": "u", "y": "x", "e": "x", "a": "y", "b": "y"}
    rng = np.random.default_rng(10)
    index = hand_built(k, parent, rng)
    assert [(rk.level, rk.leaf, rk.parent, rk.owner) for rk in index.leaf_consumer.values()] == [
        (1, "b", "y", "x"), (2, "e", "x", "u")]
    rake_b, rake_e = index.leaf_consumer.values()
    assert rake_e.z_side_input is rake_b.output

    before = index.counters.snapshot()
    update_evidence(index, "b", random_likelihood(k["b"], rng))
    delta = index.counters.delta(before)
    assert delta["scalar_mult_adds"] == (4 * 3 + 3 * 4 + 3 * 4 * 2) + 2 * 3 * 2
    assert (delta["matrix_vector_mults"], delta["matrix_matrix_mults"]) == (1, 2)
    assert delta["equation_evals"] == 2


# Recorded by an implementation that counted every product as it computed it.
# The totals were re-recorded when each rake kept its diagonal cached
# (reused chain steps and walk steps below a rake do no e-side product;
# builds and chains are unchanged): DENSE_TOTALS (3332, 242, 1787, 22881,
# 2530) and POLYTREE_TOTALS (1353, 258, 766, 158982, 86677) before.  They
# were re-recorded again when each rake also kept its scaled parent cached
# (chain steps that enter through the z-side slot do not scale the parent;
# builds, chains and walks are unchanged): DENSE_TOTALS (2749, 242, 1787,
# 20608, 2530) and POLYTREE_TOTALS (840, 169, 766, 330878, 236503) before.
DENSE_BUILD = (41, 41, 41, 819, 422)
DENSE_CHAINS = [3, 7, 6, 7, 6, 5, 5, 5, 7, 5, 8, 7, 5, 3, 5, 0, 6, 7, 6, 6, 6, 0, 7, 7, 7, 5, 6, 0, 4,
                6, 8, 5, 6, 5, 2, 0, 5, 7, 3, 3]
DENSE_TOTALS = (2749, 242, 1787, 20285, 2530)
# The polytree numbers were re-recorded when every coefficient took its
# cheapest form (identity edges free, unprofitable factored products
# multiplied out): (88, 88, 44, 1171861, 1155067) and
# (2626, 438, 766, 3833467, 3486101) before.  They were re-recorded again
# when clique edges were kept factored only where that saves a numpy call
# (contraction.saves_a_call; every clique edge of this network is now
# dense, so mult-adds rise while wall time falls): (40, 44, 44, 36471,
# 26891) and (1084, 258, 766, 152353, 86677) before; the chains did not
# move.
POLYTREE_BUILD = (39, 29, 44, 87798, 74203)
POLYTREE_CHAINS = [5, 5, 3, 3, 3, 6, 3, 0, 6, 5, 5, 4, 7, 4, 6, 6, 5, 5, 6, 5, 8, 6, 5, 3, 1, 5, 5, 3,
                   5, 2, 7, 5, 0, 5, 6, 3, 5, 1, 4, 4]
POLYTREE_TOTALS = (840, 169, 766, 326546, 236503)

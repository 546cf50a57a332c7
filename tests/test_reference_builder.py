"""The flat index against the sequential builder it replaced.

reference_contraction.py keeps the builder that raked a round's leaves one
at a time, left to right, into an object graph, and its op path.  contract()
computes each round in two array passes instead; both must give the same
index, row for row and bit for bit, and the same answers and counts after
one stream of updates and queries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_contraction as reference
from logbel import FactoredMatrix, Identity, build_engine, contract, normalize_tree, random_polytree
from logbel.contraction import _Diagonal, belief_query, lambda_query, pi_query, update_evidence
from logbel.generate import balanced_tree, chain_tree, random_likelihood, random_tree
from test_counts import star_tree

KINDS = ("random", "chain", "balanced", "star", "polytree", "factored")


def network(kind, n, rng):
    """(tree, coeffs) of one kind with about n nodes."""
    if kind == "random":
        return random_tree(n, (2, 3), rng), None
    if kind == "chain":
        return chain_tree(n, 2, rng), None
    if kind == "balanced":
        return balanced_tree(n, 3, rng), None
    if kind == "star":  # normalize_tree's wide split
        return normalize_tree(star_tree(max(2, n // 2), rng))[0], None
    if kind == "polytree":  # clique edges, dense, factored or Identity
        compiled = build_engine(random_polytree(max(2, n // 5), 3, (2, 3), rng)).compiled
        return compiled.tree, compiled.coeffs
    tree = random_tree(n, 3, rng)
    coeffs = {}
    for nid in tree.nodes:
        form = int(rng.integers(3))  # 0 keeps the dense table
        if nid != tree.root and form:
            width = int(rng.integers(1, 4))
            coeffs[nid] = Identity(3) if form == 1 else FactoredMatrix(
                rng.random((3, width)), rng.random((width, 3)))
    return tree, coeffs


def same_bits(a, b) -> bool:
    """Two coefficients, diagonals or scaled parents of one type holding
    the same bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, FactoredMatrix):
        return same_bits(a.left, b.left) and same_bits(a.right, b.right)
    if isinstance(a, _Diagonal):
        return same_bits(a.diag, b.diag)
    return a.shape == b.shape  # Identity


def versions(index):
    """Every equation version in storage order: the base ones, then the
    rakes in build order."""
    return [recs[0] for recs in index.records.values()] + list(index.leaf_consumer.values())


def assert_same_index(flat, ref):
    slots, ref_slots = flat.all_slots(), ref.all_slots()
    assert len(slots) == len(ref_slots) == flat.stored_matrix_count
    ref_rake = {id(rk): k for k, rk in enumerate(ref.leaf_consumer.values())}
    rakes = list(flat.leaf_consumer.values())
    for slot, want in zip(slots, ref_slots):
        assert slot.describe() == want.describe()
        assert slot.form == want.form and slot.chain_cost == want.chain_cost
        assert same_bits(slot.coeff, want.coeff)
        consumer = slot.consumer
        assert (None if consumer is None else rakes.index(consumer)) == (
            None if want.consumer is None else ref_rake[id(want.consumer)])

    ours, theirs = versions(flat), versions(ref)
    assert len(ours) == len(theirs)
    ref_at = {id(rec): v for v, rec in enumerate(theirs)}
    at = {id(rec): v for v, rec in enumerate(ours)}
    for rec, want in zip(ours, theirs):
        assert (rec.owner, rec.level, rec.left_child, rec.right_child) == (
            want.owner, want.level, want.left_child, want.right_child)
        assert rec.left.describe() == want.left.describe()
        assert rec.right.describe() == want.right.describe()
        assert (None if rec.above is None else at[id(rec.above)]) == (
            None if want.above is None else ref_at[id(want.above)])
    for rk, want in zip(rakes, ref.leaf_consumer.values()):
        assert (rk.leaf, rk.parent, rk.leaf_side, rk.parent_side) == (
            want.leaf, want.parent, want.leaf_side, want.parent_side)
        for got, ref_slot in ((rk.e_side_input, want.e_side_input), (rk.output, want.output),
                              (rk.parent_input, want.parent_input),
                              (rk.z_side_input, want.z_side_input)):
            assert got.describe() == ref_slot.describe()
        assert same_bits(rk.diag, want.diag) and same_bits(rk.scaled, want.scaled)

    assert [level.leaves for level in flat.levels] == ref.levels
    assert list(flat.records) == list(ref.records)
    assert list(flat.evidence) == list(ref.evidence)
    assert flat.counters == ref.counters


def assert_same_stream(flat, ref, rng, ops=40):
    """One stream of updates and belief, pi and lambda queries: equal
    answers, bit for bit, and equal counts, traces and walk depths."""
    tree = flat.tree
    leaves, ids = tree.leaf_order(), list(tree.nodes)
    for step in range(ops):
        before, ref_before = flat.counters.snapshot(), ref.counters.snapshot()
        if step % 2 == 0:
            leaf = leaves[int(rng.integers(len(leaves)))]
            vec = random_likelihood(tree.nodes[leaf].domain, rng, floor=0.5)
            update_evidence(flat, leaf, vec)
            reference.update_evidence(ref, leaf, vec)
            assert [slot.describe() for slot in flat.last_update_trace] == [
                slot.describe() for slot in ref.last_update_trace]
        else:
            node = ids[int(rng.integers(len(ids)))]
            got, want = belief_query(flat, node), reference.belief_query(ref, node)
            assert same_bits(got.dist, want.dist) and got.normalizer == want.normalizer
            assert same_bits(pi_query(flat, node), reference.pi_query(ref, node))
            assert same_bits(lambda_query(flat, node), reference.lambda_query(ref, node))
            assert flat.last_calc_depth == ref.last_calc_depth
        assert flat.counters.delta(before) == ref.counters.delta(ref_before)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(KINDS), st.integers(3, 3000), st.integers(0, 2**32 - 1))
def test_flat_index_equals_the_sequential_builder(kind, n, seed):
    rng = np.random.default_rng(seed)
    tree, coeffs = network(kind, n, rng)
    flat = contract(tree.copy(), coeffs=coeffs)
    ref = reference.contract(tree.copy(), coeffs=coeffs)
    assert_same_index(flat, ref)
    assert_same_stream(flat, ref, rng)


def test_every_kind_rakes_both_sides_of_one_grandparent_in_one_pass():
    """The corpus reaches the one coupling inside a pass: two rakes that
    rewrite the two sides of one grandparent, the later one rewriting the
    earlier one's version, so that it keeps the earlier one's output on its
    other side."""
    rng = np.random.default_rng(7)
    for kind in KINDS:
        tree, coeffs = network(kind, 400, rng)
        index = contract(tree.copy(), coeffs=coeffs)
        ref = reference.contract(tree.copy(), coeffs=coeffs)
        assert_same_index(index, ref)
        pairs = 0
        for versions_of in index.records.values():
            for earlier, later in zip(versions_of[1:], versions_of[2:]):
                if later.level == earlier.level and later.leaf_side == earlier.leaf_side:
                    assert later.side_slot(1 - later.parent_side) is earlier.output
                    pairs += 1
        assert pairs or kind in ("chain", "star"), kind

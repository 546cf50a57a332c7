import numpy as np
import pytest

from logbel import (
    Evidence,
    ImpossibleEvidence,
    LazyState,
    NotALeaf,
    OpCounters,
    UnknownNode,
    belief,
    brute_force_marginal,
    build_tree,
    chain_tree,
    full_propagate,
    lazy_query,
    lazy_update,
    set_evidence,
)
from logbel.generate import balanced_tree, random_likelihood, random_tree
from logbel.propagate import FullState


def conflicting_tree():
    """Identity channels with contradictory hard evidence: zero joint mass."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return build_tree({"nodes": [
        {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
        {"id": "y", "domain": 2, "parent": "u", "cpt": eye, "evidence": [1.0, 0.0]},
        {"id": "z", "domain": 2, "parent": "u", "cpt": eye, "evidence": [0.0, 1.0]},
    ]})


class TestFullPropagate:
    def test_beliefs_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tree = random_tree(int(rng.integers(3, 40)), k=(2, 4), rng=rng)
            table = full_propagate(tree)
            for node_id in tree.nodes:
                assert abs(table.beliefs[node_id].dist.sum() - 1.0) < 1e-12

    def test_chain_matches_brute_force(self):
        tree = chain_tree(9, k=2, rng=np.random.default_rng(3))
        table = full_propagate(tree)
        for node_id in tree.nodes:
            expected = brute_force_marginal(tree, node_id)
            np.testing.assert_allclose(table.beliefs[node_id].dist, expected.dist,
                                       atol=1e-10)

    def test_random_corpus_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            tree = random_tree(int(rng.integers(3, 16)), k=(2, 3), rng=rng)
            table = full_propagate(tree)
            for node_id in tree.nodes:
                expected = brute_force_marginal(tree, node_id)
                np.testing.assert_allclose(table.beliefs[node_id].dist,
                                           expected.dist, atol=1e-9)

    def test_equation_count_exact(self):
        rng = np.random.default_rng(4)
        for n in (3, 9, 31, 101):
            tree = random_tree(n, k=2, rng=rng)
            counters = OpCounters()
            full_propagate(tree, counters)
            internal = len(tree.internal_ids())
            assert counters.equation_evals == internal + (tree.n - 1)

    def test_work_scales_linearly(self):
        rng = np.random.default_rng(5)
        counts = []
        for n in (255, 511):
            tree = balanced_tree(n, k=2, rng=rng)
            counters = OpCounters()
            full_propagate(tree, counters)
            counts.append(counters.matrix_vector_mults)
        ratio = counts[1] / counts[0]
        assert 1.8 <= ratio <= 2.2

    def test_impossible_evidence(self):
        with pytest.raises(ImpossibleEvidence):
            full_propagate(conflicting_tree())


class TestBelief:
    def test_identity_channel(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        tree = build_tree({"nodes": [
            {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
            {"id": "e", "domain": 2, "parent": "u", "cpt": eye, "evidence": [1.0, 0.0]},
            {"id": "f", "domain": 2, "parent": "u", "cpt": eye, "evidence": [1.0, 1.0]},
        ]})
        table = full_propagate(tree)
        np.testing.assert_allclose(belief(table, "u").dist, [1.0, 0.0], atol=1e-15)

    def test_repeat_query_bit_identical(self):
        tree = random_tree(15, k=2, rng=np.random.default_rng(6))
        table = full_propagate(tree)
        first = belief(table, tree.root).dist
        second = belief(table, tree.root).dist
        assert np.array_equal(first, second)

    def test_full_state_results_own_their_arrays(self):
        tree = random_tree(15, k=2, rng=np.random.default_rng(6))
        state = FullState(tree)
        before = state.query(tree.root).dist.copy()
        state.query(tree.root).dist[:] = 0.0
        np.testing.assert_array_equal(state.query(tree.root).dist, before)

    def test_unknown_node(self):
        tree = random_tree(7, k=2, rng=np.random.default_rng(7))
        with pytest.raises(UnknownNode):
            belief(full_propagate(tree), "missing")


class TestLazyUpdate:
    def test_update_cost_is_exactly_depth(self):
        rng = np.random.default_rng(8)
        tree = random_tree(63, k=2, rng=rng)
        state = LazyState(tree)
        for leaf in tree.leaf_order():
            depth = tree.node_depth(leaf)
            before = state.counters.snapshot()
            lazy_update(state, leaf, random_likelihood(tree.nodes[leaf].domain, rng))
            assert state.counters.delta(before)["equation_evals"] == depth

    def test_rebuild_equality(self):
        rng = np.random.default_rng(9)
        tree = random_tree(31, k=(2, 3), rng=rng)
        state = LazyState(tree)
        for _ in range(40):
            leaf = str(rng.choice(tree.leaf_order()))
            lazy_update(state, leaf, random_likelihood(tree.nodes[leaf].domain, rng))
        fresh = LazyState(state.tree)
        for node_id in tree.nodes:
            np.testing.assert_allclose(state.lambdas[node_id], fresh.lambdas[node_id],
                                       atol=1e-12)

    def test_idempotent_update(self):
        rng = np.random.default_rng(10)
        tree = random_tree(31, k=2, rng=rng)
        state = LazyState(tree)
        leaf = tree.leaf_order()[2]
        vec = random_likelihood(2, rng)
        lazy_update(state, leaf, vec)
        snapshot = {nid: lam.copy() for nid, lam in state.lambdas.items()}
        lazy_update(state, leaf, vec)
        for nid, lam in state.lambdas.items():
            assert np.array_equal(lam, snapshot[nid])

    def test_rejects_bad_targets(self):
        tree = random_tree(15, k=2, rng=np.random.default_rng(12))
        state = LazyState(tree)
        with pytest.raises(NotALeaf):
            lazy_update(state, tree.root, np.ones(2))
        with pytest.raises(UnknownNode):
            lazy_update(state, "missing", np.ones(2))

    def test_hard_evidence_object_accepted(self):
        tree = random_tree(7, k=3, rng=np.random.default_rng(13))
        state = LazyState(tree)
        leaf = tree.leaf_order()[0]
        lazy_update(state, leaf, Evidence.one_hot(3, 2))
        np.testing.assert_array_equal(state.lambdas[leaf], [0.0, 0.0, 1.0])


class TestLazyQuery:
    def test_root_query_reads_prior_directly(self):
        tree = random_tree(63, k=2, rng=np.random.default_rng(14))
        state = LazyState(tree)
        before = state.counters.snapshot()
        lazy_query(state, tree.root)
        assert state.counters.delta(before)["equation_evals"] == 0

    def test_deep_query_cost_is_path_length(self):
        tree = chain_tree(41, k=2, rng=np.random.default_rng(15))
        state = LazyState(tree)
        deepest = max(tree.nodes, key=tree.node_depth)
        before = state.counters.snapshot()
        lazy_query(state, deepest)
        assert state.counters.delta(before)["equation_evals"] == tree.node_depth(deepest)

    def test_agrees_with_full_propagation(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            tree = random_tree(int(rng.integers(5, 30)), k=(2, 3), rng=rng)
            state = LazyState(tree)
            for _ in range(15):
                leaf = str(rng.choice(tree.leaf_order()))
                lazy_update(state, leaf, random_likelihood(tree.nodes[leaf].domain, rng))
                probe = str(rng.choice(list(tree.nodes)))
                got = lazy_query(state, probe)
                expected = full_propagate(state.tree).beliefs[probe]
                np.testing.assert_allclose(got.dist, expected.dist, atol=1e-12)

    def test_impossible_evidence_surfaces_at_query(self):
        tree = conflicting_tree()
        relaxed = tree.copy()
        set_evidence(relaxed, "z", np.array([1.0, 1.0]))
        state = LazyState(relaxed)
        lazy_update(state, "z", Evidence.one_hot(2, 1))  # accepted: not all-zero
        with pytest.raises(ImpossibleEvidence):
            lazy_query(state, "u")

import copy
import json

import numpy as np
import pytest

from logbel import (
    AllZeroLikelihood,
    CausalTree,
    Cycle,
    DimensionMismatch,
    DuplicateId,
    Evidence,
    FormatError,
    InvalidProbability,
    LeafWithoutEvidence,
    LogbelError,
    MissingRoot,
    MultipleRoots,
    Node,
    NotALeaf,
    NotAPolytree,
    Polytree,
    RowNotStochastic,
    StateSpaceTooLarge,
    UnknownNode,
    Variable,
    brute_force_marginal,
    build_polytree,
    build_tree,
    chain_tree,
    contract,
    full_propagate,
    load_network,
    normalize_tree,
    random_polytree,
    save_network,
    set_evidence,
    tree_to_spec,
    update_evidence,
)
from logbel.generate import random_tree
from logbel.model import TableBatch
from test_counts import ragged_tree


def identity_tree(evidence_e=(1.0, 1.0), evidence_f=(1.0, 1.0)):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return build_tree({"nodes": [
        {"id": "u", "domain": 2, "parent": None, "prior": [0.5, 0.5]},
        {"id": "e", "domain": 2, "parent": "u", "cpt": eye, "evidence": list(evidence_e)},
        {"id": "f", "domain": 2, "parent": "u", "cpt": eye, "evidence": list(evidence_f)},
    ]})


class TestBuildTree:
    def test_identity_three_node(self):
        tree = identity_tree()
        assert tree.n == 3
        assert tree.depth == 1
        assert tree.root == "u"
        assert tree.nodes["u"].children == ["e", "f"]

    def test_chain_fixture_shape(self):
        tree = chain_tree(9, k=2, rng=np.random.default_rng(0))
        assert list(tree.nodes) == ["x1", "e1", "x2", "e2", "x3", "e3", "x4", "e4", "e5"]
        for i in range(1, 4):
            assert tree.nodes[f"x{i}"].children == [f"e{i}", f"x{i+1}"]
        assert tree.nodes["x4"].children == ["e4", "e5"]
        assert tree.depth == 4

    def test_prefilled_children_rejected(self):
        """Children come only from parent links, in declaration order."""
        nodes = [Node(id="u", domain=2, prior=np.array([0.5, 0.5]), children=["f", "e"]),
                 Node(id="e", domain=2, parent="u", cpt=np.eye(2), evidence=np.ones(2)),
                 Node(id="f", domain=2, parent="u", cpt=np.eye(2), evidence=np.ones(2))]
        with pytest.raises(FormatError, match="'u'"):
            CausalTree(nodes)

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            build_tree({"nodes": [
                {"id": "u", "domain": 2, "prior": [1.0, 0.0]},
                {"id": "u", "domain": 2, "parent": "u", "cpt": [[1, 0], [0, 1]]},
            ]})

    def test_missing_root(self):
        with pytest.raises(MissingRoot):
            build_tree({"nodes": [
                {"id": "a", "domain": 2, "parent": "b", "cpt": [[1, 0], [0, 1]]},
                {"id": "b", "domain": 2, "parent": "a", "cpt": [[1, 0], [0, 1]]},
            ]})

    def test_multiple_roots(self):
        with pytest.raises(MultipleRoots):
            build_tree({"nodes": [
                {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "b", "domain": 2, "prior": [0.5, 0.5]},
            ]})

    def test_cycle_detached_from_root(self):
        with pytest.raises(Cycle):
            build_tree({"nodes": [
                {"id": "r", "domain": 1, "prior": [1.0], "evidence": [1.0]},
                {"id": "a", "domain": 2, "parent": "b", "cpt": [[1, 0], [0, 1]]},
                {"id": "b", "domain": 2, "parent": "a", "cpt": [[1, 0], [0, 1]]},
            ]})

    def test_row_not_stochastic(self):
        with pytest.raises(RowNotStochastic) as info:
            build_tree({"nodes": [
                {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "e", "domain": 2, "parent": "u",
                 "cpt": [[0.6, 0.6], [0.5, 0.5]], "evidence": [1, 1]},
            ]})
        assert info.value.node == "e"
        assert info.value.row == 0

    def test_negative_cpt_entry(self):
        with pytest.raises(RowNotStochastic):
            build_tree({"nodes": [
                {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "e", "domain": 2, "parent": "u",
                 "cpt": [[1.2, -0.2], [0.5, 0.5]], "evidence": [1, 1]},
            ]})

    def test_cpt_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_tree({"nodes": [
                {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "e", "domain": 3, "parent": "u",
                 "cpt": [[0.5, 0.5], [0.5, 0.5]], "evidence": [1, 1, 1]},
            ]})

    def test_leaf_without_evidence(self):
        with pytest.raises(LeafWithoutEvidence):
            build_tree({"nodes": [
                {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "e", "domain": 2, "parent": "u", "cpt": [[1, 0], [0, 1]]},
            ]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(FormatError):
            build_tree({"nodes": [
                {"id": "u", "domain": 2, "prior": [0.5, 0.5], "color": "red"},
            ]})

    def test_evidence_on_internal_rejected(self):
        with pytest.raises(FormatError):
            build_tree({"nodes": [
                {"id": "u", "domain": 2, "prior": [0.5, 0.5], "evidence": [1, 1]},
                {"id": "e", "domain": 2, "parent": "u",
                 "cpt": [[1, 0], [0, 1]], "evidence": [1, 1]},
            ]})

    def test_prior_on_non_root_rejected(self):
        with pytest.raises(FormatError):
            build_tree({"nodes": [
                {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "e", "domain": 2, "parent": "u", "cpt": [[1, 0], [0, 1]],
                 "prior": [0.5, 0.5], "evidence": [1, 1]},
            ]})

    def test_domain_checked_before_a_child_uses_it(self):
        with pytest.raises(FormatError, match="'u'"):
            build_tree({"nodes": [
                {"id": "e", "domain": 2, "parent": "u",
                 "cpt": [[1, 0], [0, 1]], "evidence": [1, 1]},
                {"id": "u", "domain": "2", "prior": [0.5, 0.5]},
            ]})


def _tree_with_cpt(cpt):
    return build_tree({"nodes": [
        {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
        {"id": "e", "domain": 2, "parent": "u", "cpt": cpt, "evidence": [1, 1]},
    ]})


def _polytree_with_cpt(cpt):
    return build_polytree({"variables": [
        {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
        {"id": "e", "domain": 2, "parents": ["u"], "cpt": cpt},
    ]})


BAD_ROWS = {
    "nan": [np.nan, 0.5],
    "+inf": [np.inf, 0.0],
    "-inf": [-np.inf, 1.0],
    "negative-sums-to-1": [1.5, -0.5],
    "sums-to-1+1e-6": [0.5, 0.5 + 1e-6],
}


@pytest.mark.parametrize("builder", [_tree_with_cpt, _polytree_with_cpt],
                         ids=["build_tree", "build_polytree"])
@pytest.mark.parametrize("row", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_bad_cpt_row_is_named(builder, row):
    with pytest.raises(RowNotStochastic) as info:
        builder([[0.3, 0.7], row])
    assert info.value.row == 1
    assert info.value.node == "e"


class TestEvidence:
    def test_one_hot(self):
        ev = Evidence.one_hot(3, 1)
        np.testing.assert_array_equal(ev.likelihood, [0.0, 1.0, 0.0])

    def test_one_hot_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            Evidence.one_hot(3, 3)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroLikelihood):
            Evidence(np.zeros(2))

    def test_negative_rejected(self):
        with pytest.raises(InvalidProbability):
            Evidence(np.array([0.5, -0.1]))


class TestSetEvidence:
    def test_hard_then_soft(self):
        tree = identity_tree()
        set_evidence(tree, "e", Evidence.one_hot(2, 1))
        np.testing.assert_array_equal(tree.nodes["e"].evidence, [0.0, 1.0])
        set_evidence(tree, "e", np.array([0.3, 0.7]))
        np.testing.assert_array_equal(tree.nodes["e"].evidence, [0.3, 0.7])

    def test_all_zero(self):
        with pytest.raises(AllZeroLikelihood):
            set_evidence(identity_tree(), "e", np.zeros(2))

    def test_not_a_leaf(self):
        with pytest.raises(NotALeaf):
            set_evidence(identity_tree(), "u", np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            set_evidence(identity_tree(), "e", np.ones(3))

    def test_only_target_leaf_touched(self):
        tree = identity_tree()
        before_f = tree.nodes["f"].evidence.copy()
        before_cpt = tree.nodes["e"].cpt.copy()
        set_evidence(tree, "e", np.array([0.2, 0.9]))
        np.testing.assert_array_equal(tree.nodes["f"].evidence, before_f)
        np.testing.assert_array_equal(tree.nodes["e"].cpt, before_cpt)


class TestCopy:
    def test_clone_is_equal_and_independent(self):
        tree = random_tree(9, (2, 3), np.random.default_rng(5))
        clone = tree.copy()
        assert clone.root == tree.root
        assert list(clone.nodes) == list(tree.nodes)
        for nid, node in tree.nodes.items():
            twin = clone.nodes[nid]
            assert (twin.domain, twin.parent, twin.children) == \
                (node.domain, node.parent, node.children)
            assert twin.children is not node.children
            for table in ("cpt", "prior", "evidence"):
                ours, theirs = getattr(node, table), getattr(twin, table)
                if ours is None:
                    assert theirs is None
                    continue
                np.testing.assert_array_equal(theirs, ours)
                assert np.shares_memory(theirs, ours)  # tables are never written in place

        before = {nid: brute_force_marginal(tree, nid).dist for nid in tree.nodes}
        leaf = tree.leaf_order()[0]
        set_evidence(clone, leaf, Evidence.one_hot(tree.nodes[leaf].domain, 0))
        assert not np.array_equal(brute_force_marginal(clone, tree.root).dist,
                                  before[tree.root])
        for nid in tree.nodes:
            np.testing.assert_array_equal(brute_force_marginal(tree, nid).dist, before[nid])


class TestNormalizeTree:
    def test_already_binary_unchanged(self):
        tree = identity_tree()
        normalized, identity_ids = normalize_tree(tree)
        assert normalized is tree
        assert identity_ids == []

    def _wide_tree(self, fanout):
        rng = np.random.default_rng(fanout)
        nodes = [{"id": "r", "domain": 2, "prior": [0.4, 0.6]}]
        for i in range(fanout):
            nodes.append({"id": f"c{i}", "domain": 2, "parent": "r",
                          "cpt": [list(rng.dirichlet([1, 1])) for _ in range(2)],
                          "evidence": list(0.1 + rng.random(2))})
        return build_tree({"nodes": nodes})

    def test_three_children_one_dummy(self):
        tree = self._wide_tree(3)
        normalized, identity_ids = normalize_tree(tree)
        assert normalized.is_complete_binary()
        assert normalized.n == 5
        assert normalized.n <= 2 * tree.n
        assert identity_ids == ["split0"]

    def test_splitter_chain_is_pinned(self):
        normalized, identity_ids = normalize_tree(self._wide_tree(5))
        assert identity_ids == ["split0", "split1", "split2"]
        assert list(normalized.nodes) == ["r", "c0", "c1", "c2", "c3", "c4",
                                          "split0", "split1", "split2"]
        shape = {nid: (n.parent, n.children) for nid, n in normalized.nodes.items()}
        assert shape == {
            "r": (None, ["c0", "split0"]),
            "split0": ("r", ["c1", "split1"]),
            "split1": ("split0", ["c2", "split2"]),
            "split2": ("split1", ["c3", "c4"]),
            "c0": ("r", []), "c1": ("split0", []), "c2": ("split1", []),
            "c3": ("split2", []), "c4": ("split2", []),
        }
        for split in ("split0", "split1", "split2"):
            np.testing.assert_array_equal(normalized.nodes[split].cpt, np.eye(2))

    def test_single_child_gets_unit_leaf(self):
        tree = build_tree({"nodes": [
            {"id": "r", "domain": 2, "prior": [0.5, 0.5]},
            {"id": "m", "domain": 2, "parent": "r", "cpt": [[0.9, 0.1], [0.3, 0.7]]},
            {"id": "e", "domain": 2, "parent": "m", "cpt": [[0.8, 0.2], [0.4, 0.6]],
             "evidence": [0.5, 1.0]},
        ]})
        normalized, _ = normalize_tree(tree)
        assert normalized.is_complete_binary()
        unit_leaves = [n for n in normalized.nodes.values() if n.domain == 1]
        assert len(unit_leaves) == 2  # r and m each had one child
        for leaf in unit_leaves:
            np.testing.assert_array_equal(leaf.evidence, [1.0])

    def test_lone_root_stays_a_leaf_under_a_new_root(self):
        for evidence in (None, [0.2, 0.9]):
            spec = {"id": "r", "domain": 2, "prior": [0.3, 0.7]}
            if evidence is not None:
                spec["evidence"] = evidence
            tree = build_tree({"nodes": [spec]})
            normalized, identity_ids = normalize_tree(tree)
            assert normalized.is_complete_binary() and normalized.n == 3
            assert identity_ids == ["r"] and tree.nodes["r"].children == []
            assert tree.root == "r" and tree.nodes["r"].parent is None
            lone = normalized.nodes["r"]
            assert normalized.root != "r" and lone.parent == normalized.root
            assert lone.children == [] and normalized.nodes[normalized.root].children[0] == "r"
            np.testing.assert_array_equal(lone.evidence,
                                          [1.0, 1.0] if evidence is None else evidence)
            np.testing.assert_allclose(brute_force_marginal(normalized, "r").dist,
                                       brute_force_marginal(tree, "r").dist, atol=1e-15)

    def test_marginals_preserved(self):
        rng = np.random.default_rng(42)
        for fanout in (3, 4, 5):
            tree = self._wide_tree(fanout)
            normalized, _ = normalize_tree(tree)
            for node_id in tree.nodes:
                before = brute_force_marginal(tree, node_id)
                after = brute_force_marginal(normalized, node_id)
                np.testing.assert_allclose(after.dist, before.dist, atol=1e-12)

    def test_node_count_bound(self):
        rng = np.random.default_rng(7)
        for fanout in (3, 6, 9):
            tree = self._wide_tree(fanout)
            singles = sum(1 for n in tree.nodes.values() if len(n.children) == 1)
            normalized, _ = normalize_tree(tree)
            assert normalized.n <= 2 * tree.n + singles

    def test_ragged_trees_keep_leaf_order(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            tree = ragged_tree(int(rng.integers(2, 40)), rng)
            normalized, _ = normalize_tree(tree)
            assert normalized.is_complete_binary()
            kept = [leaf for leaf in normalized.leaf_order() if leaf in tree.nodes]
            assert kept == tree.leaf_order()

    def test_output_shares_the_callers_tables(self):
        tree = ragged_tree(60, np.random.default_rng(32))
        normalized, _ = normalize_tree(tree)
        assert normalized is not tree
        for node_id, node in tree.nodes.items():
            out = normalized.nodes[node_id]
            assert out is not node
            assert out.cpt is node.cpt and out.prior is node.prior \
                and out.evidence is node.evidence
        leaf = tree.leaf_order()[1]
        before = tree.nodes[leaf].evidence
        kept = before.copy()
        update_evidence(contract(normalized), leaf, np.ones(tree.nodes[leaf].domain))
        assert tree.nodes[leaf].evidence is before
        np.testing.assert_array_equal(before, kept)
        np.testing.assert_array_equal(normalized.nodes[leaf].evidence, 1.0)

    def test_splitter_chain_shares_one_identity(self):
        normalized, _ = normalize_tree(self._wide_tree(6))
        splits = [n for nid, n in normalized.nodes.items() if nid.startswith("split")]
        assert len(splits) == 4
        assert all(n.cpt is splits[0].cpt for n in splits)


class TestBruteForce:
    def test_identity_channel_pins_root(self):
        tree = identity_tree(evidence_e=(1.0, 0.0))
        bel = brute_force_marginal(tree, "u")
        np.testing.assert_allclose(bel.dist, [1.0, 0.0], atol=1e-15)

    def test_uniform_rows_leave_prior(self):
        tree = build_tree({"nodes": [
            {"id": "u", "domain": 2, "prior": [0.3, 0.7]},
            {"id": "e", "domain": 2, "parent": "u",
             "cpt": [[0.5, 0.5], [0.5, 0.5]], "evidence": [0.9, 0.1]},
            {"id": "f", "domain": 2, "parent": "u",
             "cpt": [[0.5, 0.5], [0.5, 0.5]], "evidence": [0.2, 0.8]},
        ]})
        bel = brute_force_marginal(tree, "u")
        np.testing.assert_allclose(bel.dist, [0.3, 0.7], atol=1e-12)

    def test_matches_full_propagate(self):
        tree = random_tree(7, k=2, rng=np.random.default_rng(123))
        table = full_propagate(tree)
        for node_id in tree.nodes:
            bf = brute_force_marginal(tree, node_id)
            np.testing.assert_allclose(bf.dist, table.beliefs[node_id].dist, atol=1e-12)

    def test_outputs_normalized(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            tree = random_tree(int(rng.integers(3, 15)), k=(2, 3), rng=rng)
            for node_id in tree.nodes:
                assert abs(brute_force_marginal(tree, node_id).dist.sum() - 1.0) < 1e-9

    def test_state_space_cap(self):
        tree = random_tree(31, k=2, rng=np.random.default_rng(1))
        with pytest.raises(StateSpaceTooLarge):
            brute_force_marginal(tree, tree.root, state_cap=1 << 10)

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            brute_force_marginal(identity_tree(), "nope")


class TestRoundTrip:
    def test_spec_round_trip(self):
        tree = random_tree(15, k=(2, 3), rng=np.random.default_rng(9))
        spec = tree_to_spec(tree)
        again = build_tree(json.loads(json.dumps(spec)))
        assert list(again.nodes) == list(tree.nodes) or set(again.nodes) == set(tree.nodes)
        for node_id, node in tree.nodes.items():
            other = again.nodes[node_id]
            assert other.parent == node.parent
            assert other.children == node.children
            if node.cpt is not None:
                np.testing.assert_array_equal(other.cpt, node.cpt)
            if node.prior is not None:
                np.testing.assert_array_equal(other.prior, node.prior)
            if node.evidence is not None:
                np.testing.assert_array_equal(other.evidence, node.evidence)

    @pytest.mark.parametrize("shape", ["star", "normalized-ragged"])
    def test_spec_keeps_declaration_order(self, shape):
        rng = np.random.default_rng(12)
        if shape == "star":
            nodes = [{"id": "r", "domain": 2, "prior": [0.3, 0.7]}]
            nodes += [{"id": f"c{i}", "domain": 2, "parent": "r",
                       "cpt": [[0.9, 0.1], [0.2, 0.8]], "evidence": [1.0, 0.5]}
                      for i in range(3000)]
            tree = build_tree({"nodes": nodes})
        else:
            tree, _ = normalize_tree(ragged_tree(80, rng))
        spec = tree_to_spec(tree)
        assert [entry["id"] for entry in spec["nodes"]] == list(tree.nodes)
        again = build_tree(spec)
        assert {nid: n.children for nid, n in again.nodes.items()} == \
            {nid: n.children for nid, n in tree.nodes.items()}

    def test_file_round_trip(self, tmp_path):
        tree = random_tree(11, k=2, rng=np.random.default_rng(2))
        path = tmp_path / "net.json"
        save_network(tree, path)
        again = load_network(path)
        table_a = full_propagate(tree)
        table_b = full_propagate(again)
        for node_id in tree.nodes:
            np.testing.assert_allclose(table_b.beliefs[node_id].dist,
                                       table_a.beliefs[node_id].dist, atol=1e-15)


@pytest.mark.parametrize("builder, spec, name", [
    (build_tree, {"nodes": [
        {"id": "u", "domain": 2, "prior": [0.5, 0.5]},
        {"id": "e", "domain": True, "parent": "u", "cpt": [[1.0], [1.0]], "evidence": [1.0]},
        {"id": "f", "domain": 2, "parent": "u", "cpt": [[1, 0], [0, 1]], "evidence": [1, 1]},
    ]}, "'e'"),
    (build_polytree, {"variables": [
        {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
        {"id": "b", "domain": True, "parents": ["a"], "cpt": [[1.0], [1.0]]},
    ]}, "'b'"),
], ids=["build_tree", "build_polytree"])
def test_boolean_domain_rejected(builder, spec, name):
    with pytest.raises(FormatError, match=name):
        builder(spec)


# -- one input rule for both kinds ---------------------------------------------------

ROOT = {"id": "u", "domain": 2, "prior": [0.5, 0.5]}
LEAF = {"id": "e", "domain": 2, "parent": "u", "cpt": [[0.9, 0.1], [0.2, 0.8]],
        "evidence": [1.0, 1.0]}


def _with(entry, **changes):
    """entry with changes; a change to None drops the key."""
    return {k: v for k, v in {**entry, **changes}.items() if v is not None}


def _as_polytree(spec):
    """A tree description as a polytree one: "variables", a "parents" list
    for each "parent", no evidence.  What is not a node passes unchanged."""
    if not isinstance(spec, dict):
        return spec
    out = {("variables" if key == "nodes" else key): value for key, value in spec.items()}
    if isinstance(out.get("variables"), list):
        out["variables"] = [
            {**{k: v for k, v in e.items() if k not in ("parent", "evidence")},
             **({"parents": [e["parent"]]} if "parent" in e else {})}
            if isinstance(e, dict) else e for e in out["variables"]]
    return out


# fault: (tree description, error, text the message must contain or None).
# The detached directed cycle is the one fault whose error depends on the
# kind: each keeps its own structural error, Cycle and NotAPolytree.
INPUT_FAULTS = {
    "not-a-dict": ([ROOT, LEAF], FormatError, None),
    "extra-top-level-key": ({"nodes": [ROOT, LEAF], "edges": []}, FormatError, "edges"),
    "entries-not-a-list": ({"nodes": {"u": ROOT}}, FormatError, None),
    "entry-not-a-dict": ({"nodes": [ROOT, "e"]}, FormatError, None),
    "unknown-entry-key": ({"nodes": [ROOT, _with(LEAF, colour="red")]}, FormatError, "colour"),
    "no-id": ({"nodes": [ROOT, _with(LEAF, id=None)]}, FormatError, None),
    "no-domain": ({"nodes": [ROOT, _with(LEAF, domain=None)]}, FormatError, "'e'"),
    "empty-id": ({"nodes": [_with(ROOT, id="")]}, FormatError, "''"),
    "non-string-id": ({"nodes": [ROOT, _with(LEAF, id=7)]}, FormatError, "7"),
    "duplicate-id": ({"nodes": [ROOT, LEAF, LEAF]}, DuplicateId, "'e'"),
    "true-domain": ({"nodes": [_with(ROOT, domain=True, prior=[1.0])]}, FormatError, "'u'"),
    "zero-domain": ({"nodes": [_with(ROOT, domain=0, prior=[])]}, FormatError, "'u'"),
    "string-domain": ({"nodes": [_with(ROOT, domain="2")]}, FormatError, "'u'"),
    "parentless-with-cpt": ({"nodes": [_with(ROOT, cpt=LEAF["cpt"])]}, FormatError, "'u'"),
    "parentless-without-prior": ({"nodes": [_with(ROOT, prior=None)]}, FormatError, "'u'"),
    "numeric-string-prior": ({"nodes": [_with(ROOT, prior=["0.5", "0.5"])]}, FormatError, "'u'"),
    "none-in-cpt": ({"nodes": [ROOT, _with(LEAF, cpt=[[None, 1.0], [0.5, 0.5]])]},
                    FormatError, "'e'"),
    "two-cycle-beside-an-isolated-variable": ({"nodes": [
        ROOT,
        _with(LEAF, id="a", parent="b", evidence=None),
        _with(LEAF, id="b", parent="a", evidence=None),
    ]}, (Cycle, NotAPolytree), "'a'"),
}


@pytest.mark.parametrize("fault", list(INPUT_FAULTS))
def test_each_input_fault_is_reported_alike_by_both_builders(fault):
    spec, error, named = INPUT_FAULTS[fault]
    errors = error if isinstance(error, tuple) else (error, error)
    for builder, description, want in ((build_tree, spec, errors[0]),
                                       (build_polytree, _as_polytree(spec), errors[1])):
        with pytest.raises(LogbelError) as info:
            builder(copy.deepcopy(description))
        assert type(info.value) is want, builder.__name__
        assert named is None or named in str(info.value), (builder.__name__, str(info.value))


@pytest.mark.parametrize("bad_id", ["", 3, None], ids=["empty", "int", "none"])
def test_both_constructors_take_only_non_empty_string_ids(bad_id):
    """The id rule belongs to index_by_id, which CausalTree and Polytree
    both call, so a network built without a description keeps it too."""
    with pytest.raises(FormatError, match="non-empty string"):
        CausalTree([Node(id=bad_id, domain=2, prior=[0.5, 0.5])])
    with pytest.raises(FormatError, match="non-empty string"):
        Polytree([Variable(id=bad_id, domain=2, parents=[], cpt=None, prior=[0.5, 0.5])])


# -- the batched table check against the ordered one ------------------------------

def _polytree_spec(pt):
    return {"variables": [
        {"id": v.id, "domain": v.domain, "parents": list(v.parents),
         **({"cpt": v.cpt.tolist()} if v.parents else {"prior": v.prior.tolist()})}
        for v in pt.variables.values()]}


def _plain(table):
    """A table still as read from JSON: a non-empty list of floats or of
    lists of them."""
    return isinstance(table, list) and len(table) > 0 and all(
        isinstance(x, float) or isinstance(x, list) and all(isinstance(y, float) for y in x)
        for x in table)


def _corrupt(spec, rng, kinds):
    """Damage one plain table of spec (a network description) in one of kinds."""
    entries = spec.get("nodes") or spec["variables"]
    kind = str(rng.choice(kinds))
    if kind.startswith("evidence"):
        key = "evidence"
    else:
        key = "prior" if rng.random() < 0.15 else "cpt"
    holders = [e for e in entries if _plain(e.get(key))]
    if not holders:  # each table of key already has another form or fault
        key = "cpt"
        holders = [e for e in entries if _plain(e.get(key))]
    entry = holders[int(rng.integers(len(holders)))]
    table = entry[key]
    r = int(rng.integers(len(table)))
    row = table[r] if key == "cpt" else table
    col = int(rng.integers(len(row)))
    if kind == "nan":
        row[col] = float("nan")
    elif kind in ("+inf", "-inf"):
        row[col] = np.inf if kind == "+inf" else -np.inf
    elif kind == "negative":
        row[col] -= 1.5
        row[(col + 1) % len(row)] += 1.5
    elif kind == "sum-1+1e-6":
        row[col] += 1e-6
    elif kind == "wrong-shape":
        if key == "cpt" and len(table) > 1:
            table.pop()
        else:
            row.append(0.0)
    elif kind == "row-moved":  # a row short here, a row over in a table of its shape
        others = [e[key] for e in holders if e is not entry and np.shape(e[key]) == np.shape(table)]
        moved = table.pop()
        if others:
            others[0].append(moved)
    elif kind == "ragged-row":
        if key == "cpt":
            row.append(0.0)
        else:
            row[col] = [row[col], 0.0]
    elif kind == "string-entry":
        row[col] = "x"
    elif kind == "numeric-string":
        row[col] = repr(row[col])
    elif kind == "none-entry":
        row[col] = None
    elif kind == "row-as-string":
        text = " ".join(map(repr, row))
        if key == "cpt":
            table[r] = text
        else:
            entry[key] = text
    elif kind == "evidence-all-zero":
        row[:] = [0.0] * len(row)
    elif kind == "evidence-wrong-length":
        row.append(1.0)


FORMS = ["tuple", "ndarray", "fortran", "float32", "int", "bool"]


def _reform(spec, rng, form):
    """Give one plain table of spec another valid form: nested tuples, a
    float64 array (C or Fortran order), or exact float32, int or bool
    entries (one-hot or halves, so that rows still sum to 1)."""
    entries = spec.get("nodes") or spec["variables"]
    holders = [(e, key) for e in entries for key in ("prior", "cpt", "evidence")
               if _plain(e.get(key))]
    entry, key = holders[int(rng.integers(len(holders)))]
    table = np.array(entry[key])
    k = table.shape[-1]
    one_hot = np.eye(k)[rng.integers(k, size=table.shape[:-1])]
    if form == "tuple":
        entry[key] = tuple(map(tuple, table.tolist())) if table.ndim == 2 else tuple(table.tolist())
    elif form in ("ndarray", "fortran"):
        entry[key] = np.asfortranarray(table) if form == "fortran" else table
    elif form == "float32":
        entry[key] = ((one_hot + np.eye(k)[rng.integers(k, size=table.shape[:-1])]) / 2
                      ).astype(np.float32)
    else:
        entry[key] = one_hot.astype(int if form == "int" else bool)


def _outcome(builder, spec):
    try:
        builder(spec)
    except LogbelError as exc:
        return type(exc), str(exc), getattr(exc, "node", None), getattr(exc, "row", None)
    return None


TABLE_KINDS = ["nan", "+inf", "-inf", "negative", "sum-1+1e-6", "wrong-shape", "row-moved",
               "ragged-row", "string-entry", "numeric-string", "none-entry", "row-as-string"]


@pytest.mark.parametrize("family", ["tree", "polytree"])
def test_batched_check_matches_ordered_check(family, monkeypatch):
    """Every table is decided in one block per shape; the batch alone
    accepts exactly the valid networks, in any valid input form, and the
    ordered single-table pass reports exactly the same first error."""
    rng = np.random.default_rng(50)
    if family == "tree":
        builder = build_tree
        kinds = TABLE_KINDS + ["evidence-all-zero", "evidence-wrong-length"]
        specs = [tree_to_spec(random_tree(n, k, rng))
                 for n, k in [(700, 2), (600, 2), (90, (2, 3)), (41, 3)]]
    else:
        builder, kinds = build_polytree, TABLE_KINDS
        specs = [_polytree_spec(random_polytree(n, 3, k, rng))
                 for n, k in [(900, 2), (60, (2, 3))]]
    cases = []
    for spec in specs:
        reformed = copy.deepcopy(spec)
        for form in FORMS * 2:
            _reform(reformed, rng, form)
        cases += [spec, reformed]
        for i in range(12):
            bad = copy.deepcopy(reformed if i % 2 else spec)
            for _ in range(int(rng.integers(1, 3))):
                _corrupt(bad, rng, kinds)
            cases.append(bad)
    batch_valid, decided = TableBatch.valid, []
    monkeypatch.setattr(TableBatch, "valid",
                        lambda self: decided.append(batch_valid(self)) or decided[-1])
    outcomes = [_outcome(builder, copy.deepcopy(spec)) for spec in cases]
    assert decided == [outcome is None for outcome in outcomes]
    monkeypatch.setattr(TableBatch, "valid", lambda self: False)  # ordered pass only
    assert outcomes == [_outcome(builder, copy.deepcopy(spec)) for spec in cases]
    assert outcomes.count(None) == 2 * len(specs)


@pytest.mark.parametrize("ordered", [False, True], ids=["batch", "ordered"])
def test_stored_tables_are_new_c_float64_arrays_of_their_shape(ordered, monkeypatch):
    """CausalTree(nodes) and Polytree(variables), given float64 arrays in C
    and Fortran order, float32 and int arrays, store every table as a new
    float64, C-contiguous array of its edge's shape that shares no memory
    with any array the caller passed, through the batch and through the
    ordered pass alike."""
    if ordered:
        monkeypatch.setattr(TableBatch, "valid", lambda self: False)
    rng = np.random.default_rng(51)
    def one_hot(a, dtype):  # exact in any dtype, so rows still sum to 1
        return np.eye(a.shape[-1], dtype=dtype)[np.zeros(a.shape[:-1], int)]

    forms = [lambda a: a, np.asfortranarray, lambda a: one_hot(a, np.float32),
             lambda a: one_hot(a, int)]

    def given(table, i):
        return None if table is None else forms[i % len(forms)](table)

    tree = random_tree(80, (2, 3), rng)
    nodes = [Node(id=n.id, domain=n.domain, parent=n.parent, cpt=given(n.cpt, i),
                  prior=given(n.prior, i + 1), evidence=given(n.evidence, i + 2))
             for i, n in enumerate(tree.nodes.values())]
    pt = random_polytree(80, 3, (2, 3), rng)
    variables = [Variable(id=v.id, domain=v.domain, parents=list(v.parents),
                          cpt=given(v.cpt, i), prior=given(v.prior, i + 1))
                 for i, v in enumerate(pt.variables.values())]
    passed = [t for e in nodes + variables for t in (e.cpt, e.prior, getattr(e, "evidence", None))
              if isinstance(t, np.ndarray)]
    built, built_pt = CausalTree(nodes), Polytree(variables)
    stored = []
    for node in built.nodes.values():
        parent = None if node.parent is None else built.nodes[node.parent].domain
        stored += [(node.cpt, (parent, node.domain)), (node.prior, (node.domain,)),
                   (node.evidence, (node.domain,))]
    for var in built_pt.variables.values():
        rows = int(np.prod([built_pt.variables[p].domain for p in var.parents]))
        stored += [(var.cpt, (rows, var.domain)), (var.prior, (var.domain,))]
    stored = [(table, shape) for table, shape in stored if table is not None]
    assert len(stored) == len(passed)
    for table, shape in stored:
        assert table.dtype == np.float64 and table.flags.c_contiguous and table.shape == shape
        assert not any(np.shares_memory(table, arr) for arr in passed)

"""normalize_tree and CausalTree.copy against the copy-and-rederive
reference they replaced, and the Node count of a build.

The library copies each node once, positionally with its own child list,
and rewrites the copy into complete binary form in place;
reference_normal_form.py makes every node again by keyword and derives each
child list from the parent links.  Both must give the same nodes in the same
order, the same links, the same shared tables and the same identity ids,
and leave the caller's tree as it was.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_normal_form as reference
from logbel import build_engine, build_tree, normalize_tree, random_polytree
from logbel.generate import random_likelihood
from logbel.model import Node

# ids the dummies would take, declared by the caller instead
TAKEN = ("unit0", "unit1", "unit3", "split0", "split1", "split2", "root0", "root1")
TABLES = ("cpt", "prior", "evidence")


@st.composite
def trees(draw):
    """Wide stars, one-child chains, a lone root, complete binary trees and
    ragged ones, over domains 1-3, some ids colliding with the dummies'
    names and the nodes declared in a drawn order."""
    kind = draw(st.sampled_from(["star", "chain", "lone", "binary", "ragged"]))
    if kind == "lone":
        parents = [None]
    elif kind == "star":
        parents = [None] + [0] * draw(st.integers(1, 40))
    elif kind == "chain":
        parents = [None] + list(range(draw(st.integers(1, 30))))
    elif kind == "binary":
        parents = [None] + [(i - 1) // 2 for i in range(1, 2 * draw(st.integers(1, 20)) + 1)]
    else:
        n = draw(st.integers(2, 40))
        parents = [None] + [draw(st.integers(max(0, i - 5), i - 1)) for i in range(1, n)]
    n = len(parents)
    ids = [f"v{i}" for i in range(n)]
    for name, i in zip(draw(st.lists(st.sampled_from(TAKEN), unique=True, max_size=4)),
                       draw(st.permutations(range(n)))):
        ids[i] = name
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    domains = [int(rng.integers(1, 4)) for _ in range(n)]
    has_child = {p for p in parents if p is not None}
    nodes = []
    for i in draw(st.permutations(range(n))):
        entry = {"id": ids[i], "domain": domains[i]}
        if parents[i] is None:
            entry["prior"] = rng.dirichlet(np.ones(domains[i])).tolist()
        else:
            entry["parent"] = ids[parents[i]]
            entry["cpt"] = rng.dirichlet(np.ones(domains[i]), size=domains[parents[i]]).tolist()
        if i not in has_child and (n > 1 or draw(st.booleans())):
            entry["evidence"] = random_likelihood(domains[i], rng).tolist()
        nodes.append(entry)
    return build_tree({"nodes": nodes})


def snapshot(tree):
    """Everything a tree holds, tables by identity."""
    return tree.root, [(nid, n.domain, n.parent, list(n.children), *map(id, (n.cpt, n.prior,
                                                                            n.evidence)))
                       for nid, n in tree.nodes.items()]


def table_pattern(tree):
    """Per node and table, the first (node, table) holding the same array:
    which tables a tree shares, whatever the arrays are."""
    first, out = {}, []
    for nid, node in tree.nodes.items():
        for attr in TABLES:
            table = getattr(node, attr)
            out.append(None if table is None else first.setdefault(id(table), (nid, attr)))
    return out


def assert_same_tree(ours, theirs, caller):
    """ours and theirs hold the same nodes, links and tables: the caller's
    tables by identity, the others bit for bit, shared alike."""
    assert ours.root == theirs.root
    assert list(ours.nodes) == list(theirs.nodes)
    for nid, node in ours.nodes.items():
        twin = theirs.nodes[nid]
        assert (node.domain, node.parent, node.children) == \
            (twin.domain, twin.parent, twin.children)
        for attr in TABLES:
            mine, ref = getattr(node, attr), getattr(twin, attr)
            assert (mine is None) == (ref is None)
            if mine is None:
                continue
            if nid in caller.nodes and mine is getattr(caller.nodes[nid], attr):
                assert ref is mine
            else:
                assert mine.dtype == ref.dtype and mine.shape == ref.shape
                assert mine.tobytes() == ref.tobytes()
                assert mine.flags.writeable == ref.flags.writeable
    assert table_pattern(ours) == table_pattern(theirs)


def assert_owns_its_nodes(out, caller):
    for nid, node in caller.nodes.items():
        assert out.nodes[nid] is not node
        assert out.nodes[nid].children is not node.children


@settings(derandomize=True, deadline=None, max_examples=150)
@given(trees())
def test_normalize_tree_matches_the_reference(tree):
    before = snapshot(tree)
    ours, identity_ids = normalize_tree(tree)
    theirs, ref_ids = reference.normalize_tree(tree)
    assert snapshot(tree) == before
    assert identity_ids == ref_ids
    assert ours.is_complete_binary()
    if theirs is tree:
        assert ours is tree and identity_ids == []
        return
    assert_same_tree(ours, theirs, tree)
    assert_owns_its_nodes(ours, tree)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(trees())
def test_copy_matches_the_reference(tree):
    before = snapshot(tree)
    ours, theirs = tree.copy(), reference.copy_tree(tree)
    assert snapshot(tree) == before
    assert_same_tree(ours, theirs, tree)
    assert_owns_its_nodes(ours, tree)


@contextlib.contextmanager
def counted_nodes():
    """Count the Node constructions inside the block, in made[0]."""
    made = [0]
    init = Node.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    Node.__init__ = counting
    try:
        yield made
    finally:
        Node.__init__ = init


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_polytree_build_makes_each_node_once(seed):
    pt = random_polytree(200, 3, (2, 3), np.random.default_rng(seed))
    with counted_nodes() as made:
        engine = build_engine(pt)
    assert made[0] == engine.compiled.tree.n


@settings(derandomize=True, deadline=None, max_examples=40)
@given(trees())
def test_normalize_tree_makes_the_copy_and_the_dummies(tree):
    with counted_nodes() as made:
        normalized, _ = normalize_tree(tree)
    dummies = normalized.n - tree.n
    assert made[0] == (0 if normalized is tree else tree.n + dummies)

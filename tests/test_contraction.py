import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logbel.contraction
from logbel import (
    AllZeroLikelihood,
    ConstructionError,
    DimensionMismatch,
    FactoredMatrix,
    Identity,
    LevelOutOfRange,
    NotALeaf,
    TreeTooSmall,
    UnknownNode,
    belief_query,
    build_engine,
    build_tree,
    calc_pi_lambda,
    chain_tree,
    contract,
    full_propagate,
    lambda_query,
    normalize_tree,
    pi_query,
    random_polytree,
    update_evidence,
)
from logbel.contraction import (
    GATHER_ENTRIES,
    KEPT_GATHER_BYTES,
    _cheapest,
    _Diagonal,
    _form,
    materialize,
    matvec_cost,
)
from logbel.counters import sum_costs
from logbel.generate import balanced_tree, random_likelihood, random_tree
from logbel.model import BruteForceOracle
from test_counts import counted_index, ragged_tree, star_tree, totals, work_and_delta


def small_corpus(rng, count=12, lo=5, hi=64, k=(2, 3)):
    for _ in range(count):
        yield random_tree(int(rng.integers(lo, hi)), k=k, rng=rng)


def identity_balanced(n_nodes):
    """Complete binary tree of identity channels with vacuous evidence."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    nodes = [{"id": "n0", "domain": 2, "prior": [0.5, 0.5]}]
    internal = (n_nodes - 1) // 2
    for i in range(1, n_nodes):
        entry = {"id": f"n{i}", "domain": 2, "parent": f"n{(i - 1) // 2}", "cpt": eye}
        if i >= internal:
            entry["evidence"] = [1.0, 1.0]
        nodes.append(entry)
    return build_tree({"nodes": nodes})


class TestChainFixture:
    """Nine-node caterpillar: the worked contraction example, step by step."""

    def _index(self, seed=3):
        return contract(chain_tree(9, k=2, rng=np.random.default_rng(seed)))

    def test_rakes_in_build_order(self):
        index = self._index()
        log = [(rk.level, rk.leaf, rk.parent, rk.owner) for rk in index.leaf_consumer.values()]
        assert log == [
            (1, "e2", "x2", "x1"),
            (1, "e4", "x4", "x3"),
            (2, "e3", "x3", "x1"),
        ]

    def test_leaf_schedule(self):
        index = self._index()
        assert index.leaf_counts == [5, 3, 2]
        assert len(index.levels) == 3

    def test_terminal_form(self):
        index = self._index()
        last = index.levels[-1]
        assert last.leaves == ["e1", "e5"]
        assert set(last.nodes) == {"x1", "e1", "e5"}

    def test_update_trace(self):
        index = self._index()
        rng = np.random.default_rng(0)
        update_evidence(index, "e4", random_likelihood(2, rng))
        trace = [slot.describe() for slot in index.last_update_trace]
        assert trace == [("x3", "right", 1), ("x1", "right", 2)]

    def test_extreme_update_recomputes_nothing(self):
        index = self._index()
        update_evidence(index, "e1", np.array([0.4, 1.0]))
        assert index.last_update_trace == []

    def test_lambda_query_cost(self):
        index = self._index()
        before = index.counters.snapshot()
        lambda_query(index, "x2")
        assert index.counters.delta(before)["equation_evals"] == 2

    def test_beliefs_match_full_propagation(self):
        index = self._index()
        rng = np.random.default_rng(1)
        for leaf in ("e4", "e2", "e5"):
            update_evidence(index, leaf, random_likelihood(2, rng))
        table = full_propagate(index.tree)
        for node_id in index.tree.nodes:
            np.testing.assert_allclose(belief_query(index, node_id).dist,
                                       table.beliefs[node_id].dist, atol=1e-10)


class TestSchedule:
    def test_leaf_recurrence_exact(self):
        rng = np.random.default_rng(17)
        trees = list(small_corpus(rng, count=10, hi=200))
        trees.append(balanced_tree(255, k=2, rng=rng))
        trees.append(chain_tree(99, k=2, rng=rng))
        for tree in trees:
            index = contract(tree)
            counts = index.leaf_counts
            for i in range(len(counts) - 1):
                m = counts[i]
                assert counts[i + 1] == m - math.ceil((m - 2) / 2)
            assert counts[-1] == 2

    def test_round_bound(self):
        rng = np.random.default_rng(18)
        for tree in small_corpus(rng, count=10, hi=400):
            index = contract(tree)
            leaves = len(tree.leaf_order())
            rounds = len(index.leaf_counts) - 1
            assert rounds <= math.ceil(math.log2(leaves)) + 2

    def test_balanced_sixteen_leaves(self):
        index = contract(balanced_tree(31, k=2, rng=np.random.default_rng(19)))
        assert index.leaf_counts == [16, 9, 5, 3, 2]

    def test_terminal_is_root_plus_extremes(self):
        rng = np.random.default_rng(20)
        for tree in small_corpus(rng, count=8):
            index = contract(tree)
            order = tree.leaf_order()
            assert index.levels[-1].leaves == [order[0], order[-1]]
            assert set(index.levels[-1].nodes) == {tree.root, order[0], order[-1]}


class TestStorage:
    def test_space_bound(self):
        rng = np.random.default_rng(21)
        for tree in small_corpus(rng, count=10, hi=300):
            index = contract(tree)
            assert index.base_matrix_count == tree.n - 1
            assert index.stored_matrix_count <= 2 * index.base_matrix_count + 4
            assert len(index.all_slots()) == index.stored_matrix_count

    def test_single_consumer(self):
        rng = np.random.default_rng(22)
        for tree in small_corpus(rng, count=6):
            index = contract(tree)
            outputs = set()
            for slot in index.all_slots():
                if slot.consumer is not None:
                    assert slot.consumer.output is not slot
                    outputs.add(id(slot.consumer.output))
            for leaf, equation in index.leaf_consumer.items():
                assert equation.leaf == leaf
            stored = {id(slot) for slot in index.all_slots()}
            assert outputs <= stored

    def test_one_record_per_rake(self):
        rng = np.random.default_rng(24)
        trees = list(small_corpus(rng, count=6, hi=120))
        trees += [normalize_tree(ragged_tree(n, rng))[0] for n in (9, 40, 150)]
        for tree in trees:
            index = contract(tree)
            rakes = index.leaf_consumer.values()
            assert sum(len(recs) - 1 for recs in index.records.values()) == len(rakes)
            for r in rakes:
                versions = index.records[r.owner]
                at = next(i for i, rec in enumerate(versions) if rec is r)
                assert at > 0 and versions[at - 1].above is r
                assert r.rewrites is versions[at - 1]
                assert r.kept is r.side_slot(1 - r.parent_side)
                assert index.records[r.parent][-1].above is r
                assert index.leaf_consumer[r.leaf] is r
                assert r.output.level == r.level
            again = index.records
            assert all(a is b for owner, recs in again.items()
                       for a, b in zip(recs, index.records[owner], strict=True))

    def test_each_stored_matrix_is_one_object(self):
        """A rake is its own output slot, all_slots() hands out the stored
        objects themselves, and nothing outside the index keeps it alive."""
        rng = np.random.default_rng(25)
        for tree in [*small_corpus(rng, count=4, hi=120), normalize_tree(star_tree(30, rng))[0]]:
            index = contract(tree)
            slots = index.all_slots()
            assert [id(s) for s in slots] == [id(s) for s in index.all_slots()]
            for k, rk in enumerate(index.leaf_consumer.values()):
                assert rk.output is rk
                assert slots[index.base_matrix_count + k] is rk
            leaf = tree.leaf_order()[1]
            update_evidence(index, leaf, random_likelihood(tree.nodes[leaf].domain, rng))
            trace = index.last_update_trace
            assert trace[0] is index.leaf_consumer[leaf]
            assert all(a.consumer is b for a, b in zip(trace, trace[1:]))
            assert trace[-1].consumer is None
            assert index.records and belief_query(index, leaf)
            alive = weakref.ref(index)
            del index, slots, trace, rk
            gc.collect()
            assert alive() is None

    def test_deterministic_rebuild(self):
        tree = random_tree(61, k=(2, 3), rng=np.random.default_rng(23))
        a = contract(tree)
        b = contract(tree)
        slots_a, slots_b = a.all_slots(), b.all_slots()
        assert len(slots_a) == len(slots_b)
        for sa, sb in zip(slots_a, slots_b):
            assert sa.describe() == sb.describe()
            assert np.array_equal(materialize(sa.coeff), materialize(sb.coeff))

    def test_identity_channels_stay_identity(self):
        index = contract(identity_balanced(31))
        for slot in index.all_slots():
            np.testing.assert_allclose(materialize(slot.coeff), np.eye(2), atol=1e-15)


def replay_schedule(tree):
    """The rake schedule replayed from the tree alone: for each round, the
    frontier and every present node's children (() for a leaf).  A round
    rakes every other interior leaf of the frontier, from the second leaf
    on, each in turn: the leaf and its parent go, and the leaf's sibling
    takes the parent's place."""
    children = {nid: tuple(node.children) for nid, node in tree.nodes.items()}
    parent = {nid: node.parent for nid, node in tree.nodes.items()}

    def frontier():
        out, stack = [], [tree.root]
        while stack:
            node = stack.pop()
            if children[node]:
                stack.extend(reversed(children[node]))
            else:
                out.append(node)
        return out

    rounds = [(frontier(), dict(children))]
    while len(rounds[-1][0]) > 2:
        for leaf in rounds[-1][0][1:-1:2]:
            x = parent[leaf]
            u = parent[x]
            z = next(c for c in children[x] if c != leaf)
            children[u] = tuple(z if c == x else c for c in children[u])
            parent[z] = u
            del children[leaf], children[x]
        rounds.append((frontier(), dict(children)))
    return rounds


class TestLevelViews:
    """levels[L] is built when read from the stored equation versions; it
    must describe the tree the replayed schedule reaches after round L."""

    def test_views_match_replayed_schedule(self):
        rng = np.random.default_rng(40)
        trees = list(small_corpus(rng, count=5, hi=120))
        trees += [normalize_tree(ragged_tree(n, rng))[0] for n in (9, 40, 150)]
        trees.append(chain_tree(41, k=2, rng=rng))
        for tree in trees:
            index = contract(tree)
            rounds = replay_schedule(tree)
            assert len(index.levels) == len(rounds)
            for level, (leaves, children) in zip(index.levels, rounds):
                assert level.leaves == leaves
                view = level.nodes
                assert set(view) == set(children)
                for node_id, kids in children.items():
                    rec = view[node_id]
                    assert (() if rec is None else (rec.left_child, rec.right_child)) == kids
                    assert rec is None or rec.level <= level.index

    def test_view_is_read_only(self):
        index = contract(chain_tree(9, k=2, rng=np.random.default_rng(3)))
        with pytest.raises(TypeError):
            index.levels[0].nodes["x1"] = None


class TestLevelEquivalence:
    """Each level's stored equations reproduce the base-tree lambdas."""

    def _lambda_from_level(self, index, level, node_id):
        if node_id in index.evidence:
            return index.evidence[node_id]
        rec = level.nodes[node_id]
        left = self._lambda_from_level(index, level, rec.left_child)
        right = self._lambda_from_level(index, level, rec.right_child)
        return (materialize(rec.left.coeff) @ left) * (materialize(rec.right.coeff) @ right)

    def test_every_level_matches_base_lambdas(self):
        rng = np.random.default_rng(24)
        for tree in small_corpus(rng, count=6, hi=50):
            index = contract(tree)
            table = full_propagate(tree)
            for level in index.levels:
                for node_id, rec in level.nodes.items():
                    if rec is None:
                        continue
                    got = self._lambda_from_level(index, level, node_id)
                    np.testing.assert_allclose(got, table.lambdas[node_id],
                                               rtol=1e-12, atol=1e-300)


class TestQueries:
    def _storm(self, index, rng, ops=25):
        leaves = index.tree.leaf_order()
        for _ in range(ops):
            leaf = str(rng.choice(leaves))
            update_evidence(index, leaf,
                            random_likelihood(index.tree.nodes[leaf].domain, rng))

    def test_oracle_equality_after_updates(self):
        rng = np.random.default_rng(25)
        for tree in small_corpus(rng, count=8, hi=70):
            index = contract(tree)
            self._storm(index, rng)
            table = full_propagate(index.tree)
            for node_id in tree.nodes:
                np.testing.assert_allclose(lambda_query(index, node_id),
                                           table.lambdas[node_id], rtol=1e-9, atol=1e-300)
                np.testing.assert_allclose(pi_query(index, node_id),
                                           table.pis[node_id], rtol=1e-9, atol=1e-300)
                np.testing.assert_allclose(belief_query(index, node_id).dist,
                                           table.beliefs[node_id].dist, atol=1e-10)

    def test_updated_index_equals_scratch_rebuild(self):
        rng = np.random.default_rng(26)
        tree = random_tree(63, k=2, rng=rng)
        index = contract(tree)
        self._storm(index, rng, ops=60)
        fresh = contract(index.tree)
        old_slots, new_slots = index.all_slots(), fresh.all_slots()
        assert len(old_slots) == len(new_slots)
        for sa, sb in zip(old_slots, new_slots):
            assert sa.describe() == sb.describe()
            np.testing.assert_allclose(materialize(sa.coeff), materialize(sb.coeff),
                                       rtol=1e-12, atol=1e-300)

    def test_update_trace_bound(self):
        rng = np.random.default_rng(27)
        for tree in small_corpus(rng, count=6, hi=130):
            index = contract(tree)
            bound = 2 * math.ceil(math.log2(tree.n))
            for leaf in tree.leaf_order():
                update_evidence(index, leaf,
                                random_likelihood(tree.nodes[leaf].domain, rng))
                assert len(index.last_update_trace) <= bound

    def test_scale_invariance(self):
        rng = np.random.default_rng(28)
        tree = random_tree(41, k=(2, 3), rng=rng)
        index = contract(tree)
        leaf = tree.leaf_order()[3]
        vec = random_likelihood(tree.nodes[leaf].domain, rng)
        update_evidence(index, leaf, vec)
        base = {nid: belief_query(index, nid).dist.copy() for nid in tree.nodes}
        update_evidence(index, leaf, 7.25 * vec)
        for nid in tree.nodes:
            np.testing.assert_allclose(belief_query(index, nid).dist, base[nid],
                                       atol=1e-12)

    def test_walks_match_full_propagate_on_every_shape(self):
        """A walk carries lambda only on the side of each owner it
        descends through, and the message on the other.  After 60 updates,
        every node's belief and pi on a chain, a normalized star, a
        balanced and a random tree, and a compiled polytree whose edges
        include identities and factored matrices, are those of
        full_propagate to 1e-12."""
        rng = np.random.default_rng(35)
        compiled = build_engine(random_polytree(40, 3, 3, np.random.default_rng(2))).compiled
        assert {type(coeff) for coeff in compiled.coeffs.values()} == {Identity, FactoredMatrix}
        networks = [(chain_tree(40, k=2, rng=rng), None),
                    (normalize_tree(star_tree(40, rng))[0], None),
                    (balanced_tree(63, 3, rng), None),
                    (random_tree(80, k=(2, 3), rng=rng), None),
                    (compiled.tree, compiled.coeffs)]
        for tree, coeffs in networks:
            index = contract(tree.copy(), coeffs=coeffs)
            leaves = index.tree.leaf_order()
            for _ in range(60):
                leaf = leaves[int(rng.integers(len(leaves)))]
                update_evidence(index, leaf,
                                random_likelihood(index.tree.nodes[leaf].domain, rng))
            table = full_propagate(index.tree)
            for node_id in index.tree.nodes:
                np.testing.assert_allclose(belief_query(index, node_id).dist,
                                           table.beliefs[node_id].dist, rtol=0, atol=1e-12)
                want = table.pis[node_id]
                assert np.max(np.abs(pi_query(index, node_id) - want)) <= 1e-12 * np.max(want)

    def test_query_cost_bounds(self):
        rng = np.random.default_rng(29)
        for tree in small_corpus(rng, count=5, hi=260, k=2):
            index = contract(tree)
            self._storm(index, rng, ops=10)
            rounds = len(index.leaf_counts) - 1
            for node_id in tree.nodes:
                before = index.counters.snapshot()
                lambda_query(index, node_id)
                assert index.counters.delta(before)["equation_evals"] <= rounds + 1
                before = index.counters.snapshot()
                pi_query(index, node_id)
                assert index.counters.delta(before)["equation_evals"] <= 2 * rounds + 2
                belief_query(index, node_id)
                assert index.last_calc_depth <= 2 * rounds


def _dense(scaled):
    """A rake's cached scaled parent as a dense matrix."""
    return np.diag(scaled.diag) if isinstance(scaled, _Diagonal) else materialize(scaled)


class TestCachedDiagonal:
    """Every rake's diag is e_side . lambda(leaf), and its scaled is
    parent_input * diag, under the evidence in force, whichever slot each
    update's chain entered it through."""

    ENTRY_SLOTS = {"e_side", "parent", "z_side"}

    @staticmethod
    def _stream(index, leaves, rng, ops=60):
        """Random updates that include both extreme leaves, which no rake
        consumes; returns the slots the chains entered rakes through after
        their first step."""
        entered = set()
        for i in range(ops):
            leaf = leaves[i] if i < 2 else leaves[int(rng.integers(len(leaves)))]
            update_evidence(index, leaf, random_likelihood(index.tree.nodes[leaf].domain, rng))
            for slot in index.last_update_trace[:-1]:
                rk = slot.consumer
                entered.add("e_side" if slot is rk.e_side_input
                            else "parent" if slot is rk.parent_input else "z_side")
        return entered

    @staticmethod
    def _assert_fresh(index, rebuilt):
        assert len(index.leaf_consumer) == len(rebuilt.leaf_consumer)
        for rk, fresh in zip(index.leaf_consumer.values(), rebuilt.leaf_consumer.values()):
            assert (rk.leaf, rk.level) == (fresh.leaf, fresh.level)
            want = materialize(rk.e_side_input.coeff) @ index.evidence[rk.leaf]
            np.testing.assert_allclose(rk.diag, want, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(rk.diag, fresh.diag, rtol=1e-12, atol=1e-300)
            scaled = _dense(rk.scaled)
            np.testing.assert_allclose(scaled, materialize(rk.parent_input.coeff) * rk.diag,
                                       rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(scaled, _dense(fresh.scaled), rtol=1e-12, atol=1e-300)

    def test_trees(self):
        rng = np.random.default_rng(41)
        trees = [chain_tree(61, 2, rng), balanced_tree(63, (2, 3), rng),
                 normalize_tree(ragged_tree(50, rng))[0]]
        trees += list(small_corpus(rng, count=4, hi=90))
        entered = set()
        for tree in trees:
            index = contract(tree)
            order = tree.leaf_order()
            entered |= self._stream(index, [order[0], order[-1], *order], rng)
            self._assert_fresh(index, contract(index.tree.copy()))
        assert entered == self.ENTRY_SLOTS

    def test_compiled_polytrees(self):
        rng = np.random.default_rng(42)
        entered = set()
        for _ in range(4):
            engine = build_engine(random_polytree(int(rng.integers(6, 20)), 3, (2, 3), rng))
            index, compiled = engine.index, engine.compiled
            order = index.tree.leaf_order()
            leaves = [order[0], order[-1], *compiled.evidence_leaf.values()]
            entered |= self._stream(index, leaves, rng, ops=40)
            self._assert_fresh(index, contract(index.tree.copy(), coeffs=compiled.coeffs))
        assert entered == self.ENTRY_SLOTS

    def test_coefficient_forms(self):
        """Dense, identity and factored edges given through coeffs: a rake
        through an identity parent caches a _Diagonal, one through a
        factored parent a FactoredMatrix."""
        rng = np.random.default_rng(43)
        entered, kinds = set(), set()
        for _ in range(3):
            tree = random_tree(61, k=3, rng=rng)
            coeffs = {}
            for nid in tree.nodes:
                form = int(rng.integers(3))  # 0 keeps the dense table
                if nid != tree.root and form:
                    coeffs[nid] = Identity(3) if form == 1 else FactoredMatrix(
                        rng.random((3, 1)), rng.random((1, 3)))
            index = contract(tree, coeffs=coeffs)
            order = tree.leaf_order()
            entered |= self._stream(index, [order[0], order[-1], *order], rng)
            kinds |= {type(rk.scaled) for rk in index.leaf_consumer.values()}
            self._assert_fresh(index, contract(index.tree.copy(), coeffs=coeffs))
        assert entered == self.ENTRY_SLOTS
        assert kinds == {np.ndarray, FactoredMatrix, _Diagonal}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_slot_forms_are_fixed_and_interned(seed):
    """Dense, factored (widths that pay and that do not) and identity edges
    on a random tree: after an update stream, every slot's form is still
    that of its coefficient, and equal forms are one tuple object."""
    rng = np.random.default_rng(seed)
    tree = random_tree(int(rng.integers(5, 60)), k=3, rng=rng)
    coeffs = {}
    for nid in tree.nodes:
        form = int(rng.integers(3))  # 0 keeps the dense table
        if nid != tree.root and form:
            width = int(rng.integers(1, 4))
            coeffs[nid] = Identity(3) if form == 1 else FactoredMatrix(
                rng.random((3, width)), rng.random((width, 3)))
    index = contract(tree, coeffs=coeffs)
    leaves = tree.leaf_order()
    for _ in range(20):
        leaf = leaves[int(rng.integers(len(leaves)))]
        update_evidence(index, leaf, random_likelihood(3, rng))
    slots = index.all_slots()
    for slot in slots:
        assert slot.form is _form(slot.coeff)
    assert len({id(slot.form) for slot in slots}) == len({slot.form for slot in slots})


def _arrays(coeff):
    """The arrays a stored coefficient or a cached scaled parent holds."""
    if isinstance(coeff, np.ndarray):
        return [coeff]
    if isinstance(coeff, FactoredMatrix):
        return [coeff.left, coeff.right]
    return [coeff.diag] if isinstance(coeff, _Diagonal) else []  # Identity: none


def test_no_stored_coefficient_is_written_in_place():
    """After every op, every stored coefficient (both factors of a factored
    one), every rake's diag and every rake's scaled are made read-only; the
    stream goes on and answers like brute force.  A rake's output may be
    its own cached scaled (a dense parent over an identity z side), so an
    update that wrote an output in place would also rewrite that cache."""
    rng = np.random.default_rng(44)
    kinds = set()
    for _ in range(4):
        tree = random_tree(15, k=2, rng=rng)
        coeffs = {}
        for nid in tree.nodes:
            form = int(rng.integers(3))  # 0 keeps the dense table
            if nid != tree.root and form:
                coeffs[nid] = Identity(2) if form == 1 else FactoredMatrix(
                    np.ones((2, 1)), rng.dirichlet(np.ones(2))[None, :])
                tree.nodes[nid].cpt = materialize(coeffs[nid])
        index, oracle = contract(tree, coeffs=coeffs), BruteForceOracle(tree)
        leaves, ids = tree.leaf_order(), list(tree.nodes)
        kinds |= {type(rk.scaled) for rk in index.leaf_consumer.values()}
        for step in range(40):
            for arr in [arr for slot in index.all_slots() for arr in _arrays(slot.coeff)] + [
                    arr for rk in index.leaf_consumer.values()
                    for arr in [rk.diag, *_arrays(rk.scaled)]]:
                arr.flags.writeable = False
            if step % 2:
                node_id = ids[int(rng.integers(len(ids)))]
                np.testing.assert_allclose(belief_query(index, node_id).dist,
                                           oracle.query(node_id).dist, rtol=0, atol=1e-9)
            else:
                leaf = leaves[int(rng.integers(len(leaves)))]
                vec = random_likelihood(2, rng)
                update_evidence(index, leaf, vec)
                oracle.update(leaf, vec)
    assert kinds == {np.ndarray, FactoredMatrix, _Diagonal}


def _broadcast_rake(parent, diag, z_side):
    """A rake's scaled parent and output, with the diagonal broadcast over
    each matrix it scales rather than gathered."""
    if isinstance(parent, np.ndarray):
        scaled = parent * diag
    elif isinstance(parent, FactoredMatrix):
        scaled = FactoredMatrix(parent.left, parent.right * diag)
    else:  # Identity
        scaled = _Diagonal(diag)
    if isinstance(z_side, Identity):
        if isinstance(scaled, _Diagonal):
            return scaled, np.diag(diag)
        return scaled, (scaled if isinstance(scaled, np.ndarray)
                        else _cheapest(scaled.left, scaled.right))
    if isinstance(scaled, _Diagonal):
        if isinstance(z_side, np.ndarray):
            return scaled, diag[:, None] * z_side
        return scaled, _cheapest(diag[:, None] * z_side.left, z_side.right)
    if isinstance(scaled, np.ndarray):
        out = scaled.dot(z_side) if isinstance(z_side, np.ndarray) else (
            scaled.dot(z_side.left).dot(z_side.right))
        return scaled, out
    right = scaled.right.dot(z_side) if isinstance(z_side, np.ndarray) else (
        scaled.right.dot(z_side.left).dot(z_side.right))
    return scaled, _cheapest(scaled.left, right)


def _bytes(coeff):
    """A coefficient's type and the bytes of every array it holds."""
    return type(coeff), [(arr.shape, arr.tobytes()) for arr in _arrays(coeff)]


def test_scaling_gathers_the_bits_a_broadcast_gives():
    """After an update stream over a compiled polytree (dense and identity
    parents) and over trees with identity and factored edges given through
    coeffs, every rake's scaled parent and output hold, byte for byte, what
    broadcasting its diagonal gives.  Every dense parent's spread is one
    object per shape, a read-only index array on matrices small enough to
    gather on."""
    rng = np.random.default_rng(45)
    indexes = [build_engine(random_polytree(40, 3, (2, 3), rng)).index]
    for _ in range(3):
        tree = random_tree(61, k=3, rng=rng)
        coeffs = {}
        for nid in tree.nodes:
            form = int(rng.integers(3))  # 0 keeps the dense table
            if nid != tree.root and form:
                width = int(rng.integers(1, 4))
                coeffs[nid] = Identity(3) if form == 1 else FactoredMatrix(
                    rng.random((3, width)), rng.random((width, 3)))
        indexes.append(contract(tree, coeffs=coeffs))
    parents, spreads = set(), {}
    for index in indexes:
        leaves = index.tree.leaf_order()
        for _ in range(80):
            leaf = leaves[int(rng.integers(len(leaves)))]
            update_evidence(index, leaf, random_likelihood(index.tree.nodes[leaf].domain, rng))
        for rk in index.leaf_consumer.values():
            parent = rk.parent_input.coeff
            parents.add(type(parent))
            scaled, out = _broadcast_rake(parent, rk.diag, rk.z_side_input.coeff)
            assert _bytes(rk.scaled) == _bytes(scaled)
            assert _bytes(rk.coeff) == _bytes(out)
            if isinstance(parent, np.ndarray):
                assert spreads.setdefault(parent.shape, rk.spread) is rk.spread
                if parent.size <= GATHER_ENTRIES:
                    assert rk.spread.shape == parent.shape and not rk.spread.flags.writeable
            else:
                assert rk.spread is None
    assert parents == {np.ndarray, FactoredMatrix, Identity}
    assert {isinstance(spread, np.ndarray) for spread in spreads.values()} == {True, False}


def _gather_of(rk):
    """What a rake's parent is multiplied by: its diagonal, gathered by its
    spread where it has one."""
    return rk.diag if rk.spread is None else rk.diag[rk.spread]


def test_parent_side_steps_reuse_the_kept_gather():
    """A rake keeps a gathered diagonal only where its parent slot is
    another rake's output and the gather fits KEPT_GATHER_BYTES, and the
    kept one holds the bits of diag[spread], contiguous, after the build
    and after every update.  A chain step entered through the parent slot
    multiplies by the kept gather without making a new one; one entered
    through the e side refreshes it.  Balanced trees have no parent-side
    steps, so none of their rakes keeps one."""
    rng = np.random.default_rng(34)
    indexes = {"star": contract(normalize_tree(star_tree(300, rng))[0]),
               "balanced": contract(balanced_tree(255, 2, rng)),
               "polytree": build_engine(random_polytree(60, 3, 2, rng)).index}
    for name, index in indexes.items():
        rakes = index.leaf_consumer.values()

        def check_kept():
            for rk in rakes:
                if (isinstance(rk.parent_input, logbel.contraction.RakeEquation)
                        and _gather_of(rk).nbytes <= KEPT_GATHER_BYTES):
                    assert _bytes(rk.gathered) == _bytes(_gather_of(rk)), name
                    assert rk.gathered.flags.c_contiguous, name  # a strided one multiplies slower
                else:
                    assert rk.gathered is None, name

        check_kept()
        entered = [0, 0, 0]
        leaves = index.tree.leaf_order()
        for _ in range(60):
            leaf = leaves[int(rng.integers(len(leaves)))]
            before = {rk: rk.gathered for rk in rakes}
            update_evidence(index, leaf, random_likelihood(index.tree.nodes[leaf].domain, rng))
            entry = 0
            for rk in index.last_update_trace:
                entered[entry] += 1
                if entry == 1:
                    assert rk.gathered is before[rk], name
                elif entry == 0 and rk.gathered is not None:
                    assert rk.gathered is not before[rk], name
                entry = rk.enters
            check_kept()
        assert (entered[1] > 0) == (name != "balanced"), (name, entered)
        assert any(rk.gathered is not None for rk in rakes) == (name != "balanced"), name
    # the polytree has rake-output parents on both sides of the size cut
    assert any(rk.gathered is None and isinstance(rk.parent_input, logbel.contraction.RakeEquation)
               for rk in indexes["polytree"].leaf_consumer.values())


class TestStats:
    """stats() reports the index's shape against the paper's bounds."""

    @staticmethod
    def _trees(n):
        rng = np.random.default_rng(n)
        return {"chain": chain_tree(n, 2, rng), "balanced": balanced_tree(n, 2, rng),
                "random": random_tree(n, (2, 3), rng),
                "star": normalize_tree(star_tree(n // 2, rng))[0]}

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_chains_and_walks_stay_within_twice_log_n(self, n):
        """The paper's claim as a bound: no update chain and no query walk
        is longer than 2 ceil(log2 N)."""
        for name, tree in self._trees(n).items():
            stats = contract(tree).stats()
            bound = 2 * math.ceil(math.log2(tree.n))
            assert stats["log_bound"] == bound
            assert 0 < stats["longest_update_chain"] <= bound, name
            assert 0 < stats["deepest_query_walk"] <= bound, name
            assert stats["stored_matrices"] <= stats["storage_bound"], name

    def test_stats_match_what_updates_and_queries_do(self):
        rng = np.random.default_rng(45)
        for tree in small_corpus(rng, count=4, hi=200):
            index = contract(tree)
            stats = index.stats()
            assert stats["rake_levels"] == len(index.levels) - 1
            assert stats["stored_matrices"] == index.stored_matrix_count
            assert stats["storage_bound"] == 2 * index.base_matrix_count + 4
            chains, walks = [], []
            for leaf in tree.leaf_order():
                update_evidence(index, leaf, random_likelihood(tree.nodes[leaf].domain, rng))
                chains.append(len(index.last_update_trace))
                assert index.stats()["last_update_chain"] == chains[-1]
            for node_id in tree.nodes:
                belief_query(index, node_id)
                walks.append(index.last_calc_depth)
                assert index.stats()["last_walk_depth"] == walks[-1]
            assert stats["longest_update_chain"] == max(chains)
            assert stats["deepest_query_walk"] == max(walks)


class TestWalkDepth:
    def test_depth_is_that_of_the_last_walk(self):
        index = contract(chain_tree(301, k=2, rng=np.random.default_rng(4)))
        depths = {}
        for node_id in index.tree.nodes:
            belief_query(index, node_id)
            depths[node_id] = index.last_calc_depth
        deep = max(depths, key=depths.get)
        assert depths[deep] >= 8
        shallow = [index.root, *index.levels[-1].leaves]
        for node_id in shallow:
            belief_query(index, deep)
            assert index.last_calc_depth == depths[deep]
            belief_query(index, node_id)
            assert index.last_calc_depth == 0
        pi_query(index, deep)
        pi_query(index, index.root)
        assert index.last_calc_depth == 0
        calc_pi_lambda(index, index.root, len(index.levels) - 1)
        assert index.last_calc_depth == 0

    def test_depth_counts_the_versions_climbed(self):
        rng = np.random.default_rng(31)
        for tree in small_corpus(rng, count=4, hi=120):
            index = contract(tree)
            for node_id in tree.nodes:
                if node_id in index.evidence:
                    event = index.leaf_consumer.get(node_id)
                    owner = index.root if event is None else event.parent
                else:
                    owner = node_id
                rec, climbed = index.records[owner][-1], 0
                while rec.above is not None:
                    rec, climbed = rec.above, climbed + 1
                belief_query(index, node_id)
                assert index.last_calc_depth == climbed


class TestCalcPiLambda:
    def test_matches_full_propagation_at_every_level(self):
        rng = np.random.default_rng(30)
        for tree in small_corpus(rng, count=5, hi=40):
            index = contract(tree)
            table = full_propagate(tree)
            for level in index.levels:
                for node_id, rec in level.nodes.items():
                    if rec is None:
                        continue
                    triple = calc_pi_lambda(index, node_id, level.index)
                    np.testing.assert_allclose(triple.pi, table.pis[node_id],
                                               rtol=1e-9, atol=1e-300)
                    np.testing.assert_allclose(triple.lambda_left,
                                               table.lambdas[rec.left_child],
                                               rtol=1e-9, atol=1e-300)
                    np.testing.assert_allclose(triple.lambda_right,
                                               table.lambdas[rec.right_child],
                                               rtol=1e-9, atol=1e-300)

    def test_results_own_their_arrays(self):
        index = contract(chain_tree(9, k=2, rng=np.random.default_rng(3)))
        before = belief_query(index, "x1").dist
        for level in index.levels:
            triple = calc_pi_lambda(index, index.root, level.index)
            for vec in (triple.pi, triple.lambda_left, triple.lambda_right):
                vec[:] = [1.0, 0.0]
        np.testing.assert_array_equal(belief_query(index, "x1").dist, before)

    @staticmethod
    def _counted(index, thunk):
        """What thunk returns, and the five counts it added."""
        before = totals(index.counters)
        out = thunk()
        return out, tuple(a - b for a, b in zip(totals(index.counters), before))

    @pytest.mark.parametrize("kind", ["chain", "star", "balanced", "random", "polytree"])
    def test_a_triple_is_its_parts(self, kind):
        """After an update stream, calc_pi_lambda at every level where a node
        is present is, bit for bit, pi_query of the node and lambda_query of
        the two children of its version there, and counts what those three
        count.  At every node, pi_query counts what belief_query counts
        less the work the belief does after pi: an internal node's z side
        message (both messages at the root) and their product, then the
        product with lambda."""
        rng = np.random.default_rng(37)
        coeffs = None
        if kind == "chain":
            tree = chain_tree(61, 2, rng)
        elif kind == "star":
            tree = normalize_tree(star_tree(40, rng))[0]
        elif kind == "balanced":
            tree = balanced_tree(63, (2, 3), rng)
        elif kind == "random":
            tree = random_tree(90, (2, 3), rng)
        else:
            compiled = build_engine(random_polytree(40, 3, 3, np.random.default_rng(2))).compiled
            tree, coeffs = compiled.tree, compiled.coeffs
            assert {type(coeff) for coeff in coeffs.values()} == {Identity, FactoredMatrix}
        index = contract(tree, coeffs=coeffs)
        leaves = tree.leaf_order()
        for _ in range(30):
            leaf = leaves[int(rng.integers(len(leaves)))]
            update_evidence(index, leaf, random_likelihood(tree.nodes[leaf].domain, rng, floor=0.5))
        triples = 0
        for level in index.levels:
            for node, rec in level.nodes.items():
                if rec is None:
                    continue
                triple, cost = self._counted(index, lambda: calc_pi_lambda(index, node, level.index))
                parts = [self._counted(index, query) for query in (
                    lambda: pi_query(index, node), lambda: lambda_query(index, rec.left_child),
                    lambda: lambda_query(index, rec.right_child))]
                for got, (want, _) in zip((triple.pi, triple.lambda_left, triple.lambda_right), parts):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (node, level.index)
                assert cost == tuple(map(sum, zip(*(part for _, part in parts)))), (node, level.index)
                triples += 1
        assert triples > len(index.records)
        for node in tree.nodes:
            _, pi_cost = self._counted(index, lambda: pi_query(index, node))
            _, belief_cost = self._counted(index, lambda: belief_query(index, node))
            K = tree.nodes[node].domain
            after = (0, 0, 0, K, 0)
            if node == index.root:
                rec = index.records[node][-1]
                after = sum_costs(after, sum_costs(matvec_cost(rec.left.form), matvec_cost(rec.right.form)))
                after = sum_costs(after, (0, 0, 1, K, 0))
            elif node not in index.evidence:
                rake = index.records[node][-1].above
                after = sum_costs(after, sum_costs(matvec_cost(rake.z_side_input.form), (0, 0, 1, K, 0)))
            assert sum_costs(pi_cost, after) == belief_cost, node

    def test_level_out_of_range(self):
        index = contract(chain_tree(9, k=2, rng=np.random.default_rng(3)))
        with pytest.raises(LevelOutOfRange):
            calc_pi_lambda(index, "x1", 99)
        with pytest.raises(LevelOutOfRange):
            calc_pi_lambda(index, "x2", 2)  # x2 was removed at level 1
        with pytest.raises(LevelOutOfRange):
            calc_pi_lambda(index, "e1", 0)  # leaves carry no equations
        with pytest.raises(UnknownNode):
            calc_pi_lambda(index, "nope", 0)


def test_each_pi_lambda_and_level_query_counts_the_work_it_does():
    """The dense tree with every coefficient a Counted array, after some
    updates: each pi_query and lambda_query at every node, and each
    calc_pi_lambda at every (node, level) with an equation, measured alone,
    adds to the counters exactly the products numpy computed (the equation
    evaluations aside).  pi_query's nodes are the root, the two extreme
    leaves, the raked leaves and the other internal nodes."""
    rng = np.random.default_rng(5)
    tree, index, _ = counted_index(rng)
    leaves = tree.leaf_order()
    for leaf in leaves[::3]:
        update_evidence(index, leaf, random_likelihood(tree.nodes[leaf].domain, rng))
    extreme, raked = set(index.levels[-1].leaves), set(index.leaf_consumer)
    assert len(extreme) == 2 and extreme.isdisjoint(raked) and extreme | raked == set(leaves)
    assert set(tree.nodes) == {tree.root} | set(leaves) | set(index.records)
    for query in (pi_query, lambda_query):
        for node in tree.nodes:
            work, delta = work_and_delta(index, lambda: query(index, node))
            assert work == delta, (query.__name__, node)
    equations = [(node, level.index) for level in index.levels
                 for node, rec in level.nodes.items() if rec is not None]
    assert {node for node, _ in equations} == set(index.records)
    for node, level in equations:
        work, delta = work_and_delta(index, lambda: calc_pi_lambda(index, node, level))
        assert work == delta, (node, level)

def test_every_exported_name_resolves():
    assert len(set(logbel.__all__)) == len(logbel.__all__)
    for name in logbel.__all__:
        assert hasattr(logbel, name), name


def test_contract_rakes_through_the_module_attribute(monkeypatch):
    """rake is not exported, but contract calls it through the module's
    global, once per pass of a round, so a wrapper installed there sees
    every rake: the passes cover each rake once, round by round, the
    leaves that are left children first."""
    assert "rake" not in logbel.__all__
    real, seen = logbel.contraction.rake, []

    def spy(build, level, rows, side):
        seen.append((level, side, rows.tolist()))
        return real(build, level, rows, side)

    monkeypatch.setattr(logbel.contraction, "rake", spy)
    for tree in (chain_tree(9, k=2, rng=np.random.default_rng(3)),
                 random_tree(61, k=2, rng=np.random.default_rng(3))):
        seen.clear()
        index = contract(tree)
        rakes = list(index.leaf_consumer.values())
        assert sorted((level, k) for level, _, rows in seen for k in rows) == [
            (rk.level, k) for k, rk in enumerate(rakes)] != []
        assert [(level, side) for level, side, _ in seen] == sorted(
            {(level, side) for level, side, _ in seen})
        assert all(rakes[k].leaf_side == side for _, side, rows in seen for k in rows)
    assert {side for _, side, _ in seen} == {0, 1}


class TestErrors:
    def test_tree_too_small(self):
        lone = build_tree({"nodes": [{"id": "r", "domain": 2, "prior": [0.5, 0.5]}]})
        with pytest.raises(TreeTooSmall):
            contract(lone)

    def test_non_binary_rejected(self):
        nodes = [{"id": "r", "domain": 2, "prior": [0.5, 0.5]}]
        for i in range(3):
            nodes.append({"id": f"c{i}", "domain": 2, "parent": "r",
                          "cpt": [[0.5, 0.5], [0.5, 0.5]], "evidence": [1.0, 1.0]})
        with pytest.raises(ConstructionError):
            contract(build_tree({"nodes": nodes}))

    def test_update_rejections(self):
        index = contract(chain_tree(9, k=2, rng=np.random.default_rng(3)))
        with pytest.raises(UnknownNode):
            update_evidence(index, "nope", np.ones(2))
        with pytest.raises(NotALeaf):
            update_evidence(index, "x2", np.ones(2))
        with pytest.raises(DimensionMismatch):
            update_evidence(index, "e2", np.ones(3))
        with pytest.raises(AllZeroLikelihood):
            update_evidence(index, "e2", np.zeros(2))

    def test_query_unknown_node(self):
        index = contract(chain_tree(9, k=2, rng=np.random.default_rng(3)))
        for fn in (lambda_query, pi_query, belief_query):
            with pytest.raises(UnknownNode):
                fn(index, "nope")

    @staticmethod
    def _balanced():
        return balanced_tree(7, 2, np.random.default_rng(0))

    def test_coeffs_identity_of_another_domain(self):
        with pytest.raises(DimensionMismatch):
            contract(self._balanced(), coeffs={"n1": Identity(3)})

    def test_coeffs_array_of_another_shape(self):
        with pytest.raises(DimensionMismatch):
            contract(self._balanced(), coeffs={"n1": np.full((3, 3), 1 / 3)})

    def test_coeffs_unknown_id(self):
        with pytest.raises(UnknownNode):
            contract(self._balanced(), coeffs={"nope": Identity(2)})

    def test_coeffs_root_id(self):
        tree = self._balanced()
        with pytest.raises(UnknownNode):
            contract(tree, coeffs={tree.root: Identity(2)})

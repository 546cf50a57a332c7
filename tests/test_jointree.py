import itertools

import numpy as np
import pytest

import reference_normal_form as reference

from logbel import (
    AllZeroLikelihood,
    DimensionMismatch,
    DimensionOverflow,
    DuplicateId,
    FormatError,
    InvalidProbability,
    NotAPolytree,
    OpCounters,
    Polytree,
    RowNotStochastic,
    StateSpaceTooLarge,
    UnknownVariable,
    Variable,
    CausalTree,
    belief_query,
    brute_force_marginal,
    brute_polytree_marginal,
    build_engine,
    build_join_tree,
    build_polytree,
    build_tree,
    compile_join_tree,
    extract_cliques,
    normalize_tree,
    polytree_query,
    polytree_update,
    prior_marginals,
    random_polytree,
    update_evidence,
)
from logbel.contraction import (CALL_MULT_ADDS, _form, _rake_product, contract, materialize,
                                matvec_cost, rake_cost, saves_a_call)
from logbel.generate import random_likelihood
from logbel.jointree import FactoredMatrix, Identity
from logbel.model import BruteForceOracle, Node, TableBatch
from logbel.propagate import FullState, LazyState


def vee_polytree(prior_a=(0.4, 0.6)):
    """Two parents sharing a child: the smallest multiply-parented network."""
    return build_polytree({"variables": [
        {"id": "a", "domain": 2, "prior": list(prior_a)},
        {"id": "b", "domain": 2, "prior": [0.7, 0.3]},
        {"id": "c", "domain": 2, "parents": ["a", "b"],
         "cpt": [[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.05, 0.95]]},
    ]})


def polytree_corpus(rng, count=10, max_vars=8, p=2, k=(2, 3)):
    for _ in range(count):
        yield random_polytree(int(rng.integers(2, max_vars + 1)), p, k, rng)


class TestPolytreeValidation:
    def test_diamond_rejected(self):
        rows = [[0.5, 0.5]] * 2
        with pytest.raises(NotAPolytree):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "b", "domain": 2, "parents": ["a"], "cpt": rows},
                {"id": "c", "domain": 2, "parents": ["a"], "cpt": rows},
                {"id": "d", "domain": 2, "parents": ["b", "c"], "cpt": [[0.5, 0.5]] * 4},
            ]})

    def test_directed_two_cycle_rejected(self):
        rows = [[0.5, 0.5]] * 2
        with pytest.raises(NotAPolytree):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "parents": ["b"], "cpt": rows},
                {"id": "b", "domain": 2, "parents": ["a"], "cpt": rows},
            ]})

    def test_disconnected_rejected(self):
        with pytest.raises(NotAPolytree):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "b", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "c", "domain": 2, "parents": ["a"], "cpt": [[0.5, 0.5]] * 2},
                {"id": "d", "domain": 2, "parents": ["a", "c"],
                 "cpt": [[0.5, 0.5]] * 4},
            ]})

    def test_self_parent_rejected(self):
        with pytest.raises(NotAPolytree):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "parents": ["a"], "cpt": [[0.5, 0.5]] * 2},
            ]})

    def test_repeated_parent_rejected(self):
        with pytest.raises(FormatError):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "b", "domain": 2, "parents": ["a", "a"],
                 "cpt": [[0.5, 0.5]] * 4},
            ]})

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
            ]})

    def test_unknown_parent(self):
        with pytest.raises(UnknownVariable):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "parents": ["ghost"], "cpt": [[0.5, 0.5]] * 2},
            ]})

    def test_cpt_row_order_first_parent_most_significant(self):
        pt = vee_polytree()
        c = pt.variables["c"]
        # row index = digit(a) * 2 + digit(b)
        np.testing.assert_array_equal(c.cpt[1], [0.6, 0.4])   # a=0, b=1
        np.testing.assert_array_equal(c.cpt[2], [0.3, 0.7])   # a=1, b=0

    def test_bad_tables(self):
        with pytest.raises(RowNotStochastic):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "prior": [0.6, 0.6]},
            ]})
        with pytest.raises(DimensionMismatch):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "b", "domain": 3, "parents": ["a"], "cpt": [[0.5, 0.5]] * 2},
            ]})
        with pytest.raises(FormatError):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "prior": [0.5, 0.5], "color": "red"},
            ]})

    @pytest.mark.parametrize("prior, error", [
        ([np.nan, 0.5], InvalidProbability),
        ([np.inf, 0.0], InvalidProbability),
        ([-0.5, 1.5], InvalidProbability),
        ([[0.5, 0.5]], DimensionMismatch),
    ])
    def test_bad_prior_names_the_variable(self, prior, error):
        with pytest.raises(error, match="prior of 'a'"):
            build_polytree({"variables": [{"id": "a", "domain": 2, "prior": prior}]})

    def test_tables_on_the_wrong_kind_of_variable(self):
        rows = [[0.5, 0.5]] * 2
        with pytest.raises(FormatError, match="'b'"):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "prior": [0.5, 0.5]},
                {"id": "b", "domain": 2, "parents": ["a"], "cpt": rows,
                 "prior": [0.5, 0.5]},
            ]})
        with pytest.raises(FormatError, match="'a'"):
            build_polytree({"variables": [
                {"id": "a", "domain": 2, "prior": [0.5, 0.5], "cpt": rows},
                {"id": "b", "domain": 2, "parents": ["a"], "cpt": rows},
            ]})

    def test_generator_output_is_valid(self):
        rng = np.random.default_rng(0)
        for pt in polytree_corpus(rng, count=20, max_vars=10):
            assert pt.max_parents <= 2
            assert len(pt.topological_order()) == pt.n


class TestCliques:
    def test_members_and_state_count(self):
        cliques = extract_cliques(vee_polytree())
        assert set(cliques) == {"a", "b", "c"}
        assert cliques["c"].members == ["c", "a", "b"]
        assert cliques["c"].K == 8
        assert cliques["a"].K == 2

    def test_projection_rows_are_one_hot(self):
        clique = extract_cliques(vee_polytree())["c"]
        for member in clique.members:
            proj = clique.projection(member)
            assert proj.shape == (8, 2)
            np.testing.assert_array_equal(proj.sum(axis=1), np.ones(8))
            for state in range(clique.K):
                assert proj[state, clique.digit(state, member)] == 1.0

    def test_every_maximal_clique_is_a_family(self):
        """The theorem extract_cliques relies on, checked by enumeration."""
        rng = np.random.default_rng(1)
        for pt in polytree_corpus(rng, count=15, max_vars=9, p=3):
            cliques = extract_cliques(pt)
            assert set(cliques) == set(pt.variables)
            families = {frozenset(c.members) for c in cliques.values()}
            moral = set()  # skeleton edges plus edges among co-parents
            for var in pt.variables.values():
                moral.update(frozenset(edge) for edge in
                             itertools.combinations([var.id, *var.parents], 2))

            def complete(vertices):
                return all(frozenset(e) in moral for e in itertools.combinations(vertices, 2))

            ids = list(pt.variables)
            cliques_found = [frozenset(sub) for r in range(1, len(ids) + 1)
                             for sub in itertools.combinations(ids, r) if complete(sub)]
            maximal = [c for c in cliques_found if not any(c < d for d in cliques_found)]
            assert maximal and all(c in families for c in maximal)
            # chordal iff the vertices can be removed one simplicial vertex at a time
            left = set(ids)
            while left:
                simplicial = [v for v in left if complete(
                    [u for u in left if frozenset((u, v)) in moral])]
                assert simplicial, f"no simplicial vertex among {sorted(left)}"
                left.remove(simplicial[0])


class TestJoinTree:
    def test_structure_counts(self):
        rng = np.random.default_rng(2)
        for pt in polytree_corpus(rng, count=12, max_vars=9):
            jt = build_join_tree(extract_cliques(pt), pt)
            assert len(jt.cliques) == pt.n
            assert sum(len(kids) for kids in jt.children.values()) == pt.n - 1
            assert jt.parent[jt.root] is None

    def test_separators_are_singleton_members(self):
        rng = np.random.default_rng(3)
        for pt in polytree_corpus(rng, count=12, max_vars=9):
            jt = build_join_tree(extract_cliques(pt), pt)
            for cvar, link in jt.parent.items():
                if link is None:
                    continue
                pc, sep = link
                overlap = set(jt.cliques[cvar].members) & set(jt.cliques[pc].members)
                assert overlap == {sep}

    def test_running_intersection(self):
        rng = np.random.default_rng(15)
        for pt in polytree_corpus(rng, count=10, max_vars=9):
            jt = build_join_tree(extract_cliques(pt), pt)
            for var in pt.variables:
                holders = {c for c, cl in jt.cliques.items() if var in cl.members}
                seed = next(iter(holders))
                reached, stack = set(), [seed]
                while stack:
                    cur = stack.pop()
                    if cur in reached:
                        continue
                    reached.add(cur)
                    neighbors = [c for c, _ in jt.children[cur]]
                    if jt.parent[cur] is not None:
                        neighbors.append(jt.parent[cur][0])
                    stack.extend(c for c in neighbors if c in holders)
                assert reached == holders

    def test_default_root_is_parentless(self):
        pt = vee_polytree()
        jt = build_join_tree(extract_cliques(pt), pt)
        assert jt.root == "a"
        rooted = build_join_tree(extract_cliques(pt), pt, root_var="c")
        assert rooted.root == "c"
        with pytest.raises(UnknownVariable):
            build_join_tree(extract_cliques(pt), pt, root_var="zz")


class TestPriorMarginals:
    def test_identity_chain_keeps_root_prior(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        pt = build_polytree({"variables": [
            {"id": "v0", "domain": 2, "prior": [0.3, 0.7]},
            {"id": "v1", "domain": 2, "parents": ["v0"], "cpt": eye},
            {"id": "v2", "domain": 2, "parents": ["v1"], "cpt": eye},
        ]})
        for dist in prior_marginals(pt).values():
            np.testing.assert_allclose(dist, [0.3, 0.7], atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for pt in polytree_corpus(rng, count=12, max_vars=8):
            marginals = prior_marginals(pt)
            for vid in pt.variables:
                expected = brute_polytree_marginal(pt, {}, vid)
                np.testing.assert_allclose(marginals[vid], expected.dist, atol=1e-12)


class TestBruteForce:
    def test_state_cap_checked_before_enumeration(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        pt = build_polytree({"variables": [
            {"id": "v0", "domain": 2, "prior": [0.5, 0.5]},
            *({"id": f"v{i}", "domain": 2, "parents": [f"v{i - 1}"], "cpt": eye}
              for i in range(1, 25))]})
        with pytest.raises(StateSpaceTooLarge):
            brute_polytree_marginal(pt, {}, "v0")

    @pytest.mark.parametrize("vec, error", [
        ([np.nan, 1.0], InvalidProbability),
        ([-0.5, 1.0], InvalidProbability),
        ([0.0, 0.0], AllZeroLikelihood),
        ([0.2, 0.3, 0.5], DimensionMismatch),
        ([1.0], DimensionMismatch),  # would broadcast over the domain unchecked
    ])
    def test_evidence_is_checked(self, vec, error):
        with pytest.raises(error, match="evidence of 'c'"):
            brute_polytree_marginal(vee_polytree(), {"c": np.array(vec)}, "a")

    def test_unknown_variable_is_named_as_the_engines_name_it(self):
        pt = random_polytree(4, 2, 2, np.random.default_rng(0))
        for engine in (BruteForceOracle(pt), build_engine(pt)):
            with pytest.raises(UnknownVariable, match="^no variable 'zz'$"):
                engine.update("zz", np.ones(2))
            with pytest.raises(UnknownVariable, match="^no variable 'zz'$"):
                engine.query("zz")
        with pytest.raises(UnknownVariable, match="^no variable 'zz'$"):
            brute_polytree_marginal(pt, {}, "zz")

    def test_trees_and_polytrees_enumerate_alike(self):
        """A tree written as a polytree, one parent per variable and the
        leaf likelihoods as evidence, has the same marginals."""
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 6, 9, 13):
            domains = [int(rng.integers(2, 4)) for _ in range(n)]
            parents = [None] + [int(rng.integers(i)) for i in range(1, n)]
            variables, nodes, evidence = [], [], {}
            for i, (domain, parent) in enumerate(zip(domains, parents)):
                table = ({"prior": rng.dirichlet(np.ones(domain)).tolist()} if parent is None
                         else {"cpt": rng.dirichlet(np.ones(domain), size=domains[parent]).tolist()})
                variables.append({"id": f"v{i}", "domain": domain, **table,
                                  "parents": [] if parent is None else [f"v{parent}"]})
                node = {"id": f"v{i}", "domain": domain, **table,
                        "parent": None if parent is None else f"v{parent}"}
                if i not in parents and parent is not None:
                    node["evidence"] = evidence[f"v{i}"] = random_likelihood(domain, rng)
                nodes.append(node)
            tree, pt = build_tree({"nodes": nodes}), build_polytree({"variables": variables})
            for vid in pt.variables:
                np.testing.assert_allclose(
                    brute_polytree_marginal(pt, evidence, vid).dist,
                    brute_force_marginal(tree, vid).dist, rtol=0, atol=1e-12)


class TestCompile:
    def test_clique_states_within_cap(self):
        rng = np.random.default_rng(5)
        for pt in polytree_corpus(rng, count=10, max_vars=10, p=2, k=2):
            jt = build_join_tree(extract_cliques(pt), pt)
            assert max(c.K for c in jt.cliques.values()) <= 2 ** 3
            compiled = compile_join_tree(jt, pt)
            assert compiled.tree.is_complete_binary()
            for vid in pt.variables:
                assert compiled.clique_node[vid] in compiled.tree.nodes
                assert compiled.evidence_leaf[vid] in compiled.tree.nodes

    def test_evidence_leaf_is_first_child(self):
        pt = vee_polytree()
        jt = build_join_tree(extract_cliques(pt), pt)
        compiled = compile_join_tree(jt, pt)
        for vid in pt.variables:
            cnode = compiled.tree.nodes[compiled.clique_node[vid]]
            assert cnode.children[0] == compiled.evidence_leaf[vid]

    def test_projections_are_shared_within_a_network(self):
        """Two parentless 32-state parents: the indicator leaves of their
        same-shape cliques hold one read-only identity projection, and a
        second compile builds its own."""
        uniform = [1 / 32] * 32
        pt = build_polytree({"variables": [
            {"id": "a", "domain": 32, "prior": uniform},
            {"id": "b", "domain": 32, "prior": uniform},
            {"id": "c", "domain": 2, "parents": ["a", "b"], "cpt": [[0.5, 0.5]] * 1024},
        ]})
        jt = build_join_tree(extract_cliques(pt), pt)
        nodes = compile_join_tree(jt, pt).tree.nodes
        leaf_a, leaf_b = nodes["E:a"].cpt, nodes["E:b"].cpt
        assert leaf_a is leaf_b and not leaf_a.flags.writeable
        np.testing.assert_array_equal(leaf_a, np.eye(32))
        assert compile_join_tree(jt, pt).tree.nodes["E:a"].cpt is not leaf_a

    def test_each_family_table_sits_on_one_edge_or_the_root_prior(self):
        """Every compiled table is finite and nonnegative.  The root
        clique's prior is its family table phi, undivided; any other
        clique's edge is [parent-clique state agrees on the separator] .
        phi; every other table is 0/1.  So each variable's family table
        sits on exactly one clique edge or on the root prior."""
        rng = np.random.default_rng(24)
        corpus = [vee_polytree(), *polytree_corpus(rng, count=6, max_vars=7, p=3)]
        for pt in corpus + [_with_zeros(pt) for pt in corpus]:
            for root_var in pt.variables:
                jt = build_join_tree(extract_cliques(pt), pt, root_var=root_var)
                nodes = compile_join_tree(jt, pt).tree.nodes
                for node in nodes.values():
                    for table in (node.cpt, node.prior):
                        assert table is None or (np.all(np.isfinite(table)) and
                                                 np.all(table >= 0.0))
                for cvar, clique in jt.cliques.items():
                    node = nodes[f"C:{cvar}"]
                    phi = _reference_family_table(pt, clique)
                    if jt.parent[cvar] is None:
                        np.testing.assert_array_equal(node.prior, phi)
                        continue
                    parent_cvar, sep = jt.parent[cvar]
                    upper = jt.cliques[parent_cvar]
                    agree = np.array([[upper.digit(r, sep) == clique.digit(c, sep)
                                       for c in range(clique.K)] for r in range(upper.K)])
                    np.testing.assert_array_equal(node.cpt, agree * phi)
                constants = [node.cpt for node_id, node in nodes.items()
                             if not node_id.startswith("C:")]
                assert all(np.isin(table, (0.0, 1.0)).all() for table in constants)

    def test_factored_forms_match_dense_edges(self):
        pt = vee_polytree()
        jt = build_join_tree(extract_cliques(pt), pt)
        compiled = compile_join_tree(jt, pt)
        for node_id, fm in compiled.coeffs.items():
            np.testing.assert_allclose(fm.materialize(),
                                       compiled.tree.nodes[node_id].cpt, atol=1e-12)
        assert {type(coeff) for coeff in compiled.coeffs.values()} <= {FactoredMatrix, Identity}

    def test_dimension_overflow(self):
        pt = vee_polytree()
        jt = build_join_tree(extract_cliques(pt), pt)
        with pytest.raises(DimensionOverflow):
            compile_join_tree(jt, pt, state_cap=4)
        with pytest.raises(DimensionOverflow):
            build_engine(pt, state_cap=4)

    def test_zero_marginal_divisor(self):
        """v0's prior has a zero entry.  Under either root its family table
        sits on one edge or the root prior as it is, zero included, and
        nothing divides by a marginal, so the answers are exact."""
        pt = build_polytree({"variables": [
            {"id": "v0", "domain": 2, "prior": [1.0, 0.0]},
            {"id": "v1", "domain": 2, "parents": ["v0"],
             "cpt": [[0.7, 0.3], [0.2, 0.8]]},
        ]})
        for root_var in (None, "v1"):
            engine = build_engine(pt, root_var=root_var)
            for evidence in ({}, {"v1": np.array([0.2, 0.9])}):
                for vid, vec in evidence.items():
                    polytree_update(engine, vid, vec)
                for vid in pt.variables:
                    np.testing.assert_allclose(polytree_query(engine, vid).dist,
                                               brute_polytree_marginal(pt, evidence, vid).dist,
                                               rtol=0, atol=1e-12)


    def test_builds_run_no_table_validation(self, monkeypatch):
        """normalize_tree checks nothing, and build_engine does not validate
        the clique tree it derives from a validated Polytree either:
        test_each_family_table_sits_on_one_edge_or_the_root_prior checks
        what its tables guarantee, and
        test_matches_compiling_through_a_network_description compares them
        with a reference built clique by clique."""
        passes, batches = [], []
        store, decide = CausalTree._store_tables, TableBatch.valid

        def store_spy(tree, *checks):
            passes.append(tree.n)
            return store(tree, *checks)

        def decide_spy(batch):
            batches.append(len(batch.records))
            return decide(batch)

        wide = build_tree({"nodes": [{"id": "r", "domain": 2, "prior": [0.5, 0.5]}] + [
            {"id": f"c{i}", "domain": 2, "parent": "r", "cpt": [[0.9, 0.1], [0.2, 0.8]],
             "evidence": [1.0, 0.5]} for i in range(5)]})
        corpus = list(polytree_corpus(np.random.default_rng(21), count=4, max_vars=12))
        monkeypatch.setattr(CausalTree, "_store_tables", store_spy)
        monkeypatch.setattr(TableBatch, "valid", decide_spy)
        assert normalize_tree(wide)[0].n == 9  # rebuilt with three splitters
        for pt in corpus:
            build_engine(pt)
        assert passes == [] and batches == []

    def test_constant_tables_are_shared_and_read_only(self):
        """Within one build, every constant table of one shape is one
        read-only array: the indicator leaves' initial likelihood and
        normalize_tree's unit-leaf column, unit likelihood and splitter
        identity."""
        pt = random_polytree(40, 3, (2, 3), np.random.default_rng(23))
        nodes = build_engine(pt).compiled.tree.nodes
        leaves = [nodes[f"E:{vid}"].evidence for vid in pt.variables]
        units = [node for node in nodes.values() if node.domain == 1]
        splits = [node.cpt for node_id, node in nodes.items() if node_id.startswith("split")]
        groups = [(leaves, np.ones), ([n.cpt for n in units], np.ones),
                  ([n.evidence for n in units], np.ones), (splits, lambda shape: np.eye(*shape))]
        for tables, make in groups:
            assert tables
            by_shape = {}
            for table in tables:
                assert by_shape.setdefault(table.shape, table) is table
                assert not table.flags.writeable
            for shape, table in by_shape.items():
                np.testing.assert_array_equal(table, make(shape))
        assert {len(table) for table in leaves} == {2, 3}
        assert build_engine(pt).compiled.tree.nodes["E:v0"].evidence is not leaves[0]

    def test_matches_compiling_through_a_network_description(self):
        """Stacked compilation is bit-identical to a reference built one
        clique at a time, each edge a spread of its family table, then
        normalized.  The corpus covers domains 2-4 under three parents,
        and exact zeros in priors and tables compiled under every root."""
        rng = np.random.default_rng(22)
        cases = [(pt, None) for pt in polytree_corpus(rng, count=10)]
        cases += [(pt, None) for pt in polytree_corpus(rng, count=4, max_vars=10, p=3,
                                                      k=(2, 4))]
        zeroed = [_with_zeros(pt) for pt in polytree_corpus(rng, count=4, max_vars=6)]
        cases += [(pt, root_var) for pt in zeroed for root_var in pt.variables]
        for pt, root_var in cases:
            jt = build_join_tree(extract_cliques(pt), pt, root_var=root_var)
            ref_tree, ref_coeffs = _compile_clique_by_clique(jt, pt)
            compiled = compile_join_tree(jt, pt)
            assert list(compiled.tree.nodes) == list(ref_tree.nodes)
            for node_id, node in compiled.tree.nodes.items():
                ref = ref_tree.nodes[node_id]
                assert (node.domain, node.parent, node.children) == \
                    (ref.domain, ref.parent, ref.children)
                for table in ("cpt", "prior", "evidence"):
                    ours, theirs = getattr(node, table), getattr(ref, table)
                    assert (ours is None) == (theirs is None)
                    if ours is not None:
                        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            assert list(compiled.coeffs) == list(ref_coeffs)
            for node_id, coeff in compiled.coeffs.items():
                ref = ref_coeffs[node_id]
                assert type(coeff) is type(ref)
                if isinstance(ref, Identity):
                    assert coeff.K == ref.K
                else:
                    assert np.array_equal(coeff.left, ref.left)
                    assert np.array_equal(coeff.right, ref.right)
            index = contract(compiled.tree, coeffs=dict(compiled.coeffs))
            ref_index = contract(ref_tree, coeffs=ref_coeffs)
            for _ in range(6):
                vid = str(rng.choice(list(pt.variables)))
                vec = random_likelihood(pt.variables[vid].domain, rng)
                update_evidence(index, compiled.evidence_leaf[vid], vec)
                update_evidence(ref_index, compiled.evidence_leaf[vid], vec)
                for node_id in compiled.tree.nodes:
                    ours = belief_query(index, node_id)
                    theirs = belief_query(ref_index, node_id)
                    assert np.array_equal(ours.dist, theirs.dist)
                    assert ours.normalizer == theirs.normalizer


def _with_zeros(pt):
    """pt with exact zeros: every variable with a child loses its first
    value from its prior or from every row of its table (the rest
    renormalized), so that value has zero marginal."""
    variables = []
    for var in pt.variables.values():
        prior, cpt = var.prior, var.cpt
        if pt.children[var.id]:
            table = (cpt if var.parents else prior[None]).copy()
            table[:, 0] = 0.0
            table /= table.sum(axis=1, keepdims=True)
            prior, cpt = (None, table) if var.parents else (table[0], None)
        variables.append(Variable(var.id, var.domain, list(var.parents), cpt, prior))
    return Polytree(variables)


def _reference_family_table(pt, clique):
    """phi_v(clique state), read digit by digit from the variable's table
    with one axis per parent (Polytree.families)."""
    table = next(t for vid, _, _, t, _ in pt.families() if vid == clique.variable)
    var = pt.variables[clique.variable]
    return np.array([table[tuple(clique.digit(c, m) for m in var.parents + [var.id])]
                     for c in range(clique.K)])


def _compile_clique_by_clique(jt, pt):
    """Reference for compile_join_tree: the clique tree built one clique at
    a time, each edge its separator's spread times its family table, then
    normalized.  build_tree would reject the rows that are not stochastic,
    so the tree is assembled unchecked, children derived from the parent
    links, and normalized by the copy-and-rederive reference."""
    nodes, coeffs = [], {}
    stack = [jt.root]
    while stack:
        cvar = stack.pop()
        clique = jt.cliques[cvar]
        node = Node(id=f"C:{cvar}", domain=clique.K)
        phi = _reference_family_table(pt, clique)
        if jt.parent[cvar] is None:
            node.prior = phi
        else:
            parent_cvar, separator = jt.parent[cvar]
            node.parent = f"C:{parent_cvar}"
            J = jt.cliques[parent_cvar].projection(separator)
            R = clique.projection(separator).T * phi
            node.cpt = J @ R
            if saves_a_call((J.shape, R.shape)):
                coeffs[node.id] = FactoredMatrix(J, R)
        nodes.append(node)
        k = clique.domains[0]
        J_own = clique.projection(cvar)
        nodes.append(Node(id=f"E:{cvar}", domain=k, parent=node.id, cpt=J_own,
                          evidence=np.ones(k)))
        if np.array_equal(J_own, np.eye(k)):
            coeffs[f"E:{cvar}"] = Identity(k)
        stack.extend(cv for cv, _ in reversed(jt.children[cvar]))
    raw = reference.derived_tree(nodes, f"C:{jt.root}")
    tree, _ = reference.normalize_tree(raw)
    for node_id, node in tree.nodes.items():
        if node_id not in raw.nodes and np.array_equal(node.cpt, np.eye(*node.cpt.shape)):
            coeffs[node_id] = Identity(node.domain)
    return tree, coeffs


class TestEngine:
    def _storm(self, engine, pt, rng, ops=20):
        ids = list(pt.variables)
        for _ in range(ops):
            vid = str(rng.choice(ids))
            polytree_update(engine, vid,
                            random_likelihood(pt.variables[vid].domain, rng))

    def test_matches_brute_force_under_updates(self):
        # every root: a root with parents sends separators through the
        # clique's own variable, a parentless one does not; every tree
        # engine answers the compiled tree, with and without zero priors,
        # and its normalizer is P(evidence)
        rng = np.random.default_rng(6)
        corpus = list(polytree_corpus(rng, count=10, max_vars=8))
        for pt in corpus + [_with_zeros(pt) for pt in corpus]:
            seed = int(rng.integers(1 << 31))
            for root, tree_engine in itertools.product(pt.variables,
                                                       (None, LazyState, FullState)):
                engine = build_engine(pt, root_var=root, tree_engine=tree_engine)
                self._storm(engine, pt, np.random.default_rng(seed))
                for vid in pt.variables:
                    got = polytree_query(engine, vid)
                    expected = brute_polytree_marginal(pt, engine.evidence, vid)
                    np.testing.assert_allclose(got.dist, expected.dist, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got.normalizer, expected.normalizer,
                                               rtol=1e-12)

    def test_uniform_likelihood_is_a_no_op(self):
        rng = np.random.default_rng(7)
        pt = random_polytree(7, 2, (2, 3), rng)
        engine = build_engine(pt)
        self._storm(engine, pt, rng, ops=8)
        base = {vid: polytree_query(engine, vid).dist.copy() for vid in pt.variables}
        stored = {vid: engine.evidence[vid].copy() for vid in pt.variables}
        for vid in pt.variables:
            polytree_update(engine, vid, np.ones(pt.variables[vid].domain))
            polytree_update(engine, vid, stored[vid])
        # re-install the storm evidence unchanged: beliefs must not move
        for vid in pt.variables:
            np.testing.assert_allclose(polytree_query(engine, vid).dist, base[vid],
                                       atol=1e-12)

    def test_cross_clique_consistency(self):
        rng = np.random.default_rng(8)
        for pt in polytree_corpus(rng, count=8, max_vars=8):
            engine = build_engine(pt)
            self._storm(engine, pt, rng, ops=10)
            for cvar, clique in engine.join_tree.cliques.items():
                for member in clique.members:
                    via_here = polytree_query(engine, member, via=cvar)
                    via_own = polytree_query(engine, member)
                    np.testing.assert_allclose(via_here.dist, via_own.dist, atol=1e-9)

    def test_separator_marginals_agree_across_edges(self):
        rng = np.random.default_rng(9)
        pt = random_polytree(8, 2, 2, rng)
        engine = build_engine(pt)
        self._storm(engine, pt, rng, ops=12)
        for cvar, link in engine.join_tree.parent.items():
            if link is None:
                continue
            pc, sep = link
            a = polytree_query(engine, sep, via=cvar)
            b = polytree_query(engine, sep, via=pc)
            np.testing.assert_allclose(a.dist, b.dist, atol=1e-9)

    def test_marginal_sums_match_projection(self):
        # summing the clique belief over the other members is the
        # projection J^T . belief the compiler builds its edges from
        rng = np.random.default_rng(13)
        for pt in polytree_corpus(rng, count=8, max_vars=8, p=3):
            engine = build_engine(pt)
            self._storm(engine, pt, rng, ops=6)
            for cvar, clique in engine.join_tree.cliques.items():
                clique_bel = belief_query(engine.index, engine.compiled.clique_node[cvar])
                for member in clique.members:
                    got = polytree_query(engine, member, via=cvar)
                    np.testing.assert_allclose(
                        got.dist, clique.projection(member).T @ clique_bel.dist,
                        rtol=0, atol=1e-15)
                    assert got.normalizer == clique_bel.normalizer

    def test_networks_sharing_variable_names_answer_apart(self):
        """Two networks with the same variable ids but other domains and
        parents, updated and queried in turn: no clique of one borrows a
        projection of the other's."""
        pts = [random_polytree(6, 3, (2, 4), np.random.default_rng(seed)) for seed in (3, 4)]
        assert list(pts[0].variables) == list(pts[1].variables)
        assert any((a.domain, a.parents) != (b.domain, b.parents) for a, b in
                   zip(pts[0].variables.values(), pts[1].variables.values()))
        engines = [build_engine(pt) for pt in pts]
        rng = np.random.default_rng(10)
        for _ in range(6):
            for pt, engine in zip(pts, engines):
                self._storm(engine, pt, rng, ops=1)
                for cvar, clique in engine.join_tree.cliques.items():
                    for member in clique.members:
                        got = polytree_query(engine, member, via=cvar)
                        expected = brute_polytree_marginal(pt, engine.evidence, member)
                        np.testing.assert_allclose(got.dist, expected.dist, atol=1e-9)

    def test_update_and_query_rejections(self):
        engine = build_engine(vee_polytree())
        with pytest.raises(UnknownVariable):
            polytree_update(engine, "zz", np.ones(2))
        with pytest.raises(DimensionMismatch):
            polytree_update(engine, "a", np.ones(3))
        with pytest.raises(AllZeroLikelihood):
            polytree_update(engine, "a", np.zeros(2))
        with pytest.raises(UnknownVariable):
            polytree_query(engine, "zz")
        with pytest.raises(UnknownVariable):
            polytree_query(engine, "a", via="b")  # clique of b does not hold a

    def test_query_answers_and_errors_with_and_without_via(self):
        """polytree_query's marginal is, byte for byte, the clique belief
        summed over the other members' axes, for every member of every
        clique, the variable's own clique taken with and without via; a
        LazyState engine answers alike; and each check names its fault."""
        rng = np.random.default_rng(14)
        pt = random_polytree(40, 3, (2, 3), rng)
        engine, lazy = build_engine(pt), build_engine(pt, tree_engine=LazyState)
        for _ in range(30):
            var = str(rng.choice(list(pt.variables)))
            vec = random_likelihood(pt.variables[var].domain, rng)
            polytree_update(engine, var, vec)
            polytree_update(lazy, var, vec)
        for cvar, clique in engine.join_tree.cliques.items():
            clique_bel = belief_query(engine.index, engine.compiled.clique_node[cvar])
            for i, member in enumerate(clique.members):
                others = tuple(j for j in range(len(clique.members)) if j != i)
                want = clique_bel.dist.reshape(clique.domains).sum(axis=others)
                calls = [{"via": cvar}] + ([{}] if member == cvar else [])
                for kwargs in calls:
                    got = polytree_query(engine, member, **kwargs)
                    assert got.dist.shape == want.shape and got.dist.tobytes() == want.tobytes()
                    assert got.normalizer == clique_bel.normalizer
                    np.testing.assert_allclose(polytree_query(lazy, member, **kwargs).dist,
                                               got.dist, rtol=0, atol=1e-12)
        engine = build_engine(vee_polytree())
        for args, message in ((("zz",), "no variable 'zz'"),
                              (("zz", "a"), "no variable 'zz'"),
                              (("a", "zz"), "no clique for 'zz'"),
                              (("a", "b"), "clique of 'b' does not contain 'a'")):
            with pytest.raises(UnknownVariable, match=f"^{message}$"):
                polytree_query(engine, *args)


class TestFactoredMatrix:
    def test_requires_chainable_shapes(self):
        with pytest.raises(DimensionMismatch):
            FactoredMatrix(np.ones((3, 2)), np.ones((3, 2)))

    def test_plain_operators_match_dense(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            K, L, K2, L2 = (int(x) for x in rng.integers(1, 7, size=4))
            fm = FactoredMatrix(rng.random((K, L)), rng.random((L, K2)))
            other = FactoredMatrix(rng.random((K2, L2)), rng.random((L2, K)))
            dense = fm.materialize()
            v, w, diag = rng.random(K2), rng.random(K), rng.random(K2)
            np.testing.assert_allclose(fm @ v, dense @ v, rtol=1e-12)
            left_product = w @ fm  # numpy defers to FactoredMatrix.__rmatmul__
            assert isinstance(left_product, np.ndarray) and left_product.dtype == np.float64
            np.testing.assert_allclose(left_product, dense.T @ w, rtol=1e-12)
            raked = (fm * diag) @ other
            # (K, L)(L, K) stays factored only if that is strictly cheaper
            pays = K * L + L * K < K * K
            assert isinstance(raked, FactoredMatrix) == pays
            if pays:
                assert raked.width == fm.width
            np.testing.assert_allclose(materialize(raked),
                                       dense @ np.diag(diag) @ other.materialize(),
                                       rtol=1e-12)

    def test_rake_product_matches_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            K, L = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            parent = FactoredMatrix(rng.random((K, L)), rng.random((L, K)))
            other = FactoredMatrix(rng.random((K, L)), rng.random((L, K)))
            diag = rng.random(K)
            counters = OpCounters()
            fused = parent.rake_product(diag, other, counters)
            dense = parent.materialize() @ np.diag(diag) @ other.materialize()
            np.testing.assert_allclose(materialize(fused), dense, rtol=1e-12)
            pays = 2 * K * L < K * K
            assert isinstance(fused, FactoredMatrix) == pays
            if pays:
                assert fused.width == parent.width
            assert counters.matmat_mult_adds == 2 * L * K * L + (0 if pays else K * L * K)

    def test_cost_rule_matches_closed_forms(self):
        """One product per factor for coeff @ vec; a rake scales the parent's
        last factor (other's first, through an identity), then multiplies it
        through each factor of the other; a (K, L)(L, K3) result that is not
        strictly cheaper than dense is multiplied out, for K L K3 more."""
        rng = np.random.default_rng(15)
        for _ in range(50):
            K, L, K2, L2, K3 = (int(x) for x in rng.integers(1, 9, size=5))
            dense, factored = ((K, K2),), ((K, L), (L, K2))
            assert matvec_cost(dense) == (1, 0, 0, K * K2, 0)
            assert matvec_cost(factored) == (2, 0, 0, K * L + L * K2, 0)
            assert matvec_cost(()) == (0, 0, 0, 0, 0)
            other_dense, other_factored = ((K2, K3),), ((K2, L2), (L2, K3))
            mm = K * K2 * K3
            assert rake_cost(dense, other_dense) == (0, 1, 0, K * K2 + mm, mm)
            mm = K * K2 * L2 + K * L2 * K3
            assert rake_cost(dense, other_factored) == (0, 2, 0, K * K2 + mm, mm)
            out = 0 if K * L + L * K3 < K * K3 else K * L * K3
            mm = L * K2 * K3 + out
            assert rake_cost(factored, other_dense) == (0, 1 + (out > 0), 0, L * K2 + mm, mm)
            mm = L * K2 * L2 + L * L2 * K3 + out
            assert rake_cost(factored, other_factored) == (0, 2 + (out > 0), 0, L * K2 + mm, mm)
            assert rake_cost((), ()) == (0, 0, 0, 0, 0)
            assert rake_cost(dense, ()) == (0, 0, 0, K * K2, 0)
            assert rake_cost((), other_dense) == (0, 0, 0, K2 * K3, 0)
            out = 0 if K * L + L * K2 < K * K2 else K * L * K2
            assert rake_cost(factored, ()) == (0, int(out > 0), 0, L * K2 + out, out)
            out = 0 if K2 * L2 + L2 * K3 < K2 * K3 else K2 * L2 * K3
            assert rake_cost((), other_factored) == (0, int(out > 0), 0, K2 * L2 + out, out)

    def test_mixed_rakes_count_the_work_done(self):
        """Dense over factored and factored over dense, K=6 and width 1."""
        rng = np.random.default_rng(16)
        dense = rng.random((6, 6))
        fm = FactoredMatrix(rng.random((6, 1)), rng.random((1, 6)))
        diag = rng.random(6)
        want = dense @ np.diag(diag) @ fm.materialize()
        counters = OpCounters()
        got = _rake_product(dense, diag, fm, counters)  # ((M * diag) @ left) @ right
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert (counters.matrix_matrix_mults, counters.matmat_mult_adds,
                counters.scalar_mult_adds) == (2, 36 + 36, 36 + 72)
        want = fm.materialize() @ np.diag(diag) @ dense
        counters = OpCounters()
        got = _rake_product(fm, diag, dense, counters)  # left, (right * diag) @ M
        assert isinstance(got, FactoredMatrix) and got.width == 1
        np.testing.assert_allclose(got.materialize(), want, rtol=1e-12)
        assert (counters.matrix_matrix_mults, counters.matmat_mult_adds,
                counters.scalar_mult_adds) == (1, 36, 6 + 36)

    def test_identity_factors_stay_identity(self):
        """Square factors never pay, so their product is multiplied out; a
        rake through two Identity coefficients is its diagonal, uncounted."""
        eye = np.eye(3)
        parent = FactoredMatrix(eye.copy(), eye.copy())
        fused = parent.rake_product(np.ones(3), FactoredMatrix(eye.copy(), eye.copy()),
                                    OpCounters())
        assert isinstance(fused, np.ndarray)
        np.testing.assert_allclose(fused, eye, atol=1e-15)
        diag = np.array([0.5, 2.0, 3.0])
        counters = OpCounters()
        fused = _rake_product(Identity(3), diag, Identity(3), counters)
        np.testing.assert_array_equal(fused, np.diag(diag))
        assert (*counters.snapshot(), counters.matmat_mult_adds) == (0, 0, 0, 0, 0)

    def test_matmat_work_ratio_at_k8_l2(self):
        rng = np.random.default_rng(12)
        parent = FactoredMatrix(rng.random((8, 2)), rng.random((2, 8)))
        other = FactoredMatrix(rng.random((8, 2)), rng.random((2, 8)))
        diag = rng.random(8)
        factored_counters = OpCounters()
        fused = parent.rake_product(diag, other, factored_counters)
        dense_counters = OpCounters()
        dense = _rake_product(parent.materialize(), diag, other.materialize(),
                              dense_counters)
        np.testing.assert_allclose(fused.materialize(), dense, rtol=1e-12)
        assert factored_counters.matmat_mult_adds * 8 == dense_counters.matmat_mult_adds


class TestFactoredAgainstDenseContraction:
    def test_coefficients_agree_at_every_level(self):
        rng = np.random.default_rng(13)
        for pt in polytree_corpus(rng, count=6, max_vars=7):
            engine = build_engine(pt)
            dense_coeffs = {nid: fm.materialize()
                            for nid, fm in engine.compiled.coeffs.items()}
            dense_index = contract(engine.compiled.tree, coeffs=dense_coeffs)
            for _ in range(10):
                vid = str(rng.choice(list(pt.variables)))
                vec = random_likelihood(pt.variables[vid].domain, rng)
                polytree_update(engine, vid, vec)
                update_evidence(dense_index, engine.compiled.evidence_leaf[vid], vec)
            fact_slots = engine.index.all_slots()
            dense_slots = dense_index.all_slots()
            assert len(fact_slots) == len(dense_slots)
            for fs, ds in zip(fact_slots, dense_slots):
                assert fs.describe() == ds.describe()
                np.testing.assert_allclose(materialize(fs.coeff),
                                           materialize(ds.coeff), atol=1e-12)

    def test_mixed_coefficients_match_dense(self):
        """Dense and factored coefficients mixed on one tree answer as the
        dense tree does."""
        rng = np.random.default_rng(14)
        pt = random_polytree(8, 2, 2, rng)
        compiled = build_engine(pt).compiled
        dense_coeffs = {nid: fm.materialize() for nid, fm in compiled.coeffs.items()}
        mixed = {nid: fm if i % 2 else dense_coeffs[nid]
                 for i, (nid, fm) in enumerate(compiled.coeffs.items())}
        dense_index = contract(compiled.tree.copy(), coeffs=dense_coeffs)
        mixed_index = contract(compiled.tree.copy(), coeffs=mixed)
        for _ in range(15):
            vid = str(rng.choice(list(pt.variables)))
            vec = random_likelihood(pt.variables[vid].domain, rng)
            for index in (dense_index, mixed_index):
                update_evidence(index, compiled.evidence_leaf[vid], vec)
            node = compiled.clique_node[str(rng.choice(list(pt.variables)))]
            np.testing.assert_allclose(belief_query(mixed_index, node).dist,
                                       belief_query(dense_index, node).dist, atol=1e-12)


class TestCheapestForms:
    def test_compiled_slots_hold_no_unprofitable_factors(self):
        """No slot of a compiled polytree's index holds an identity factor,
        and a slot holds two factors only where that is strictly cheaper
        than dense; identity edges are Identity.  Forms, which fix every
        count at build time, do not move under updates."""
        rng = np.random.default_rng(31)
        for pt in polytree_corpus(rng, count=12, max_vars=12, p=3):
            engine = build_engine(pt)
            slots = engine.index.all_slots()
            forms = [_form(slot.coeff) for slot in slots]
            for slot in slots:
                coeff = slot.coeff
                if isinstance(coeff, FactoredMatrix):
                    (rows, width), cols = coeff.left.shape, coeff.right.shape[1]
                    assert rows * width + width * cols < rows * cols
                    for factor in (coeff.left, coeff.right):
                        assert factor.shape[0] != factor.shape[1]  # so never an identity
                elif slot.level == 0 and coeff.shape[0] == coeff.shape[1]:
                    assert isinstance(coeff, Identity) or \
                        not np.array_equal(coeff, np.eye(coeff.shape[0]))
            self._storm(engine, pt, rng)
            assert [_form(slot.coeff) for slot in engine.index.all_slots()] == forms

    @staticmethod
    def _storm(engine, pt, rng, ops=10):
        ids = list(pt.variables)
        for _ in range(ops):
            vid = str(rng.choice(ids))
            polytree_update(engine, vid, random_likelihood(pt.variables[vid].domain, rng))


class TestFactoredEdgesOnLargeCliques:
    def test_factored_edges_save_a_call_and_match_dense(self):
        """Three parents of 3 or 4 states make cliques of up to 256 states.
        An edge between two large cliques stays factored, and only where
        its matrix-vector product saves more than CALL_MULT_ADDS
        multiply-adds; after updates every slot equals the same tree
        contracted with every edge dense."""
        nets, rng = np.random.default_rng(43), np.random.default_rng(44)
        factored = 0
        for k in (4, (3, 4), 4, (3, 4)):
            pt = random_polytree(9, 3, k, nets)
            engine = build_engine(pt)
            compiled = engine.compiled
            for coeff in compiled.coeffs.values():
                if isinstance(coeff, FactoredMatrix):
                    factored += 1
                    (rows, width), cols = coeff.left.shape, coeff.right.shape[1]
                    assert rows * cols - (rows * width + width * cols) > CALL_MULT_ADDS
            dense_coeffs = {nid: coeff.materialize() for nid, coeff in compiled.coeffs.items()}
            dense_index = contract(compiled.tree.copy(), coeffs=dense_coeffs)
            for _ in range(6):
                vid = str(rng.choice(list(pt.variables)))
                vec = random_likelihood(pt.variables[vid].domain, rng)
                polytree_update(engine, vid, vec)
                update_evidence(dense_index, compiled.evidence_leaf[vid], vec)
            for fs, ds in zip(engine.index.all_slots(), dense_index.all_slots(), strict=True):
                assert fs.describe() == ds.describe()
                np.testing.assert_allclose(materialize(fs.coeff), materialize(ds.coeff),
                                           rtol=0, atol=1e-12)
        assert factored >= 4

"""The three benchmark workloads and how each drives the package.

Each workload names its network generator, its op-stream mix and the public
functions that set up, update and query its engine.  Why each exists:

* star-read: naive Bayes with a 4000-child root.  normalize_tree turns the
  root into a 4000-deep splitter chain, so set-up exercises the wide-node
  split and queries take long root-ward walks.  Query-heavy (1 update : 3
  queries), where `lazy` costs O(depth) per query.
* balanced-k8-write: a complete binary tree, so normalize_tree is a no-op
  (the bypass case); K=8 makes rake products real 8x8x8 matmuls.
  Write-heavy (16 updates : 1 query).  At this size the unscaled messages
  underflow and every query raises ImpossibleEvidence; that is measured, not
  avoided, and counted as failed ops until the engines rescale.
* polytree-build: a random polytree compiled to a join tree; set-up is
  dominated by clique extraction, join-tree checks and compilation, and ops
  run on factored coefficients.  1 update : 1 query.
"""

from __future__ import annotations

import numpy as np

import logbel

import gen
from reference import TreeReference, variable_marginal


class TreeWorkload:
    kind = "tree"

    def __init__(self, make_spec, updates: int, queries: int, lazy_cycles: int):
        self.make_spec = make_spec
        self.updates = updates
        self.queries = queries
        self.lazy_cycles = lazy_cycles

    def stream(self, spec: dict, rng) -> gen.OpStream:
        domain = spec["nodes"][-1]["domain"]
        return gen.OpStream(rng, gen.tree_leaves(spec), [n["id"] for n in spec["nodes"]],
                            domain, self.updates, self.queries)

    @staticmethod
    def setup(spec: dict, call):
        tree = call("model.build_tree", logbel.build_tree, spec)
        normalized, _ = call("model.normalize_tree", logbel.normalize_tree, tree)
        return call("contraction.contract", logbel.contract, normalized)

    @staticmethod
    def index(engine):
        return engine

    @staticmethod
    def update(engine, target, vec):
        logbel.update_evidence(engine, target, vec)

    @staticmethod
    def query(engine, target):
        return logbel.belief_query(engine, target).dist

    update_span, query_span = "contraction.update_evidence", "contraction.belief_query"

    @staticmethod
    def reference(spec: dict, engine):
        return TreeReference.from_tree_spec(spec)

    @staticmethod
    def sizes(spec: dict, engine) -> dict:
        tree = engine.tree
        return {"model.input_nodes": len(spec["nodes"]),
                "model.leaves": len(gen.tree_leaves(spec)),
                "model.normalized_nodes": tree.n,
                "model.depth_after_normalize": tree.depth,
                "jointree.max_clique_states": 0, "jointree.compiled_nodes": 0}

    @staticmethod
    def self_check(rng) -> float:
        """Largest deviation of the reference from logbel's joint-enumeration
        oracle on small instances of both tree shapes."""
        dev = 0.0
        for spec in (gen.star_spec(rng, leaves=7), gen.balanced_spec(rng, n=7, k=3)):
            beliefs, _ = TreeReference.from_tree_spec(spec).solve()
            tree = logbel.build_tree(spec)
            for nid in tree.nodes:
                want = logbel.brute_force_marginal(tree, nid).dist
                dev = max(dev, float(np.max(np.abs(beliefs[nid] - want))))
        return dev


class PolytreeReference:
    """TreeReference over the compiled clique tree, fed with the stream's
    evidence and answering per-variable marginals."""

    def __init__(self, engine):
        compiled = engine.compiled
        tree = compiled.tree
        order, stack = [], [tree.root]
        while stack:
            cur = stack.pop()
            order.append(cur)
            stack.extend(tree.nodes[cur].children)
        self.inner = TreeReference(
            order, {nid: n.parent for nid, n in tree.nodes.items()},
            {nid: n.cpt for nid, n in tree.nodes.items() if n.parent is not None},
            tree.nodes[tree.root].prior,
            {nid: n.evidence for nid, n in tree.nodes.items() if n.evidence is not None})
        self.leaf = dict(compiled.evidence_leaf)
        self.clique = dict(compiled.clique_node)
        self.domain = {vid: v.domain for vid, v in engine.polytree.variables.items()}

    def set_evidence(self, var: str, vec) -> None:
        self.inner.set_evidence(self.leaf[var], vec)

    def solve(self):
        beliefs, log10_pe = self.inner.solve()
        return {var: variable_marginal(beliefs[node], self.domain[var])
                for var, node in self.clique.items()}, log10_pe


class PolytreeWorkload:
    kind = "polytree"
    lazy_cycles = 0

    def __init__(self, make_spec, updates: int, queries: int):
        self.make_spec = make_spec
        self.updates = updates
        self.queries = queries

    def stream(self, spec: dict, rng) -> gen.OpStream:
        ids = [v["id"] for v in spec["variables"]]
        return gen.OpStream(rng, ids, ids, spec["variables"][0]["domain"],
                            self.updates, self.queries)

    @staticmethod
    def setup(spec: dict, call):
        pt = call("model.build_polytree", logbel.build_polytree, spec)
        return call("jointree.build_engine", logbel.build_engine, pt)

    @staticmethod
    def index(engine):
        return engine.index

    @staticmethod
    def update(engine, target, vec):
        logbel.polytree_update(engine, target, vec)

    @staticmethod
    def query(engine, target):
        return logbel.polytree_query(engine, target).dist

    update_span, query_span = "jointree.polytree_update", "jointree.polytree_query"

    @staticmethod
    def reference(spec: dict, engine):
        return PolytreeReference(engine)

    @staticmethod
    def sizes(spec: dict, engine) -> dict:
        tree = engine.compiled.tree
        return {"model.input_nodes": len(spec["variables"]),
                "model.leaves": len(tree.leaf_order()),
                "model.normalized_nodes": tree.n,
                "model.depth_after_normalize": tree.depth,
                "jointree.max_clique_states": max(c.K for c in engine.join_tree.cliques.values()),
                "jointree.compiled_nodes": tree.n}

    @staticmethod
    def self_check(rng) -> float:
        """Largest deviation of the engine from logbel's brute-force polytree
        oracle, and of the clique-tree reference from both, on a small
        instance from the same generator under a short stream."""
        spec = gen.polytree_spec(rng, n=10)
        pt = logbel.build_polytree(spec)
        engine = logbel.build_engine(pt)
        ref = PolytreeReference(engine)
        evidence: dict[str, np.ndarray] = {}
        ids = list(pt.variables)
        dev = 0.0
        for _ in range(6):
            var = ids[int(rng.integers(len(ids)))]
            vec = np.array(gen.likelihood(rng, pt.variables[var].domain))
            logbel.polytree_update(engine, var, vec)
            ref.set_evidence(var, vec)
            evidence[var] = vec
            beliefs, _ = ref.solve()
            for vid in ids:
                want = logbel.brute_polytree_marginal(pt, evidence, vid).dist
                got = logbel.polytree_query(engine, vid).dist
                dev = max(dev, float(np.max(np.abs(got - want))),
                          float(np.max(np.abs(beliefs[vid] - want))))
        return dev


# The jointree attributes build_engine and the polytree calls look up at
# call time; the traced run wraps them to split set-up and op time by layer.
JOINTREE_PATCHES = {
    "extract_cliques": "jointree.extract_cliques",
    "build_join_tree": "jointree.build_join_tree",
    "prior_marginals": "jointree.prior_marginals",
    "compile_join_tree": "jointree.compile_join_tree",
    "build_tree": "model.build_tree",
    "normalize_tree": "model.normalize_tree",
    "contract": "contraction.contract",
    "update_evidence": "contraction.update_evidence",
    "belief_query": "contraction.belief_query",
}
CONTRACTION_PATCHES = {"rake": "contraction.rake"}
CLI_PATCHES = {
    "load_problem": "cli.load_problem",
    "parse_stream": "cli.parse_stream",
    "_make_runner": "cli.runner_build",
}

WORKLOADS = {
    "star-read": TreeWorkload(gen.star_spec, updates=1, queries=3, lazy_cycles=32),
    "balanced-k8-write": TreeWorkload(gen.balanced_spec, updates=16, queries=1, lazy_cycles=256),
    "polytree-build": PolytreeWorkload(gen.polytree_spec, updates=1, queries=1),
}

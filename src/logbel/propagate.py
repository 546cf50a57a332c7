"""Classical message propagation on causal trees.

Every engine here runs on normalize_tree's complete binary form, as the
contraction engine does, so each lambda equation multiplies two child
messages and each pi equation one sibling message: the equations contract
evaluates, with linear work in the fan-out.  On a wide tree the counts are
those of the normalized tree, and the dummy ids it adds are answered too.

full_propagate runs the two-pass algorithm: a bottom-up likelihood pass
(lambda vectors) and a top-down prior pass (pi vectors), then combines them
into beliefs.  Linear work per run.  FullState is the paper's conventional
algorithm: an update only stores the evidence, and the first query after
it runs full_propagate once, whose table answers every query until the
next update.

LazyState keeps only the lambda vectors cached, from the same bottom-up
pass as full_propagate's.  An evidence update recomputes the lambda
equations of the leaf's ancestors (depth-many evaluations); a query
recomputes pi along the root-to-node path on demand.  pi is never cached,
so updates stay cheap on deep trees.

Products are ndarray.dot, as in the contraction engine, so that the
baselines pay the same per-call cost for the same arithmetic, and each
equation is counted by the contraction engine's rule too (equation_cost,
over its two edge tables' forms), so both sides of a comparison are
counted alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import equation_cost
from .counters import OpCounters
from .errors import UnknownNode
from .model import (
    Belief,
    CausalTree,
    _owned_normal_form,
    normalize_belief,
    normalize_tree,
    set_evidence,
)


@dataclass
class PropagationTable:
    """Lambda, pi and belief for every node, plus the work counters."""

    lambdas: dict[str, np.ndarray]
    pis: dict[str, np.ndarray]
    beliefs: dict[str, Belief]
    counters: OpCounters


def _lambda_at(tree: CausalTree, node_id: str, lambdas: dict[str, np.ndarray],
               counters: OpCounters) -> np.ndarray:
    """Evaluate one lambda equation, left.cpt . lambda_left * right.cpt .
    lambda_right, from the children's cached lambdas."""
    node = tree.nodes[node_id]
    left, right = (tree.nodes[child] for child in node.children)
    counters.add(equation_cost(node.domain, (left.cpt.shape,), (right.cpt.shape,)))
    return left.cpt.dot(lambdas[left.id]) * right.cpt.dot(lambdas[right.id])


def _lambda_pass(tree: CausalTree, counters: OpCounters) -> dict[str, np.ndarray]:
    """Every lambda of tree, bottom-up: a copy of each leaf's evidence and
    each internal node's equation."""
    lambdas: dict[str, np.ndarray] = {}
    for node_id in tree.post_order():
        node = tree.nodes[node_id]
        lambdas[node_id] = (_lambda_at(tree, node_id, lambdas, counters) if node.children
                            else node.evidence.copy())
    return lambdas


def full_propagate(tree: CausalTree, counters: OpCounters | None = None) -> PropagationTable:
    """Evaluate every lambda and pi equation of normalize_tree(tree) and
    combine them into beliefs; tree is not written.

    Raises ImpossibleEvidence if the evidence in force has zero mass.
    """
    tree, _ = normalize_tree(tree)
    counters = counters if counters is not None else OpCounters()
    lambdas = _lambda_pass(tree, counters)
    pis: dict[str, np.ndarray] = {tree.root: tree.nodes[tree.root].prior.copy()}
    stack = [tree.root]
    while stack:
        parent_id = stack.pop()
        for child_id in tree.nodes[parent_id].children:
            pis[child_id] = _pi_at(tree, child_id, pis[parent_id], lambdas, counters)
            stack.append(child_id)

    beliefs: dict[str, Belief] = {}
    for node_id in tree.nodes:
        counters.count_vector_op(tree.nodes[node_id].domain)
        beliefs[node_id] = normalize_belief(lambdas[node_id] * pis[node_id], node=node_id)
    return PropagationTable(lambdas=lambdas, pis=pis, beliefs=beliefs, counters=counters)


def _pi_at(tree: CausalTree, node_id: str, parent_pi: np.ndarray,
           lambdas: dict[str, np.ndarray], counters: OpCounters) -> np.ndarray:
    """Evaluate one pi equation, (pi_parent * sibling.cpt . lambda_sibling)
    . cpt, given the parent's pi and the sibling's lambda."""
    node = tree.nodes[node_id]
    parent = tree.nodes[node.parent]
    left, right = parent.children
    sibling = tree.nodes[right if left == node_id else left]
    counters.add(equation_cost(parent.domain, (sibling.cpt.shape,), (node.cpt.shape,)))
    return (parent_pi * sibling.cpt.dot(lambdas[sibling.id])).dot(node.cpt)


def belief(table: PropagationTable, node_id: str) -> Belief:
    """Constant-time lookup in a finished propagation table; the caller
    gets its own copy."""
    if node_id not in table.beliefs:
        raise UnknownNode(f"no node {node_id!r}")
    found = table.beliefs[node_id]
    return Belief(dist=found.dist.copy(), normalizer=found.normalizer)


class FullState:
    """The conventional algorithm: an update stores the evidence and drops
    the propagation table in O(1); the first query after it runs one
    full_propagate, and that table answers every query until the next
    update.  Jointly impossible evidence raises ImpossibleEvidence at a
    query, and only while it is in force."""

    def __init__(self, tree: CausalTree):
        self.tree, _ = _owned_normal_form(tree)
        self.counters = OpCounters()
        self.table: PropagationTable | None = None

    def update(self, leaf_id: str, evidence) -> None:
        set_evidence(self.tree, leaf_id, evidence)
        self.table = None

    def query(self, node_id: str) -> Belief:
        self.tree.node(node_id)
        if self.table is None:
            self.table = full_propagate(self.tree, self.counters)
        return belief(self.table, node_id)


class LazyState:
    """Cached-lambda inference state with depth-bounded updates and queries."""

    def __init__(self, tree: CausalTree):
        self.tree, _ = _owned_normal_form(tree)
        self.counters = OpCounters()
        self.lambdas = _lambda_pass(self.tree, self.counters)

    def update(self, leaf_id: str, evidence) -> None:
        lazy_update(self, leaf_id, evidence)

    def query(self, node_id: str) -> Belief:
        return lazy_query(self, node_id)


def lazy_update(state: LazyState, leaf_id: str, evidence) -> LazyState:
    """Install new evidence and recompute the lambda of each ancestor.

    Exactly depth-many lambda equations are evaluated; no pi work happens
    here.  evidence is an Evidence or an array.  All-zero likelihoods are
    rejected up front, but evidence that is merely jointly impossible
    surfaces later, at query time.
    """
    set_evidence(state.tree, leaf_id, evidence)
    state.lambdas[leaf_id] = state.tree.nodes[leaf_id].evidence
    for ancestor in state.tree.ancestors(leaf_id):
        state.lambdas[ancestor] = _lambda_at(state.tree, ancestor, state.lambdas, state.counters)
    return state


def lazy_query(state: LazyState, node_id: str) -> Belief:
    """Belief at a node: pi is rebuilt along the root-to-node path on demand."""
    tree = state.tree
    tree.node(node_id)
    path = list(reversed(tree.ancestors(node_id))) + [node_id]  # root .. node
    pi = tree.nodes[tree.root].prior
    for step in path[1:]:
        pi = _pi_at(tree, step, pi, state.lambdas, state.counters)
    state.counters.count_vector_op(tree.nodes[node_id].domain)
    return normalize_belief(state.lambdas[node_id] * pi, node=node_id)

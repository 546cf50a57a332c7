"""Classical message propagation on causal trees.

full_propagate runs the two-pass algorithm: a bottom-up likelihood pass
(lambda vectors) and a top-down prior pass (pi vectors), then combines them
into beliefs.  Linear work per run.  FullState reruns it after every update.

LazyState keeps only the lambda vectors cached.  An evidence update
recomputes the lambda equations of the leaf's ancestors (depth-many
evaluations); a query recomputes pi along the root-to-node path on demand.
pi is never cached, so updates stay cheap on deep trees.

Products are ndarray.dot, as in the contraction engine, so that the
baselines pay the same per-call cost for the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import OpCounters
from .errors import ImpossibleEvidence, UnknownNode
from .model import Belief, CausalTree, normalize_belief, set_evidence


@dataclass
class PropagationTable:
    """Lambda, pi and belief for every node, plus the work counters."""

    lambdas: dict[str, np.ndarray]
    pis: dict[str, np.ndarray]
    beliefs: dict[str, Belief]
    counters: OpCounters


def _lambda_at(tree: CausalTree, node_id: str, lambdas: dict[str, np.ndarray],
               counters: OpCounters) -> np.ndarray:
    """Evaluate one lambda equation from the children's cached lambdas."""
    node = tree.nodes[node_id]
    out = None
    for child in node.children:
        cpt = tree.nodes[child].cpt
        counters.count_matvec(*cpt.shape)
        term = cpt.dot(lambdas[child])
        if out is None:
            out = term
        else:
            counters.count_vector_op(node.domain)
            out = out * term
    counters.count_equation()
    return out


def full_propagate(tree: CausalTree, counters: OpCounters | None = None) -> PropagationTable:
    """Evaluate every lambda and pi equation and combine them into beliefs.

    Raises ImpossibleEvidence if the evidence in force has zero mass.
    """
    counters = counters if counters is not None else OpCounters()
    lambdas: dict[str, np.ndarray] = {}
    for node_id in tree.post_order():
        node = tree.nodes[node_id]
        if not node.children:
            lambdas[node_id] = node.evidence.copy() if node.evidence is not None \
                else np.ones(node.domain)
        else:
            lambdas[node_id] = _lambda_at(tree, node_id, lambdas, counters)

    pis: dict[str, np.ndarray] = {tree.root: tree.nodes[tree.root].prior.copy()}
    stack = [tree.root]
    while stack:
        parent_id = stack.pop()
        parent = tree.nodes[parent_id]
        for child_id in parent.children:
            pis[child_id] = _pi_at(tree, child_id, pis[parent_id], lambdas, counters)
            stack.append(child_id)

    beliefs: dict[str, Belief] = {}
    for node_id in tree.nodes:
        counters.count_vector_op(tree.nodes[node_id].domain)
        beliefs[node_id] = normalize_belief(lambdas[node_id] * pis[node_id], node=node_id)
    return PropagationTable(lambdas=lambdas, pis=pis, beliefs=beliefs, counters=counters)


def _pi_at(tree: CausalTree, node_id: str, parent_pi: np.ndarray,
           lambdas: dict[str, np.ndarray], counters: OpCounters) -> np.ndarray:
    """Evaluate one pi equation given the parent's pi and sibling lambdas."""
    node = tree.nodes[node_id]
    parent = tree.nodes[node.parent]
    acc = parent_pi
    for sibling in parent.children:
        if sibling == node_id:
            continue
        cpt = tree.nodes[sibling].cpt
        counters.count_matvec(*cpt.shape)
        counters.count_vector_op(parent.domain)
        acc = acc * cpt.dot(lambdas[sibling])
    counters.count_matvec(node.cpt.shape[1], node.cpt.shape[0])
    counters.count_equation()
    return acc.dot(node.cpt)


def belief(table: PropagationTable, node_id: str) -> Belief:
    """Constant-time lookup in a finished propagation table; the caller
    gets its own copy."""
    if node_id not in table.beliefs:
        raise UnknownNode(f"no node {node_id!r}")
    found = table.beliefs[node_id]
    return Belief(dist=found.dist.copy(), normalizer=found.normalizer)


class FullState:
    """Inference state that absorbs every update with a full propagation
    pass; queries are table lookups.

    While the evidence in force is jointly impossible there is no table
    (None); a query then propagates again and raises ImpossibleEvidence
    only if the evidence is still impossible.
    """

    def __init__(self, tree: CausalTree):
        self.tree = tree.copy()
        self.counters = OpCounters()
        self._propagate()

    def _propagate(self) -> None:
        try:
            self.table = full_propagate(self.tree, self.counters)
        except ImpossibleEvidence:
            self.table = None

    def update(self, leaf_id: str, evidence) -> None:
        set_evidence(self.tree, leaf_id, evidence)
        self._propagate()

    def query(self, node_id: str) -> Belief:
        if self.table is None:
            self.table = full_propagate(self.tree, self.counters)
        return belief(self.table, node_id)


class LazyState:
    """Cached-lambda inference state with depth-bounded updates and queries."""

    def __init__(self, tree: CausalTree):
        self.tree = tree.copy()
        self.counters = OpCounters()
        self.lambdas: dict[str, np.ndarray] = {}
        for node_id in self.tree.post_order():
            node = self.tree.nodes[node_id]
            if not node.children:  # self.tree is a private copy: share its vectors
                self.lambdas[node_id] = node.evidence if node.evidence is not None \
                    else np.ones(node.domain)
            else:
                self.lambdas[node_id] = _lambda_at(self.tree, node_id, self.lambdas, self.counters)

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

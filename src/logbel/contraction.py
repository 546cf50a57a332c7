"""Contraction index: logarithmic-time evidence updates and belief queries.

contract() repeatedly rakes leaves off a complete binary tree.  Raking a
leaf e with parent x and grandparent u removes e and x, splices x's other
child z under u, and rewrites u's coefficient on that side as

    new_coeff = old_coeff . Diag(e_side_coeff . lambda(e)) . z_side_coeff

so the likelihood equation of u stays correct for the smaller tree.  Each
rake stores exactly one new matrix, and every stored matrix (and every leaf
likelihood) feeds at most one higher equation.  An evidence update therefore
walks a single chain of equations; a belief query walks one root-ward path
of equation versions.  Both touch O(log N) equations on balanced rake
schedules.

Coefficients are dense ndarrays by default; any object implementing
matvec / rmatvec / rake_product / materialize (see jointree.FactoredMatrix)
can be substituted per edge through the coeffs argument of contract().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import OpCounters
from .errors import (
    ConstructionError,
    LevelOutOfRange,
    NotRakeable,
    TreeTooSmall,
    UnknownNode,
)
from .model import Belief, CausalTree, normalize_belief, set_evidence

LEFT, RIGHT = 0, 1


# -- coefficient algebra (dense ndarray or duck-typed factored form) ------------

def _matvec(coeff, vec: np.ndarray, counters: OpCounters) -> np.ndarray:
    if isinstance(coeff, np.ndarray):
        counters.count_matvec(*coeff.shape)
        return coeff @ vec
    return coeff.matvec(vec, counters)


def _rmatvec(coeff, vec: np.ndarray, counters: OpCounters) -> np.ndarray:
    """Transpose product coeff^T @ vec (the pi-side view of a coefficient)."""
    if isinstance(coeff, np.ndarray):
        counters.count_matvec(coeff.shape[1], coeff.shape[0])
        return coeff.T @ vec
    return coeff.rmatvec(vec, counters)


def _rake_product(parent_coeff, diag: np.ndarray, other_coeff, counters: OpCounters):
    """parent_coeff . Diag(diag) . other_coeff"""
    if isinstance(parent_coeff, np.ndarray):
        counters.count_diag_scale(*parent_coeff.shape)
        scaled = parent_coeff * diag
        counters.count_matmat(scaled.shape[0], scaled.shape[1], other_coeff.shape[1])
        return scaled @ other_coeff
    return parent_coeff.rake_product(diag, other_coeff, counters)


def materialize(coeff) -> np.ndarray:
    return coeff if isinstance(coeff, np.ndarray) else coeff.materialize()


# -- stored structure ------------------------------------------------------------

class Slot:
    """Mutable holder for one stored coefficient matrix.

    consumer is the at-most-one rake equation this matrix feeds; it is the
    hook the update walk follows.
    """

    __slots__ = ("uid", "coeff", "consumer", "owner", "side", "version", "level")

    def __init__(self, uid: int, coeff, owner: str, side: int, version: int, level: int):
        self.uid = uid
        self.coeff = coeff
        self.consumer: RakeEquation | None = None
        self.owner = owner
        self.side = side
        self.version = version
        self.level = level

    def describe(self) -> tuple[str, str, int]:
        return (self.owner, "left" if self.side == LEFT else "right", self.level)

    def __repr__(self):
        side = "left" if self.side == LEFT else "right"
        return f"<Slot {self.owner}.{side} v{self.version} level={self.level}>"


@dataclass
class RakeEquation:
    """output = parent_input . Diag(e_side_input . lambda(leaf)) . z_side_input"""

    output: Slot
    parent_input: Slot
    e_side_input: Slot
    z_side_input: Slot
    leaf: str

    def recompute(self, index: "ContractionIndex") -> None:
        diag = _matvec(self.e_side_input.coeff, index.evidence[self.leaf], index.counters)
        self.output.coeff = _rake_product(
            self.parent_input.coeff, diag, self.z_side_input.coeff, index.counters)
        index.counters.count_equation()


@dataclass
class CoeffRecord:
    """One version of a node's two-sided likelihood equation.

    lambda(owner) = left.coeff . lambda(left_child) * right.coeff . lambda(right_child)

    version 0 holds the base-tree conditional matrices; each later version is
    created by one rake below the owner and shares the untouched side's slot
    with its predecessor.
    """

    owner: str
    version: int
    level: int
    left: Slot
    right: Slot
    left_child: str
    right_child: str
    created_by: "RakeEvent | None" = None

    def side_slot(self, side: int) -> Slot:
        return self.left if side == LEFT else self.right

    def child(self, side: int) -> str:
        return self.left_child if side == LEFT else self.right_child


@dataclass
class RakeEvent:
    """Everything one rake step removed, spliced and rewrote."""

    level: int
    leaf: str           # raked leaf e
    parent: str         # raked parent x
    grandparent: str    # u
    leaf_side: int      # side of e within x
    parent_side: int    # side of x within u
    grandparent_pre: CoeffRecord
    grandparent_post: CoeffRecord
    equation: RakeEquation


@dataclass
class PiLambdaTriple:
    """pi of a node plus the lambdas of its two children at some level."""

    pi: np.ndarray
    lambda_left: np.ndarray
    lambda_right: np.ndarray

    def lam(self, side: int) -> np.ndarray:
        return self.lambda_left if side == LEFT else self.lambda_right


@dataclass
class LevelNode:
    parent: str | None
    side: int | None
    record: CoeffRecord | None  # None for leaves


@dataclass
class Level:
    index: int
    nodes: dict[str, LevelNode]
    leaves: list[str]  # left-to-right frontier


class ContractionIndex:
    """Preprocessed equation hierarchy for one tree."""

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.counters = OpCounters()
        self.records: dict[str, list[CoeffRecord]] = {}
        self.evidence: dict[str, np.ndarray] = {}
        self.leaf_consumer: dict[str, RakeEquation] = {}
        self.rake_log: list[RakeEvent] = []
        self.removed_by: dict[str, RakeEvent] = {}
        self.levels: list[Level] = []
        self.leaf_counts: list[int] = []
        self.root = tree.root
        # The leftmost and rightmost leaves are never raked, so the extremes
        # of every frontier coincide with those of the base tree.
        order = tree.leaf_order()
        self.extreme_left: str = order[0]
        self.extreme_right: str = order[-1]
        self.base_matrix_count = 0
        self.stored_matrix_count = 0
        self.last_update_trace: list[Slot] = []
        self.last_calc_depth = 0
        # live structure, only used while contract() is running
        self._live_children: dict[str, list[str]] | None = None
        self._live_parent: dict[str, str | None] | None = None
        self._slot_seq = 0
        self._building = True

    def _new_slot(self, coeff, owner: str, side: int, version: int, level: int) -> Slot:
        slot = Slot(self._slot_seq, coeff, owner, side, version, level)
        self._slot_seq += 1
        self.stored_matrix_count += 1
        return slot

    # -- live-frontier helpers used during construction -------------------------

    def _frontier(self) -> list[str]:
        out = []
        stack = [self.root]
        while stack:
            cur = stack.pop()
            kids = self._live_children[cur]
            if not kids:
                out.append(cur)
            else:
                stack.extend(reversed(kids))
        return out

    def all_slots(self) -> list[Slot]:
        seen: dict[int, Slot] = {}
        for recs in self.records.values():
            for rec in recs:
                seen[rec.left.uid] = rec.left
                seen[rec.right.uid] = rec.right
        return [seen[uid] for uid in sorted(seen)]


def contract(tree: CausalTree, coeffs: dict[str, object] | None = None,
             _max_rounds: int | None = None) -> ContractionIndex:
    """Build the full contraction hierarchy for a complete binary tree.

    The index owns the tree it is given: it keeps it as index.tree, and
    update_evidence writes each new likelihood through to it, so copy the
    tree first to keep the original.  Leaf likelihoods are shared with the
    tree, not copied.

    coeffs optionally maps each non-root node id to the coefficient object
    for the edge entering it (defaults to a copy of the node's conditional
    matrix).  Raises TreeTooSmall for trees under three nodes.  _max_rounds
    stops early and leaves the index in its live, partially contracted state;
    only rake() may be called on such an index.
    """
    if tree.n < 3:
        raise TreeTooSmall(f"contraction needs at least 3 nodes, got {tree.n}")
    if not tree.is_complete_binary():
        raise ConstructionError("contraction requires a complete binary tree; run normalize_tree first")

    index = ContractionIndex(tree)
    index._live_children = {nid: list(n.children) for nid, n in tree.nodes.items()}
    index._live_parent = {nid: n.parent for nid, n in tree.nodes.items()}

    for node_id in tree.nodes:
        node = tree.nodes[node_id]
        if node.children:
            left, right = node.children
            left_coeff = coeffs[left] if coeffs is not None else tree.nodes[left].cpt.copy()
            right_coeff = coeffs[right] if coeffs is not None else tree.nodes[right].cpt.copy()
            rec = CoeffRecord(
                owner=node_id, version=0, level=0,
                left=index._new_slot(left_coeff, node_id, LEFT, 0, 0),
                right=index._new_slot(right_coeff, node_id, RIGHT, 0, 0),
                left_child=left, right_child=right)
            index.records[node_id] = [rec]
        else:
            index.evidence[node_id] = node.evidence
    index.base_matrix_count = index.stored_matrix_count

    frontier = index._frontier()
    index.leaf_counts.append(len(frontier))
    index.levels.append(_snapshot(index, 0))

    level = 0
    while len(frontier) > 2:
        if _max_rounds is not None and level >= _max_rounds:
            return index
        level += 1
        selected = frontier[1:-1][::2]
        for leaf in selected:
            rake(index, level, leaf)
        frontier = index._frontier()
        index.leaf_counts.append(len(frontier))
        index.levels.append(_snapshot(index, level))

    index._building = False
    index._live_children = None
    index._live_parent = None
    return index


def _snapshot(index: ContractionIndex, level: int) -> Level:
    nodes: dict[str, LevelNode] = {}
    stack = [index.root]
    while stack:
        cur = stack.pop()
        parent = index._live_parent[cur]
        side = None if parent is None else index._live_children[parent].index(cur)
        record = index.records[cur][-1] if index._live_children[cur] else None
        nodes[cur] = LevelNode(parent=parent, side=side, record=record)
        stack.extend(index._live_children[cur])
    return Level(index=level, nodes=nodes, leaves=index._frontier())


def rake(index: ContractionIndex, level: int, leaf: str) -> RakeEvent:
    """Remove one leaf and its parent, rewriting the grandparent's equation.

    Internal step of contract(); exposed so tests can drive partial
    contractions.  Raises NotRakeable for extreme leaves or leaves whose
    parent is the root.
    """
    if not index._building:
        raise NotRakeable("index is fully contracted")
    if leaf not in index.tree.nodes:
        raise UnknownNode(f"no node {leaf!r}")
    if index._live_children.get(leaf) is None or index._live_children[leaf]:
        raise NotRakeable(f"{leaf!r} is not a live leaf")
    if leaf in (index.extreme_left, index.extreme_right):
        raise NotRakeable(f"{leaf!r} is an extreme leaf")
    parent = index._live_parent[leaf]
    grand = index._live_parent[parent]
    if grand is None:
        raise NotRakeable(f"parent of {leaf!r} is the root; tree is already terminal")

    parent_rec = index.records[parent][-1]
    grand_pre = index.records[grand][-1]
    leaf_side = LEFT if parent_rec.left_child == leaf else RIGHT
    survivor = parent_rec.child(1 - leaf_side)
    parent_side = LEFT if grand_pre.left_child == parent else RIGHT
    sibling = grand_pre.child(1 - parent_side)

    diag = _matvec(parent_rec.side_slot(leaf_side).coeff, index.evidence[leaf], index.counters)
    new_coeff = _rake_product(
        grand_pre.side_slot(parent_side).coeff, diag,
        parent_rec.side_slot(1 - leaf_side).coeff, index.counters)
    index.counters.count_equation()
    new_slot = index._new_slot(new_coeff, grand, parent_side, grand_pre.version + 1, level)

    equation = RakeEquation(
        output=new_slot,
        parent_input=grand_pre.side_slot(parent_side),
        e_side_input=parent_rec.side_slot(leaf_side),
        z_side_input=parent_rec.side_slot(1 - leaf_side),
        leaf=leaf)
    for slot in (equation.parent_input, equation.e_side_input, equation.z_side_input):
        assert slot.consumer is None, "a stored matrix may feed only one equation"
        slot.consumer = equation
    assert leaf not in index.leaf_consumer
    index.leaf_consumer[leaf] = equation

    shared = grand_pre.side_slot(1 - parent_side)
    post = CoeffRecord(
        owner=grand, version=grand_pre.version + 1, level=level,
        left=new_slot if parent_side == LEFT else shared,
        right=new_slot if parent_side == RIGHT else shared,
        left_child=survivor if parent_side == LEFT else sibling,
        right_child=survivor if parent_side == RIGHT else sibling)
    index.records[grand].append(post)

    event = RakeEvent(
        level=level, leaf=leaf, parent=parent, grandparent=grand,
        leaf_side=leaf_side, parent_side=parent_side,
        grandparent_pre=grand_pre, grandparent_post=post, equation=equation)
    post.created_by = event
    index.rake_log.append(event)
    index.removed_by[leaf] = event
    index.removed_by[parent] = event

    index._live_children[grand][parent_side] = survivor
    index._live_parent[survivor] = grand
    del index._live_children[leaf], index._live_children[parent]
    del index._live_parent[leaf], index._live_parent[parent]
    return event


# -- queries ----------------------------------------------------------------------

def lambda_query(index: ContractionIndex, node_id: str) -> np.ndarray:
    """Likelihood vector of the evidence below a node, via highest-level
    equations.  Touches one equation per level on the recursion path."""
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    out = _lambda_rec(index, node_id)
    return out.copy() if node_id in index.evidence else out


def _lambda_rec(index: ContractionIndex, node_id: str) -> np.ndarray:
    if node_id in index.evidence:
        return index.evidence[node_id]
    rec = index.records[node_id][-1]
    left = _lambda_rec(index, rec.left_child)
    right = _lambda_rec(index, rec.right_child)
    index.counters.count_equation()
    out = _matvec(rec.left.coeff, left, index.counters) \
        * _matvec(rec.right.coeff, right, index.counters)
    index.counters.count_vector_op(out.shape[0])
    return out


def update_evidence(index: ContractionIndex, leaf_id: str, evidence) -> ContractionIndex:
    """Install new evidence at a leaf and recompute its consumer chain.

    Recomputes exactly the stored coefficients whose defining equations
    transitively consumed the leaf's likelihood: one chain, one matrix-matrix
    product per recomputed coefficient.  No lambda or pi values are
    maintained; queries stay consistent automatically.  evidence is an
    Evidence or an array; its checked copy is stored once, in index.tree,
    and index.evidence points at it.
    """
    set_evidence(index.tree, leaf_id, evidence)
    index.evidence[leaf_id] = index.tree.nodes[leaf_id].evidence
    trace: list[Slot] = []
    equation = index.leaf_consumer.get(leaf_id)
    while equation is not None:
        equation.recompute(index)
        trace.append(equation.output)
        equation = equation.output.consumer
    index.last_update_trace = trace
    return index


def calc_pi_lambda(index: ContractionIndex, node_id: str, level: int) -> PiLambdaTriple:
    """pi of a node plus the lambdas of its children as of a contraction level.

    The node must have an equation at that level.  One recursive step per
    equation version on the path to the root.
    """
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    if not 0 <= level < len(index.levels):
        raise LevelOutOfRange(f"level {level} outside 0..{len(index.levels) - 1}")
    entry = index.levels[level].nodes.get(node_id)
    if entry is None or entry.record is None:
        raise LevelOutOfRange(f"{node_id!r} has no equations at level {level}")
    index.last_calc_depth = 0
    return _calc(index, node_id, entry.record.version, 1)


def _calc(index: ContractionIndex, node_id: str, version: int, depth: int) -> PiLambdaTriple:
    """Recursive core: triple for the node's equation at the given version."""
    index.last_calc_depth = max(index.last_calc_depth, depth)
    recs = index.records[node_id]
    rec = recs[version]
    if version == len(recs) - 1:
        event = index.removed_by.get(node_id)
        if event is None:
            # Terminal three-node form: the root flanked by the extreme leaves.
            return PiLambdaTriple(
                pi=index.tree.nodes[index.root].prior.copy(),
                lambda_left=index.evidence[rec.left_child],
                lambda_right=index.evidence[rec.right_child])
        # The node was raked away: recover pi from the grandparent's triple.
        above = _calc(index, event.grandparent, event.grandparent_post.version, depth + 1)
        pi = _pi_of_raked_parent(index, event, above)
        lam_z = above.lam(event.parent_side)
        lam_e = index.evidence[event.leaf]
        if event.leaf_side == LEFT:
            return PiLambdaTriple(pi=pi, lambda_left=lam_e, lambda_right=lam_z)
        return PiLambdaTriple(pi=pi, lambda_left=lam_z, lambda_right=lam_e)
    # The node survived the rake that produced version+1: same pi, but the
    # raked child's lambda must be reconstructed from its final equation.
    event = recs[version + 1].created_by
    above = _calc(index, node_id, version + 1, depth + 1)
    removed = event.parent  # the child that was raked away between versions
    removed_rec = index.records[removed][-1]
    lam_parts = [None, None]
    lam_parts[event.leaf_side] = index.evidence[event.leaf]
    lam_parts[1 - event.leaf_side] = above.lam(event.parent_side)
    index.counters.count_equation()
    lam_removed = _matvec(removed_rec.left.coeff, lam_parts[LEFT], index.counters) \
        * _matvec(removed_rec.right.coeff, lam_parts[RIGHT], index.counters)
    index.counters.count_vector_op(lam_removed.shape[0])
    if event.parent_side == LEFT:
        return PiLambdaTriple(pi=above.pi, lambda_left=lam_removed, lambda_right=above.lambda_right)
    return PiLambdaTriple(pi=above.pi, lambda_left=above.lambda_left, lambda_right=lam_removed)


def _pi_of_raked_parent(index: ContractionIndex, event: RakeEvent,
                        above: PiLambdaTriple) -> np.ndarray:
    """pi of the raked parent x from its grandparent-side views.

    The sibling-side coefficient is shared across the rake, so the
    grandparent's post-rake record supplies it; the x-side coefficient comes
    from the pre-rake record, used transposed.
    """
    sibling_coeff = event.grandparent_post.side_slot(1 - event.parent_side).coeff
    own_coeff = event.grandparent_pre.side_slot(event.parent_side).coeff
    lam_sibling = above.lam(1 - event.parent_side)
    term = _matvec(sibling_coeff, lam_sibling, index.counters)
    index.counters.count_vector_op(term.shape[0])
    index.counters.count_equation()
    return _rmatvec(own_coeff, above.pi * term, index.counters)


def _pi_of_leaf(index: ContractionIndex, leaf_id: str) -> np.ndarray:
    if leaf_id in (index.extreme_left, index.extreme_right):
        rec = index.records[index.root][-1]
        side = LEFT if rec.left_child == leaf_id else RIGHT
        other = rec.child(1 - side)
        term = _matvec(rec.side_slot(1 - side).coeff, index.evidence[other], index.counters)
        index.counters.count_vector_op(term.shape[0])
        index.counters.count_equation()
        prior = index.tree.nodes[index.root].prior
        return _rmatvec(rec.side_slot(side).coeff, prior * term, index.counters)
    event = index.removed_by[leaf_id]
    above = _calc(index, event.grandparent, event.grandparent_post.version, 1)
    pi_parent = _pi_of_raked_parent(index, event, above)
    parent_rec = index.records[event.parent][-1]
    lam_z = above.lam(event.parent_side)
    term = _matvec(parent_rec.side_slot(1 - event.leaf_side).coeff, lam_z, index.counters)
    index.counters.count_vector_op(term.shape[0])
    index.counters.count_equation()
    return _rmatvec(parent_rec.side_slot(event.leaf_side).coeff, pi_parent * term, index.counters)


def pi_query(index: ContractionIndex, node_id: str) -> np.ndarray:
    """Prior-side message at a node under the evidence currently in force."""
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    if node_id == index.root:
        return index.tree.nodes[index.root].prior.copy()
    if node_id in index.evidence:
        return _pi_of_leaf(index, node_id)
    event = index.removed_by[node_id]
    above = _calc(index, event.grandparent, event.grandparent_post.version, 1)
    return _pi_of_raked_parent(index, event, above)


def belief_query(index: ContractionIndex, node_id: str) -> Belief:
    """Normalized belief at any node, sharing a single triple computation.

    pi and the lambdas needed for the node's own equation come from one
    _calc walk, so the whole query costs one root-ward pass.
    """
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    if node_id == index.root:
        rec = index.records[index.root][-1]
        triple = _calc(index, index.root, rec.version, 1)
        index.counters.count_equation()
        lam = _matvec(rec.left.coeff, triple.lambda_left, index.counters) \
            * _matvec(rec.right.coeff, triple.lambda_right, index.counters)
        index.counters.count_vector_op(lam.shape[0])
        pi = triple.pi
    elif node_id in index.evidence:
        lam = index.evidence[node_id]
        pi = _pi_of_leaf(index, node_id)
    else:
        event = index.removed_by[node_id]
        above = _calc(index, event.grandparent, event.grandparent_post.version, 1)
        pi = _pi_of_raked_parent(index, event, above)
        rec = index.records[node_id][-1]
        lam_parts = [None, None]
        lam_parts[event.leaf_side] = index.evidence[event.leaf]
        lam_parts[1 - event.leaf_side] = above.lam(event.parent_side)
        index.counters.count_equation()
        lam = _matvec(rec.left.coeff, lam_parts[LEFT], index.counters) \
            * _matvec(rec.right.coeff, lam_parts[RIGHT], index.counters)
        index.counters.count_vector_op(lam.shape[0])
    index.counters.count_vector_op(lam.shape[0])
    return normalize_belief(lam * pi, node=node_id)

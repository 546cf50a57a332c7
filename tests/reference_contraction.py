"""The sequential contraction builder and its object-graph op path: the
oracle the flat index of logbel.contraction is checked against.

contract() here rakes the leaves of each round one at a time, in frontier
order, and every rake is an object, a RakeEquation (the version of the
grandparent's equation it writes), with an output Slot.  The update chain
and the query walk follow object references.  Coefficient forms, products
and counts come from logbel.contraction, so both engines count by one rule,
but a walk here counts each product as it computes it.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from logbel.contraction import LEFT, RIGHT, _form, _rake_costs, matvec_cost
from logbel.counters import NO_COST, OpCounters, sum_costs
from logbel.errors import ConstructionError, DimensionMismatch, TreeTooSmall, UnknownNode
from logbel.model import Belief, CausalTree, normalize_belief, set_evidence


# -- stored structure ------------------------------------------------------------

class Slot:
    """Mutable holder for one stored coefficient matrix.

    form is the coefficient's form, set with its first coefficient (a rake's
    output slot gets both from rake()); every product keeps the form its
    operands' shapes decide, so no update changes it.  consumer is the
    at-most-one rake equation this matrix feeds; it is the hook the update
    walk follows.  chain_cost counts the consumer chain an update that
    changes this matrix recomputes: rake() sets the consumer's step, entered
    through this slot, and contract() adds the rest when it ends.
    """

    __slots__ = ("coeff", "form", "consumer", "owner", "side", "level", "chain_cost")

    def __init__(self, coeff, owner: str, side: int, level: int):
        self.coeff = coeff
        self.form = None if coeff is None else _form(coeff)
        self.consumer: RakeEquation | None = None
        self.owner = owner
        self.side = side
        self.level = level
        self.chain_cost = NO_COST

    def describe(self) -> tuple[str, str, int]:
        return (self.owner, "left" if self.side == LEFT else "right", self.level)

    def __repr__(self):
        owner, side, level = self.describe()
        return f"<Slot {owner}.{side} level={level}>"


class CoeffRecord:
    """One version of a node's two-sided likelihood equation.

    lambda(owner) = left.coeff . lambda(left_child) * right.coeff . lambda(right_child)

    index.records[owner] lists the versions in order.  The first holds the
    base-tree conditional matrices; each later one is the RakeEquation of
    one rake below the owner, and shares the untouched side's slot with its
    predecessor.

    above is the next version on the root-ward query walk: the owner's next
    version, or, for the last version of a raked node, the rake that
    absorbed it; None only for the root's terminal version.
    """

    __slots__ = ("owner", "level", "left", "right", "left_child", "right_child", "above")

    def __init__(self, owner: str, level: int, left: Slot, right: Slot,
                 left_child: str, right_child: str):
        self.owner = owner
        self.level = level
        self.left = left
        self.right = right
        self.left_child = left_child
        self.right_child = right_child
        self.above: CoeffRecord | None = None

    def side_slot(self, side: int) -> Slot:
        return self.left if side == LEFT else self.right

    def child(self, side: int) -> str:
        return self.left_child if side == LEFT else self.right_child


class RakeEquation(CoeffRecord):
    """One rake (e, x, u): the version of u's equation it writes, whose
    owner is u and whose slot on x's side, output, holds
    output = parent_input . Diag(e_side_input . lambda(leaf)) . z_side_input

    Built from the leaf e, x's last version parent_rec and u's, grand_pre,
    which it rewrites: it keeps grand_pre's slot on the other side, and the
    above of both is this rake.  diag caches e_side_input . lambda(leaf)
    and scaled the left half of the product, parent_input * diag (an
    ndarray, a FactoredMatrix or, through an identity parent, a
    _Diagonal): rake() sets both, and _recompute refreshes diag when the
    leaf or the e-side slot changes and scaled when diag or the parent slot
    does.  So a step entered through the leaf or the e side refreshes both,
    through the parent side scaled only, through the z side neither.
    """

    __slots__ = ("e_side_input", "leaf", "output", "parent_input", "z_side_input", "parent",
                 "leaf_side", "parent_side", "diag", "scaled")

    def __init__(self, level: int, leaf: str, leaf_side: int, parent_rec: CoeffRecord,
                 parent_side: int, grand_pre: CoeffRecord, output: Slot):
        shared = grand_pre.side_slot(1 - parent_side)
        survivor = parent_rec.child(1 - leaf_side)
        sibling = grand_pre.child(1 - parent_side)
        if parent_side == LEFT:
            super().__init__(grand_pre.owner, level, output, shared, survivor, sibling)
        else:
            super().__init__(grand_pre.owner, level, shared, output, sibling, survivor)
        self.e_side_input = parent_rec.side_slot(leaf_side)
        self.leaf = leaf                  # raked leaf e
        self.output = output
        self.parent_input = grand_pre.side_slot(parent_side)
        self.z_side_input = parent_rec.side_slot(1 - leaf_side)
        self.parent = parent_rec.owner    # raked parent x
        self.leaf_side = leaf_side        # side of e within x
        self.parent_side = parent_side    # side of x within u
        self.diag = self.scaled = None


class ContractionIndex:
    """The reference index: equation versions as objects.  levels holds
    each round's frontier."""

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.counters = OpCounters()
        self.records: dict[str, list[CoeffRecord]] = {}
        self.evidence: dict[str, np.ndarray] = {}
        self.leaf_consumer: dict[str, RakeEquation] = {}  # every rake, in build order
        self.root = tree.root
        self.levels: list[list[str]] = [tree.leaf_order()]
        self.base_matrix_count = 0
        self.last_update_trace: list[Slot] = []
        self.last_calc_depth = 0
        # parent of each live node while contract() runs
        self._live_parent: dict[str, str | None] | None = None

    def all_slots(self) -> list[Slot]:
        """Every stored matrix in storage order: the base equations' pairs,
        then the rakes' outputs in build order."""
        slots = [slot for recs in self.records.values() for slot in (recs[0].left, recs[0].right)]
        return slots + [rk.output for rk in self.leaf_consumer.values()]


def contract(tree: CausalTree, coeffs: Mapping[str, object] | None = None) -> ContractionIndex:
    """Build the contraction hierarchy for a complete binary tree: rake
    rounds run until only the root and the two extreme leaves remain.

    The index owns the tree it is given: it keeps it as index.tree, and
    update_evidence writes each new likelihood through to it, so copy the
    tree first to keep the original.  Leaf likelihoods and conditional
    matrices are shared with the tree, not copied; no update writes to a
    conditional matrix.

    coeffs optionally maps non-root node ids to the coefficient object for
    the edge entering each; an edge it does not list uses its node's
    conditional matrix.
    Raises TreeTooSmall for trees under three nodes, UnknownNode for a
    coeffs id that is not a non-root node, and DimensionMismatch for a
    coefficient whose shape is not its edge's (parent domain, own domain).
    """
    if tree.n < 3:
        raise TreeTooSmall(f"contraction needs at least 3 nodes, got {tree.n}")
    if not tree.is_complete_binary():
        raise ConstructionError("contraction requires a complete binary tree; run normalize_tree first")

    coeffs = {} if coeffs is None else coeffs
    for node_id, coeff in coeffs.items():
        node = tree.nodes.get(node_id)
        if node is None or node.parent is None:
            raise UnknownNode(f"coeffs names {node_id!r}, which is not a non-root node")
        shape = (tree.nodes[node.parent].domain, node.domain)
        if coeff.shape != shape:
            raise DimensionMismatch(
                f"coefficient of {node_id!r} has shape {coeff.shape}, its edge is {shape}")
    index = ContractionIndex(tree)
    index._live_parent = {nid: n.parent for nid, n in tree.nodes.items()}

    for node_id, node in tree.nodes.items():
        if node.children:
            left, right = node.children
            rec = CoeffRecord(
                node_id, 0,
                Slot(coeffs.get(left, tree.nodes[left].cpt), node_id, LEFT, 0),
                Slot(coeffs.get(right, tree.nodes[right].cpt), node_id, RIGHT, 0),
                left, right)
            index.records[node_id] = [rec]
        else:
            index.evidence[node_id] = node.evidence
    index.base_matrix_count = 2 * len(index.records)

    frontier = index.levels[0]
    level = 0
    while len(frontier) > 2:
        level += 1
        interior = frontier[1:-1]
        for leaf in interior[::2]:
            rake(index, level, leaf)
        # a rake removes exactly its leaf from the frontier, keeping the order
        frontier = [frontier[0], *interior[1::2], frontier[-1]]
        index.levels.append(frontier)

    _total_costs(index)
    index._live_parent = None
    return index


def _total_costs(index: ContractionIndex) -> None:
    """Fix the counts of every update chain.

    rake() has set each slot's chain_cost to its consumer's step.  A slot's
    consumer writes a later slot, so one reverse pass in storage order adds
    each chain's rest.  Queries count each product as they compute it.
    """
    for slot in reversed(index.all_slots()):
        if slot.consumer is not None:
            slot.chain_cost = sum_costs(slot.chain_cost, slot.consumer.output.chain_cost)


def rake(index: ContractionIndex, level: int, leaf: str) -> RakeEquation:
    """One step of contract(): remove a live leaf that is not extreme, and
    its parent, splicing the parent's other child under the grandparent
    and rewriting the grandparent's equation.

    Returns the rake, the grandparent's new equation version, which
    leaf_consumer and the grandparent's records hold.  contract() calls it
    through this module's global, so a wrapper installed here sees every
    rake.
    """
    parent = index._live_parent[leaf]
    grand = index._live_parent[parent]

    parent_rec = index.records[parent][-1]
    grand_pre = index.records[grand][-1]
    leaf_side = LEFT if parent_rec.left_child == leaf else RIGHT
    parent_side = LEFT if grand_pre.left_child == parent else RIGHT

    output = Slot(None, grand, parent_side, level)
    rk = RakeEquation(level, leaf, leaf_side, parent_rec, parent_side, grand_pre, output)
    _recompute(index.evidence, rk)  # no consumer yet: this equation only; sets diag, scaled
    output.form = _form(output.coeff)
    e_side = rk.e_side_input
    e_entry, parent_entry, z_entry, _ = _rake_costs(
        e_side.coeff.shape[0], e_side.form, rk.parent_input.form, rk.z_side_input.form)
    index.counters.add(e_entry)
    for slot, entry in ((e_side, e_entry), (rk.parent_input, parent_entry),
                        (rk.z_side_input, z_entry)):
        assert slot.consumer is None, "a stored matrix may feed only one equation"
        slot.consumer = rk
        slot.chain_cost = entry
    assert leaf not in index.leaf_consumer
    index.leaf_consumer[leaf] = rk
    grand_pre.above = parent_rec.above = rk
    index.records[grand].append(rk)

    index._live_parent[rk.child(parent_side)] = grand
    return rk


# -- queries ---------------------------------------------------------------------

def lambda_query(index: ContractionIndex, node_id: str) -> np.ndarray:
    """Likelihood vector of the evidence below a node, counted as it is
    computed: a leaf's evidence, the product of the root's two messages,
    or, for a raked node x, the rake (e, x, u) that removes it times x's
    other child z: lambda(x) = diag * (z side . lambda(z))."""
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    out = _lambda_rec(index, node_id)
    return out.copy() if node_id in index.evidence else out


def _lambda_rec(index: ContractionIndex, node_id: str) -> np.ndarray:
    if node_id in index.evidence:
        return index.evidence[node_id]
    rec = index.records[node_id][-1]
    rk = rec.above
    if rk is None:  # the root's terminal version
        left = _message(index, rec.left, _lambda_rec(index, rec.left_child))
        return _count_product(index, left * _message(index, rec.right,
                                                     _lambda_rec(index, rec.right_child)))
    lam_z = _lambda_rec(index, rec.child(1 - rk.leaf_side))
    return _count_product(index, rk.diag * _message(index, rk.z_side_input, lam_z))


def _recompute(evidence: dict[str, np.ndarray], equation: RakeEquation | None) -> list[Slot]:
    """Evaluate equation, then the equation its output feeds, and so on up
    the consumer chain; return the rewritten slots in order.

    The first equation's leaf changed, so its diag and scaled are
    refreshed, and so are a later one's where the chain enters it through
    its e-side slot.  Entered through its parent slot, it refreshes scaled
    only; through its z-side slot, nothing, and the step is one product.

    Nothing here writes an array in place, and nothing may: out.coeff is
    the rake's own scaled when a dense parent meets an identity z side
    (Identity.__rmatmul__ returns its operand), so rescaling an output
    must build a new array, or it rewrites that cache too.
    """
    trace: list[Slot] = []
    entry = None  # the slot the chain entered through; None for the leaf
    while equation is not None:
        if entry is not equation.z_side_input:
            if entry is not equation.parent_input:
                equation.diag = equation.e_side_input.coeff.dot(evidence[equation.leaf])
            equation.scaled = equation.parent_input.coeff * equation.diag
        out = equation.output
        scaled, z_side = equation.scaled, equation.z_side_input.coeff
        out.coeff = scaled.dot(z_side) if type(z_side) is np.ndarray else scaled @ z_side
        trace.append(out)
        entry, equation = out, out.consumer
    return trace


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
    equation = index.leaf_consumer.get(leaf_id)
    if equation is not None:
        # the leaf enters its rake as the e-side slot does
        index.counters.add(equation.e_side_input.chain_cost)
    index.last_update_trace = _recompute(index.evidence, equation)
    return index


def _count_product(index: ContractionIndex, out: np.ndarray) -> np.ndarray:
    """Count an equation's vector product, out, and return it."""
    index.counters.add((0, 0, 1, len(out), 0))
    return out


def _message(index: ContractionIndex, slot: Slot, lam: np.ndarray) -> np.ndarray:
    """slot's coefficient times lam, counted."""
    index.counters.add(matvec_cost(slot.form))
    return slot.coeff.dot(lam)


def _down(index: ContractionIndex, up: np.ndarray, slot: Slot) -> np.ndarray:
    """up times slot's coefficient, the pi step through it, counted."""
    index.counters.add(matvec_cost(slot.form))
    return up.dot(slot.coeff) if type(slot.coeff) is np.ndarray else up @ slot.coeff


def _walk(index: ContractionIndex, rec: CoeffRecord, carry: list[bool]):
    """(pi, [left, right]) of an equation version: pi of its owner and, on
    each side, the lambda of its child where carry says, else the message
    that side sends the owner (side coeff . lambda(child)), under the
    evidence in force.  Counts each product as it computes it.

    Climbs rec.above to the root's terminal version, then comes back down
    one rake at a time.  Each owner's versions carry lambda on the side the
    walk leaves them through, x's side below a step into a raked node x
    (the owner tells which step that is), and at the end on carry's sides.
    A message is the same at every version of its owner, so it is taken
    once, where the walk reaches the owner: at the root's terminal version,
    or below the rake (e, x, u) that removed it, where x's e side sends the
    rake's diagonal.  Below the version of rake (e, x, u), either the walk
    enters u's previous version, which keeps u's pi, and x's lambda is
    rebuilt from the cached diagonal if it is carried, or it enters x's
    final version, whose pi comes through u's parent side.
    Sets index.last_calc_depth to the number of versions climbed; pi may be
    the root's prior itself, so callers must not write to it.
    """
    path = []
    while rec.above is not None:
        path.append(rec)
        rec = rec.above
    index.last_calc_depth = len(path)
    carries = []  # the sides each path entry's owner carries lambda on
    for low in path:
        carries.append(carry)
        if low.owner != low.above.owner:
            carry = [side == low.above.parent_side for side in (LEFT, RIGHT)]
    evidence = index.evidence
    pi = index.tree.nodes[index.root].prior
    lam = [evidence[rec.child(side)] if carry[side]
           else _message(index, rec.side_slot(side), evidence[rec.child(side)])
           for side in (LEFT, RIGHT)]
    for rec, carry in zip(reversed(path), reversed(carries)):
        rk = rec.above
        side = rk.parent_side
        if rec.owner == rk.owner:
            if carry[side]:
                lam[side] = _count_product(index, rk.diag * _message(index, rk.z_side_input,
                                                                     lam[side]))
        else:
            pi = _down(index, _count_product(index, pi * lam[1 - side]), rk.parent_input)
            lam_z = lam[side]
            if not carry[1 - rk.leaf_side]:
                lam_z = _message(index, rk.z_side_input, lam_z)
            lam_e = evidence[rk.leaf] if carry[rk.leaf_side] else rk.diag
            lam = [lam_e, lam_z] if rk.leaf_side == LEFT else [lam_z, lam_e]
    return pi, lam


def _leaf_pi(index: ContractionIndex, leaf_id: str) -> np.ndarray:
    """pi of a leaf, through the final version of its parent: the raked
    parent's, or the root's for the two extreme leaves."""
    rk = index.leaf_consumer.get(leaf_id)
    rec = index.records[index.root if rk is None else rk.parent][-1]
    side = LEFT if rec.left_child == leaf_id else RIGHT
    pi, lam = _walk(index, rec, [side == LEFT, side == RIGHT])
    return _down(index, _count_product(index, pi * lam[1 - side]), rec.side_slot(side))


def pi_query(index: ContractionIndex, node_id: str) -> np.ndarray:
    """Prior-side message at a node under the evidence in force."""
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    if node_id == index.root:
        index.last_calc_depth = 0
        return index.tree.nodes[index.root].prior.copy()
    if node_id in index.evidence:
        return _leaf_pi(index, node_id)
    return _walk(index, index.records[node_id][-1], [True, True])[0]


def belief_query(index: ContractionIndex, node_id: str) -> Belief:
    """Normalized belief at any node from one root-ward walk.

    An internal node's walk ends at its final equation version, with the
    messages from both sides, whose product is its lambda; a leaf's ends
    at its parent's.
    """
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    if node_id in index.evidence:
        lam = index.evidence[node_id]
        pi = _leaf_pi(index, node_id)
    else:
        pi, (left, right) = _walk(index, index.records[node_id][-1], [False, False])
        lam = _count_product(index, left * right)
    index.counters.count_vector_op(lam.shape[0])
    return normalize_belief(lam * pi, node=node_id)

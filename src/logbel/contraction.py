"""Contraction index: logarithmic-time evidence updates and belief queries.

contract() repeatedly rakes leaves off a complete binary tree.  Raking a
leaf e with parent x and grandparent u removes e and x, splices x's other
child z under u, and rewrites u's coefficient on that side as

    new_coeff = old_coeff . Diag(e_side_coeff . lambda(e)) . z_side_coeff

so the likelihood equation of u stays correct for the smaller tree.  A
rake is one record, the version of u's equation it writes (RakeEquation,
a CoeffRecord).  It stores exactly one new matrix, and every stored
matrix (and every leaf likelihood) feeds at most one higher equation.  An
evidence update therefore walks a single chain of equations; a belief
query walks one root-ward path of equation versions.  Both touch O(log N)
equations on balanced rake schedules.

Coefficient forms.  This module owns how a stored coefficient is kept,
what its products cost and which form a product keeps.  A coefficient is a
dense ndarray, a FactoredMatrix (left . right) or an Identity; any object
with the same products (coeff.dot(x) for an ndarray x, coeff @ other for
another coefficient, vec @ coeff, coeff * diag) plus shape, form and
materialize can be given per edge through the coeffs argument of
contract(), forms mixed freely.  A form is the tuple of factor shapes:
(M.shape,) dense, (left.shape, right.shape) factored, () for the identity,
which every product passes through for free.  Operation counts come from
forms alone, by one rule: matvec_cost charges one matrix-vector product per
factor, rake_cost the rake product.  Every product keeps the cheapest form
that rule allows (_cheapest): two factors only while factored_pays, else
the product is multiplied out, and counted.  A table built from two
factors (a compiled clique edge) is stored factored only while saves_a_call.

Each rake keeps its diagonal, e_side_coeff . lambda(e), and the left half
of its product, old_coeff * diagonal, cached.  An update refreshes both on
the equations its chain enters through the leaf or the e-side slot, only
the left half on those it enters through the parent slot, and neither on
those it enters through the z-side slot, which take one product
(scaled_cost, where the others take rake_cost); a query walk reads the
diagonal instead of recomputing it.  No count includes a product whose
cached result is reused.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from .counters import NO_COST, OpCounters, sum_costs
from .errors import ConstructionError, DimensionMismatch, LevelOutOfRange, TreeTooSmall, UnknownNode
from .model import Belief, CausalTree, collector_paused, normalize_belief, set_evidence

LEFT, RIGHT = 0, 1


# -- coefficient forms, their products and their counts -----------------------
#
# Products use ndarray.dot, which skips the ufunc dispatch of @ (half the wall
# time of a 2 x 2 product) but does not defer to another operand: a right
# operand that is not an ndarray keeps @, and numpy defers to its
# __rmatmul__ (the forms set __array_ufunc__ = None).  contract() fixes each
# stored equation's counts once, from forms (equation_cost, _rake_costs),
# and the full and lazy engines count each equation by equation_cost; the
# caches hold immutable tuples, a few hundred keys per network.

def matvec_cost(form: tuple) -> tuple:
    """coeff @ vec or vec @ coeff: one matrix-vector product per factor."""
    return (len(form), 0, 0, sum(rows * cols for rows, cols in form), 0)


def factored_pays(form: tuple) -> bool:
    """Whether a two-factor form's matrix-vector product is strictly cheaper
    than that of the dense matrix it stands for."""
    (rows, inner), (_, cols) = form
    return rows * inner + inner * cols < rows * cols


# One numpy call costs about as much wall time as this many multiply-adds
# (A.dot(v): 0.6 us on a 2 x 2, 3.7 us on a 128 x 128; numpy 2.4.6).
CALL_MULT_ADDS = 3000


def saves_a_call(form: tuple) -> bool:
    """Whether a two-factor table is stored so: its product saves > CALL_MULT_ADDS."""
    (rows, inner), (_, cols) = form
    return rows * cols - (rows + cols) * inner > CALL_MULT_ADDS


def rake_cost(parent_form: tuple, other_form: tuple) -> tuple:
    """(parent * diag) @ other: the diagonal scales the parent's last factor
    (nothing through an identity parent), then scaled_cost."""
    scale = (0, 0, 0, parent_form[-1][0] * parent_form[-1][1], 0) if parent_form else NO_COST
    return sum_costs(scale, scaled_cost(parent_form, other_form))


def scaled_cost(parent_form: tuple, other_form: tuple) -> tuple:
    """scaled @ other, where scaled = parent * diag is already computed:
    scaled's last factor is multiplied through each factor of other in
    turn.  Through an identity parent, scaled is Diag(diag), which scales
    other's first factor (nothing at all if other is an identity too: the
    result is the diagonal).  A two-factor result that does not pay is
    multiplied out."""
    if parent_form:
        rows = parent_form[-1][0]
        scale, matmats = 0, len(other_form)
        matmat = sum(rows * inner * out for inner, out in other_form)
        form = parent_form[:-1] + ((rows, other_form[-1][1]),) if other_form else parent_form
    elif other_form:
        (rows, cols), matmats, matmat, form = other_form[0], 0, 0, other_form
        scale = rows * cols
    else:
        return NO_COST
    if len(form) == 2 and not factored_pays(form):
        (out_rows, inner), (_, out_cols) = form
        matmats += 1
        matmat += out_rows * inner * out_cols
    return (0, matmats, 0, scale + matmat, matmat)


def _cheapest(left: np.ndarray, right: np.ndarray):
    """left @ right, factored while that pays, multiplied out otherwise."""
    if factored_pays((left.shape, right.shape)):
        return FactoredMatrix(left, right)
    return left.dot(right)


class Identity:
    """The K x K identity: form (), and every product passes through it
    uncounted.  Identity * diag is Diag(diag), which scales the rows of what
    it multiplies (a diagonal, if that is an identity too)."""

    __slots__ = ("K",)
    form = ()
    __array_ufunc__ = None

    def __init__(self, K: int):
        self.K = K

    @property
    def shape(self) -> tuple[int, int]:
        return (self.K, self.K)

    def dot(self, x: np.ndarray) -> np.ndarray:
        return x

    def __matmul__(self, other):
        return other

    def __rmatmul__(self, vec: np.ndarray) -> np.ndarray:
        return vec

    def __mul__(self, diag: np.ndarray) -> "_Diagonal":
        return _Diagonal(diag)

    def materialize(self) -> np.ndarray:
        return np.eye(self.K)

    def __repr__(self):
        return f"<Identity {self.K}>"


class _Diagonal:
    """Diag(diag), the left side of a rake through an identity parent."""

    __slots__ = ("diag",)

    def __init__(self, diag: np.ndarray):
        self.diag = diag

    def dot(self, matrix: np.ndarray) -> np.ndarray:
        return self.diag[:, None] * matrix

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            return self.dot(other)
        if isinstance(other, FactoredMatrix):
            return _cheapest(self.diag[:, None] * other.left, other.right)
        return np.diag(self.diag)  # Diag . Identity


class FactoredMatrix:
    """K_parent x K_child matrix stored as left (K_parent x L) times right
    (L x K_child).  self * diag scales the columns, and self @ other keeps
    self's left factor and folds the rest into the right one, so a rake
    costs O(K L^2), unless the result is cheaper dense."""

    __slots__ = ("left", "right")
    __array_ufunc__ = None

    def __init__(self, left: np.ndarray, right: np.ndarray):
        if left.shape[1] != right.shape[0]:
            raise DimensionMismatch(
                f"factored parts do not chain: {left.shape} x {right.shape}")
        self.left = left
        self.right = right

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[1])

    @property
    def width(self) -> int:
        return self.left.shape[1]

    @property
    def form(self) -> tuple:
        return (self.left.shape, self.right.shape)

    def dot(self, x: np.ndarray):
        if x.ndim == 1:
            return self.left.dot(self.right.dot(x))
        return _cheapest(self.left, self.right.dot(x))

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            return self.dot(other)
        if isinstance(other, FactoredMatrix):
            return _cheapest(self.left, self.right.dot(other.left).dot(other.right))
        return _cheapest(self.left, self.right)  # self @ Identity

    def __rmatmul__(self, vec: np.ndarray) -> np.ndarray:
        return vec.dot(self.left).dot(self.right)

    def __mul__(self, diag: np.ndarray) -> "FactoredMatrix":
        return FactoredMatrix(self.left, self.right * diag)

    def rake_product(self, diag: np.ndarray, other, counters: OpCounters) -> "FactoredMatrix":
        """self . Diag(diag) . other, counted."""
        return _rake_product(self, diag, other, counters)

    def materialize(self) -> np.ndarray:
        return self.left.dot(self.right)

    def __repr__(self):
        return f"<FactoredMatrix {self.shape} width={self.width}>"


@cache
def _interned(form: tuple) -> tuple:
    """The first tuple seen equal to form, which every later one maps to."""
    return form


def _form(coeff) -> tuple:
    """The factor shapes a coefficient's operation counts depend on; equal
    forms are one tuple object."""
    return _interned((coeff.shape,) if isinstance(coeff, np.ndarray) else coeff.form)


def _rake_product(parent_coeff, diag: np.ndarray, other_coeff, counters: OpCounters):
    """parent_coeff . Diag(diag) . other_coeff, counted, as _recompute
    evaluates it"""
    counters.add(rake_cost(_form(parent_coeff), _form(other_coeff)))
    scaled = parent_coeff * diag
    return scaled.dot(other_coeff) if type(other_coeff) is np.ndarray else scaled @ other_coeff


def materialize(coeff) -> np.ndarray:
    return coeff if isinstance(coeff, np.ndarray) else coeff.materialize()


@cache
def equation_cost(K: int, left_form: tuple, right_form: tuple) -> tuple:
    """Counts of evaluating once an equation over a K-state owner: its two
    sides times child vectors, then their product.  A pi step through the
    equation (one side times the sibling's lambda, a product with pi, the
    other side transposed) counts the same."""
    product = (0, 0, 1, K, 0)  # the equation and its vector product
    return sum_costs(sum_costs(matvec_cost(left_form), matvec_cost(right_form)), product)


@cache
def _rake_costs(K: int, e_form: tuple, parent_form: tuple, z_form: tuple) -> tuple:
    """A rake (e, x, u) with a K-state x: its entry costs, one evaluation
    of its product by the slot it is entered through (the leaf or the e
    side refreshes diag and scaled: the e-side product, the rake product
    and the equation; the parent side scaled only, no e-side product; the
    z side neither, scaled times the z side alone), and its lambda_cost,
    the walk step that rebuilds lambda(x) from the cached diagonal (the z
    side's product and the vector product)."""
    equation = (0, 0, 1, 0, 0)
    parent_entry = sum_costs(rake_cost(parent_form, z_form), equation)
    return (sum_costs(matvec_cost(e_form), parent_entry), parent_entry,
            sum_costs(scaled_cost(parent_form, z_form), equation),
            sum_costs(matvec_cost(z_form), (0, 0, 1, K, 0)))


def _record_cost(rec: "CoeffRecord") -> tuple:
    """equation_cost of an equation version."""
    return equation_cost(rec.left.coeff.shape[0], rec.left.form, rec.right.form)


# -- stored structure ------------------------------------------------------------

class Slot:
    """Mutable holder for one stored coefficient matrix.

    form is the coefficient's form, set with its first coefficient (a rake's
    output slot gets both from rake()); every product keeps the form its
    operands' shapes decide, so no update changes it.  consumer is the
    at-most-one rake equation this matrix feeds; it is the hook the update
    walk follows.
    """

    __slots__ = ("uid", "coeff", "form", "consumer", "owner", "side", "level")

    def __init__(self, uid: int, coeff, owner: str, side: int, level: int):
        self.uid = uid
        self.coeff = coeff
        self.form = None if coeff is None else _form(coeff)
        self.consumer: RakeEquation | None = None
        self.owner = owner
        self.side = side
        self.level = level

    def describe(self) -> tuple[str, str, int]:
        return (self.owner, "left" if self.side == LEFT else "right", self.level)

    def __repr__(self):
        side = "left" if self.side == LEFT else "right"
        return f"<Slot #{self.uid} {self.owner}.{side} level={self.level}>"


class CoeffRecord:
    """One version of a node's two-sided likelihood equation.

    lambda(owner) = left.coeff . lambda(left_child) * right.coeff . lambda(right_child)

    index.records[owner] lists the versions in order.  The first holds the
    base-tree conditional matrices; each later one is the RakeEquation of
    one rake below the owner, and shares the untouched side's slot with its
    predecessor.

    above is the next version on the root-ward query walk: the owner's next
    version, or, for the last version of a raked node, the rake that
    absorbed it; None only for the root's terminal version.  cost counts
    one evaluation of this equation (_record_cost) and walk_cost the whole
    walk that builds this version's (pi, lambda, lambda) triple (filled in
    when contract() ends).
    """

    __slots__ = ("owner", "level", "left", "right", "left_child", "right_child",
                 "above", "cost", "walk_cost")

    def __init__(self, owner: str, level: int, left: Slot, right: Slot,
                 left_child: str, right_child: str):
        self.owner = owner
        self.level = level
        self.left = left
        self.right = right
        self.left_child = left_child
        self.right_child = right_child
        self.above: CoeffRecord | None = None
        self.cost = NO_COST
        self.walk_cost = NO_COST

    def side_slot(self, side: int) -> Slot:
        return self.left if side == LEFT else self.right

    def child(self, side: int) -> str:
        return self.left_child if side == LEFT else self.right_child


class RakeEquation(CoeffRecord):
    """One rake (e, x, u): the version of u's equation it writes, whose
    owner is u and whose slot on x's side, output, holds
    output = parent_input . Diag(e_side_input . lambda(leaf)) . z_side_input

    Built from the leaf e, x's last version parent_rec and u's,
    grandparent_pre, which it rewrites: it keeps grandparent_pre's slot on
    the other side, and its above, and that of parent_rec, is this rake.
    diag caches e_side_input . lambda(leaf) and scaled the left half of the
    product, parent_input * diag (an ndarray, a FactoredMatrix or, through
    an identity parent, a _Diagonal): rake() sets both, and _recompute
    refreshes diag when the leaf or the e-side slot changes and scaled when
    diag or the parent slot does.  The entry costs, fixed here from the
    input forms, count one evaluation of the rake product entered through
    each slot: e_entry_cost (the leaf or the e side) refreshes both,
    parent_entry_cost scaled only, z_entry_cost neither; lambda_cost counts
    the walk step that rebuilds lambda(x) from diag, and chain_cost the
    whole consumer chain an update starting here recomputes (filled in when
    contract() ends).
    """

    __slots__ = ("e_side_input", "leaf", "output", "parent_input", "z_side_input", "parent",
                 "leaf_side", "parent_side", "grandparent_pre", "diag", "scaled",
                 "e_entry_cost", "parent_entry_cost", "z_entry_cost", "lambda_cost",
                 "chain_cost")

    def __init__(self, level: int, leaf: str, leaf_side: int, parent_rec: CoeffRecord,
                 parent_side: int, grandparent_pre: CoeffRecord, output: Slot):
        shared = grandparent_pre.side_slot(1 - parent_side)
        survivor = parent_rec.child(1 - leaf_side)
        sibling = grandparent_pre.child(1 - parent_side)
        if parent_side == LEFT:
            super().__init__(grandparent_pre.owner, level, output, shared, survivor, sibling)
        else:
            super().__init__(grandparent_pre.owner, level, shared, output, sibling, survivor)
        self.e_side_input = e_side = parent_rec.side_slot(leaf_side)
        self.leaf = leaf                  # raked leaf e
        self.output = output
        self.parent_input = grandparent_pre.side_slot(parent_side)
        self.z_side_input = parent_rec.side_slot(1 - leaf_side)
        self.parent = parent_rec.owner    # raked parent x
        self.leaf_side = leaf_side        # side of e within x
        self.parent_side = parent_side    # side of x within u
        self.grandparent_pre = grandparent_pre
        self.diag = self.scaled = None
        self.e_entry_cost, self.parent_entry_cost, self.z_entry_cost, self.lambda_cost = \
            _rake_costs(e_side.coeff.shape[0], e_side.form, self.parent_input.form,
                        self.z_side_input.form)
        self.chain_cost = NO_COST


@dataclass
class PiLambdaTriple:
    """pi of a node plus the lambdas of its two children at some level."""

    pi: np.ndarray
    lambda_left: np.ndarray
    lambda_right: np.ndarray


@dataclass(slots=True)
class Level:
    """The tree after one round of rakes: its left-to-right frontier, and
    nodes, a read-only map of the nodes still present to their latest
    equation version (None for a leaf), built when read."""

    index: int
    leaves: list[str]
    _owner: "ContractionIndex"

    @property
    def nodes(self) -> Mapping[str, CoeffRecord | None]:
        owner, level = self._owner, self.index
        return MappingProxyType({nid: _record_at(owner, nid, level)
                                 for nid in owner.tree.nodes if _present(owner, nid, level)})


def _present(index: "ContractionIndex", node_id: str, level: int) -> bool:
    """A node is in the tree until the round of the rake that removes it:
    a leaf's rake consumes it, a raked parent's is its last version's above."""
    recs = index.records.get(node_id)
    rk = index.leaf_consumer.get(node_id) if recs is None else recs[-1].above
    return rk is None or rk.level > level


def _record_at(index: "ContractionIndex", node_id: str, level: int) -> CoeffRecord | None:
    """A node's last equation version created at or before a level; None
    for a leaf."""
    recs = index.records.get(node_id)
    if recs is None:
        return None
    return recs[bisect_right(recs, level, key=attrgetter("level")) - 1]


class ContractionIndex:
    """Preprocessed equation hierarchy for one tree."""

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.counters = OpCounters()
        self.records: dict[str, list[CoeffRecord]] = {}
        self.evidence: dict[str, np.ndarray] = {}
        self.leaf_consumer: dict[str, RakeEquation] = {}  # every rake, in build order
        self.root = tree.root
        self.levels: list[Level] = [Level(0, tree.leaf_order(), self)]
        self.base_matrix_count = 0
        self.last_update_trace: list[Slot] = []
        # equation versions the last query's walk climbed (see _walk)
        self.last_calc_depth = 0
        # parent of each live node, only set while contract() is running;
        # a live node's children are those of its last equation version
        self._live_parent: dict[str, str | None] | None = None

    @property
    def leaf_counts(self) -> list[int]:
        """Frontier size of every level."""
        return [len(level.leaves) for level in self.levels]

    @property
    def stored_matrix_count(self) -> int:
        """Stored matrices: two per base equation, one per rake.  A slot's
        uid is its rank in storage order."""
        return self.base_matrix_count + len(self.leaf_consumer)

    def all_slots(self) -> list[Slot]:
        seen: dict[int, Slot] = {}
        for recs in self.records.values():
            for rec in recs:
                seen[rec.left.uid] = rec.left
                seen[rec.right.uid] = rec.right
        return [seen[uid] for uid in sorted(seen)]

    def update(self, leaf_id: str, evidence) -> None:
        update_evidence(self, leaf_id, evidence)

    def query(self, node_id: str) -> Belief:
        return belief_query(self, node_id)


@collector_paused
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
    The build runs with the cyclic garbage collector paused.
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
            uid = 2 * len(index.records)
            rec = CoeffRecord(
                node_id, 0,
                Slot(uid, coeffs.get(left, tree.nodes[left].cpt), node_id, LEFT, 0),
                Slot(uid + 1, coeffs.get(right, tree.nodes[right].cpt), node_id, RIGHT, 0),
                left, right)
            rec.cost = _record_cost(rec)
            index.records[node_id] = [rec]
        else:
            index.evidence[node_id] = node.evidence
    index.base_matrix_count = 2 * len(index.records)

    frontier = index.levels[0].leaves
    level = 0
    while len(frontier) > 2:
        level += 1
        interior = frontier[1:-1]
        for leaf in interior[::2]:
            rake(index, level, leaf)
        # a rake removes exactly its leaf from the frontier, keeping the order
        frontier = [frontier[0], *interior[1::2], frontier[-1]]
        index.levels.append(Level(level, frontier, index))

    _total_costs(index)
    index._live_parent = None
    return index


def _total_costs(index: ContractionIndex) -> None:
    """Fix the counts of every update chain and query walk.

    A version's walk climbs to the version above it, and an equation's
    output feeds one later equation; both are later rakes, so one pass over
    the rakes (leaf_consumer's values, in build order) in reverse sees every
    total it adds to.  Each output feeds a fixed slot, so a chain step's
    entry cost is fixed too: e_entry_cost where the chain enters through
    the e-side slot (the first step, whose leaf changed, always does, which
    a second pass adds), parent_entry_cost through the parent slot,
    z_entry_cost through the z-side slot.  A walk step never refreshes diag.
    """
    rakes = index.leaf_consumer.values()
    for rk in reversed(rakes):
        pre = rk.grandparent_pre
        # one step below rk: the raked parent's lambda (its cached diagonal
        # times the z side's product) or its pi (through the grandparent's
        # equation)
        pre.walk_cost = sum_costs(rk.walk_cost, rk.lambda_cost)
        index.records[rk.parent][-1].walk_cost = sum_costs(rk.walk_cost, pre.cost)
        # until the pass below, chain_cost counts the chain after rk's step
        consumer = rk.output.consumer
        if consumer is None:
            rk.chain_cost = NO_COST
        else:
            entry = (consumer.e_entry_cost if consumer.e_side_input is rk.output
                     else consumer.parent_entry_cost if consumer.parent_input is rk.output
                     else consumer.z_entry_cost)
            rk.chain_cost = sum_costs(entry, consumer.chain_cost)
    for rk in rakes:
        rk.chain_cost = sum_costs(rk.e_entry_cost, rk.chain_cost)


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

    output = Slot(index.stored_matrix_count, None, grand, parent_side, level)
    rk = RakeEquation(level, leaf, leaf_side, parent_rec, parent_side, grand_pre, output)
    _recompute(index.evidence, rk)  # no consumer yet: this equation only; sets diag, scaled
    output.form = _form(output.coeff)
    rk.cost = _record_cost(rk)
    index.counters.add(rk.e_entry_cost)
    for slot in (rk.parent_input, rk.e_side_input, rk.z_side_input):
        assert slot.consumer is None, "a stored matrix may feed only one equation"
        slot.consumer = rk
    assert leaf not in index.leaf_consumer
    index.leaf_consumer[leaf] = rk
    grand_pre.above = parent_rec.above = rk
    index.records[grand].append(rk)

    index._live_parent[rk.child(parent_side)] = grand
    return rk


# -- queries ---------------------------------------------------------------------

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
    index.counters.add(rec.cost)
    return rec.left.coeff.dot(left) * rec.right.coeff.dot(right)


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
        index.counters.add(equation.chain_cost)
    index.last_update_trace = _recompute(index.evidence, equation)
    return index


def calc_pi_lambda(index: ContractionIndex, node_id: str, level: int) -> PiLambdaTriple:
    """pi of a node plus the lambdas of its children as of a contraction level.

    The node must have an equation at that level.  One walk step per
    equation version on the path to the root.
    """
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    if not 0 <= level < len(index.levels):
        raise LevelOutOfRange(f"level {level} outside 0..{len(index.levels) - 1}")
    rec = _record_at(index, node_id, level) if _present(index, node_id, level) else None
    if rec is None:
        raise LevelOutOfRange(f"{node_id!r} has no equations at level {level}")
    pi, (lam_left, lam_right) = _walk(index, rec)
    return PiLambdaTriple(pi=pi.copy(), lambda_left=lam_left.copy(),
                          lambda_right=lam_right.copy())


def _walk(index: ContractionIndex, rec: CoeffRecord):
    """(pi, [lambda_left, lambda_right]) of an equation version: pi of its
    owner and the lambdas of its two children under the evidence in force.

    Climbs rec.above to the root's terminal version, whose triple is the
    prior and the extreme leaves' likelihoods, then comes back down one
    rake at a time.  Below the version of rake (e, x, u), either u
    keeps its pi and x's lambda is rebuilt from x's final equation, whose
    e side the rake's cached diagonal already holds, or the walk enters
    x's final version, whose pi comes through u's equation.
    Sets index.last_calc_depth to the number of versions climbed; pi may be
    the root's prior itself, so callers must not write to it.
    """
    index.counters.add(rec.walk_cost)
    path = []
    while rec.above is not None:
        path.append(rec)
        rec = rec.above
    index.last_calc_depth = len(path)
    evidence = index.evidence
    pi = index.tree.nodes[index.root].prior
    lam = [evidence[rec.left_child], evidence[rec.right_child]]
    for rec in reversed(path):
        rk = rec.above
        side = rk.parent_side
        lam_z = lam[side]
        if rec is rk.grandparent_pre:
            lam[side] = rk.diag * rk.z_side_input.coeff.dot(lam_z)
        else:
            sibling = rk.right if side == LEFT else rk.left
            up = pi * sibling.coeff.dot(lam[1 - side])
            down = rk.parent_input.coeff
            pi = up.dot(down) if type(down) is np.ndarray else up @ down
            lam_e = evidence[rk.leaf]
            lam = [lam_e, lam_z] if rk.leaf_side == LEFT else [lam_z, lam_e]
    return pi, lam


def _leaf_pi(index: ContractionIndex, leaf_id: str) -> np.ndarray:
    """pi of a leaf, through the final version of its parent: the raked
    parent's, or the root's for the two extreme leaves."""
    rk = index.leaf_consumer.get(leaf_id)
    rec = index.records[index.root if rk is None else rk.parent][-1]
    pi, lam = _walk(index, rec)
    index.counters.add(rec.cost)
    if rec.left_child == leaf_id:
        up, down = pi * rec.right.coeff.dot(lam[RIGHT]), rec.left.coeff
    else:
        up, down = pi * rec.left.coeff.dot(lam[LEFT]), rec.right.coeff
    return up.dot(down) if type(down) is np.ndarray else up @ down


def pi_query(index: ContractionIndex, node_id: str) -> np.ndarray:
    """Prior-side message at a node under the evidence in force."""
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    if node_id == index.root:
        index.last_calc_depth = 0
        return index.tree.nodes[index.root].prior.copy()
    if node_id in index.evidence:
        return _leaf_pi(index, node_id)
    return _walk(index, index.records[node_id][-1])[0]


def belief_query(index: ContractionIndex, node_id: str) -> Belief:
    """Normalized belief at any node from one root-ward walk.

    An internal node's walk ends at its final equation version, which gives
    its pi and its children's lambdas; a leaf's ends at its parent's.
    """
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    if node_id in index.evidence:
        lam = index.evidence[node_id]
        pi = _leaf_pi(index, node_id)
    else:
        rec = index.records[node_id][-1]
        pi, (lam_left, lam_right) = _walk(index, rec)
        index.counters.add(rec.cost)
        lam = rec.left.coeff.dot(lam_left) * rec.right.coeff.dot(lam_right)
    index.counters.count_vector_op(lam.shape[0])
    return normalize_belief(lam * pi, node=node_id)

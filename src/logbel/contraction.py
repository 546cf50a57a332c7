"""Contraction index: logarithmic-time evidence updates and belief queries.

contract() repeatedly rakes leaves off a complete binary tree.  Raking a
leaf e with parent x and grandparent u removes e and x, splices x's other
child z under u, and rewrites u's coefficient on that side as

    new_coeff = old_coeff . Diag(e_side_coeff . lambda(e)) . z_side_coeff

so the likelihood equation of u stays correct for the smaller tree.  A
rake is the version of u's equation it writes.  It stores exactly one new
matrix, and every stored matrix (and every leaf likelihood) feeds at most
one higher equation.  An evidence update therefore walks a single chain of
equations; a belief query walks one root-ward path of equation versions.
Both touch O(log N) equations on balanced rake schedules.  A rake leaves
the message each side sends its owner, side coeff . lambda(child), as it
was, so a query walk takes an owner's message once, on the side it does not
descend through, and rebuilds lambda only on the side it does (_walk), as
diag * (z side . lambda(z)) from a rake's cached diagonal.  lambda_query
takes that step up a chain of rakes, and calc_pi_lambda is pi_query and
two lambda_query calls.

Storage.  Each equation version is one object, linked to the next
version on its root-ward walk (above), and each stored matrix is one
object: a Slot for each of a base equation's two, and for each rake its
RakeEquation, which is both the version of the grandparent's equation it
writes and the slot that holds its output.  The base versions are
CoeffRecords.  The update chain follows each slot's consumer; a query walk
starts from the version the index maps its node to and follows above.  A
round rakes every other interior leaf of the frontier; contract() computes
it in two array passes (rake), the leaves that are left children first,
then those that are right children, which may read what the first pass
wrote.  This is the order in which the round's rakes would run one at a
time, left to right, so rakes keep that order; the objects are made once
the rounds are done (_Build.link).

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
cached result is reused.  A rake whose old_coeff is another rake's output,
the only kind a chain can enter through its parent slot, also keeps its
diagonal gathered to old_coeff's shape where that fits a cache line
(KEPT_GATHER_BYTES), so that step multiplies once.  A gather is no
multiply-add, and the kept one is refreshed with the diagonal, so counts and
bits are those of gathering again.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from itertools import chain, cycle
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from .counters import NO_COST, OpCounters, less_costs, sum_costs
from .errors import ConstructionError, DimensionMismatch, LevelOutOfRange, TreeTooSmall, UnknownNode
from .model import Belief, CausalTree, collector_paused, normalize_belief, set_evidence

LEFT, RIGHT = 0, 1
NEITHER = -1  # a query walk carries lambda on LEFT, RIGHT or NEITHER side (_walk)

# contract() stacks the products of a round's rakes over plain arrays and
# identities of one shape from this many rakes on (see _Build.multiply).
# Stacking takes the contraction of star-read's tree from 26 to 17 ms; below
# 8 rakes, polytree-build's many small stacks cost more than they save (37
# ms at 8, 42 at 2, 45 at 1; 2 cores, numpy 2.4.6).
STACK_MIN = 8
# and it takes up to this many entries per input, which bounds its copies:
# balanced-k8-write's peak RSS is 88.6 MB without the bound, 86.4 with it,
# for the same build time
STACKED_ENTRIES = 1 << 15
PLAIN, IDENTITY, OTHER = 0, 1, 2  # what a slot holds: an ndarray, an Identity, else


# -- coefficient forms, their products and their counts -----------------------
#
# Products use ndarray.dot, which skips the ufunc dispatch of @ (half the wall
# time of a 2 x 2 product) but does not defer to another operand: a right
# operand that is not an ndarray keeps @, and numpy defers to its
# __rmatmul__ (the forms set __array_ufunc__ = None).  A small matrix times
# a diagonal is a same-shape product with the diagonal gathered by a shared
# read-only index (_spread): M * diag[_spread(M.shape, 1)], not M * diag.
# Broadcasting a (K,) vector over a matrix goes through numpy's general
# iterator, 0.9-1.1 us at K = 2-16, where the gather and the product take
# 0.55-0.95 us; each entry is the same IEEE multiply of the same two
# numbers, so the bits are the same.  contract() fixes each stored
# equation's counts once, from forms (equation_cost, _rake_costs), and the
# full and lazy engines count each equation by equation_cost; the caches
# hold immutable tuples, a few hundred keys per network.

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


# A gathered diagonal beats a broadcast one on matrices of up to this many
# entries (K x K: 1.07 against 1.24 us at K = 16, 1.52 against 1.44 at K =
# 24, 21 against 11 at K = 128; numpy 2.4.6), and its index takes as much
# memory as the matrix.
GATHER_ENTRIES = 256
# A rake keeps the gathered diagonal its parent-side steps multiply by (see
# RakeEquation) only where it fits one 64-byte cache line.  Larger ones cost
# more than they save: kept on polytree-build's parents of 4 to 256 entries,
# they took peak RSS up 2.2% and updates 0.9-1.9% slower, where keeping
# star-read's 2 x 2 ones makes updates 3.2-3.8% faster (perfbench, median
# of 10 pairs each).
KEPT_GATHER_BYTES = 64


@cache
def _spread(shape: tuple[int, int], axis: int):
    """How a diagonal is indexed to scale a matrix of shape along axis,
    made once per (shape, axis): M * diag[_spread(M.shape, 1)] scales M's
    columns and diag[_spread(M.shape, 0)] * M its rows.  Up to
    GATHER_ENTRIES entries it is a read-only index array of shape, whose
    entries count along axis, so the product is a same-shape one; above,
    it makes diag a view that broadcasts."""
    if shape[0] * shape[1] > GATHER_ENTRIES:
        return (None, slice(None)) if axis else (slice(None), None)
    index = np.indices(shape)[axis].copy()
    index.flags.writeable = False
    return index


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
        return self.diag[_spread(matrix.shape, 0)] * matrix

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            return self.dot(other)
        if isinstance(other, FactoredMatrix):
            return _cheapest(self.dot(other.left), other.right)
        # Diag . Identity: np.diag(self.diag), written as one strided slice
        # of a new array, which takes 0.7 us where np.diag takes 1.2 (K = 2-8)
        K = len(self.diag)
        out = np.zeros(K * K)
        out[::K + 1] = self.diag
        return out.reshape(K, K)


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
        return FactoredMatrix(self.left, self.right * diag[_spread(self.right.shape, 1)])

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
    dense = type(parent_coeff) is np.ndarray
    scaled = parent_coeff * (diag[_spread(parent_coeff.shape, 1)] if dense else diag)
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
    """A rake (e, x, u) with a K-state x: one evaluation of its product by
    each slot it is entered through, e side (or the leaf), parent side and
    z side (see RakeEquation), then the lambda step that rebuilds lambda(x)
    from the cached diagonal (the z side's product and the vector
    product), which _walk and lambda_query take."""
    equation = (0, 0, 1, 0, 0)
    parent_entry = sum_costs(rake_cost(parent_form, z_form), equation)
    return (sum_costs(matvec_cost(e_form), parent_entry), parent_entry,
            sum_costs(scaled_cost(parent_form, z_form), equation),
            sum_costs(matvec_cost(z_form), (0, 0, 1, K, 0)))


# -- stored structure ------------------------------------------------------------

class Slot:
    """One of a base equation's two stored coefficient matrices: coeff,
    which an update replaces, and owner's side of it.

    form is fixed at build with the coefficient: every product keeps the
    form its operands' shapes decide, so no update changes it; coeff alone
    may be set.  consumer is the at-most-one rake equation this matrix
    feeds; the update walk follows it.  chain_cost counts the consumer chain
    an update that changes this matrix recomputes: the consumer's step
    entered through this slot, then the rest of the consumer's update_cost.
    """

    __slots__ = ("coeff", "form", "consumer", "owner", "side")
    level = 0

    @property
    def chain_cost(self) -> tuple:
        rake = self.consumer
        if rake is None:
            return NO_COST
        entry = 0 if rake.e_side_input is self else 1 if rake.parent_input is self else 2
        return sum_costs(rake.steps[entry], less_costs(rake.update_cost, rake.steps[0]))

    def describe(self) -> tuple[str, str, int]:
        return (self.owner, "left" if self.side == LEFT else "right", self.level)

    def __repr__(self):
        owner, side, level = self.describe()
        return f"<Slot {owner}.{side} level={level}>"


class CoeffRecord:
    """One version of a node's two-sided likelihood equation.

    lambda(owner) = left.coeff . lambda(left_child) * right.coeff . lambda(right_child)

    index.records[owner] lists the versions in order.  The first, this
    class, holds the base-tree conditional matrices; each later one is the
    RakeEquation of one rake below the owner, and shares the untouched
    side's slot with its predecessor.

    above is the next version on the root-ward query walk: the owner's next
    version, or, for the last version of a raked node, the rake that
    absorbed it; None only for the root's terminal version.  A version
    keeps no count (see _Build.count).
    """

    __slots__ = ("owner", "left", "right", "left_child", "right_child", "above")
    level = 0

    def side_slot(self, side: int) -> "Slot | RakeEquation":
        return self.left if side == LEFT else self.right


class RakeEquation(CoeffRecord):
    """One rake (e, x, u): the version of u's equation it writes, whose
    owner is u, and the slot on x's side of it, output, which is the rake
    itself and holds
    coeff = parent_input . Diag(e_side_input . lambda(leaf)) . z_side_input

    rewrites is u's previous version, which the rake rewrites: it keeps
    that version's slot on the other side (kept), and the above of both it
    and x's last version is this rake.  diag caches e_side_input . lambda(leaf) and
    scaled the left half of the product, parent_input * diag (an ndarray, a
    FactoredMatrix or, through an identity parent, a _Diagonal): contract()
    sets both, and _recompute refreshes diag when the leaf or the e-side
    slot changes and scaled when diag or the parent slot does.  So a step
    entered through the leaf or the e side refreshes both, through the
    parent side scaled only, through the z side neither.  spread is how a
    dense parent indexes diag (_spread), fixed with the parent slot's form,
    and None for any other form, which multiplies by diag itself.
    gathered is that multiplier, diag[spread] (or diag), kept only where the
    parent slot is another rake's output, the one kind of parent slot an
    update changes, and it fits KEPT_GATHER_BYTES; it is None elsewhere.  An
    e-side step refreshes it with diag, and a parent-side step multiplies
    the new parent by it, where it would gather the same numbers again.
    consumer is the rake its output feeds (None for none) and enters how it
    enters it (0 e side, 1 parent side, 2 z side); steps are the counts of
    the chain step entered through each input and of the lambda step below
    it (_rake_costs), and update_cost is the chain_cost of its e side.
    leaf and parent name e and x, leaf_side is e's side within x, and
    parent_side x's within u.
    """

    __slots__ = ("coeff", "form", "consumer", "level", "rewrites", "steps", "update_cost",
                 "parent", "diag", "scaled", "spread", "gathered", "e_side_input", "parent_input",
                 "z_side_input", "enters", "leaf", "parent_side", "leaf_side")

    chain_cost, describe = Slot.chain_cost, Slot.describe
    side = property(attrgetter("parent_side"))
    output = property(lambda self: self)
    kept = property(lambda self: self.side_slot(1 - self.parent_side))

    def __repr__(self):
        return f"<RakeEquation {self.leaf} into {self.owner} level={self.level}>"


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
    """A node is in the tree until the round of the rake that removes it,
    which is the above of the version its walk starts from: a raked
    parent's last, or the last of the parent that a leaf's rake removes."""
    rake = index._start[node_id].above
    return rake is None or rake.level > level


def _record_at(index: "ContractionIndex", node_id: str, level: int) -> CoeffRecord | None:
    """A node's last equation version created at or before a level; None
    for a leaf."""
    recs = index.records.get(node_id)
    if recs is None:
        return None
    return recs[bisect_right(recs, level, key=attrgetter("level")) - 1]


class ContractionIndex:
    """Preprocessed equation hierarchy for one tree: linked equation
    versions, which contract() makes."""

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.counters = OpCounters()
        self.evidence: dict[str, np.ndarray] = {}
        self.root = tree.root
        self.levels: list[Level] = []
        self.base_matrix_count = 0
        # equation versions the last query's walk climbed (see _walk)
        self.last_calc_depth = 0
        # node id -> the version its query walk starts from: its own last,
        # or for a leaf that of the parent its rake removes, or the root's
        self._start: dict[str, CoeffRecord] = {}
        self._bases: list[CoeffRecord] = []  # in tree order
        self._rakes: list[RakeEquation] = []  # in build order
        self._longest_chain = self._deepest_walk = 0  # for stats()
        self._updated: RakeEquation | None = None  # where the last update's chain started
        self._belief_cost: dict[str, tuple] = {}  # node id -> what belief_query counts
        self._records: dict[str, list[CoeffRecord]] | None = None
        self._leaf_consumer: dict[str, RakeEquation] | None = None

    @property
    def records(self) -> dict[str, list[CoeffRecord]]:
        """Each internal node's equation versions in order: its base one,
        then its rakes."""
        if self._records is None:
            self._records = records = {}
            for version in [*self._bases, *self._rakes]:
                records.setdefault(version.owner, []).append(version)
        return self._records

    @property
    def leaf_consumer(self) -> dict[str, RakeEquation]:
        """Every rake, in build order, by the leaf it consumes."""
        if self._leaf_consumer is None:
            self._leaf_consumer = {rake.leaf: rake for rake in self._rakes}
        return self._leaf_consumer

    @property
    def last_update_trace(self) -> list[RakeEquation]:
        """The slots the last update rewrote, in chain order: the rakes on
        its chain."""
        rake, trace = self._updated, []
        while rake is not None:
            trace.append(rake)
            rake = rake.consumer
        return trace

    @property
    def leaf_counts(self) -> list[int]:
        """Frontier size of every level."""
        return [len(level.leaves) for level in self.levels]

    @property
    def stored_matrix_count(self) -> int:
        """Stored matrices: two per base equation, one per rake."""
        return self.base_matrix_count + len(self._rakes)

    def all_slots(self) -> list[Slot | RakeEquation]:
        """Every stored matrix in storage order: the base equations' pairs,
        then the rakes' outputs, which are the rakes, in build order."""
        return [slot for base in self._bases for slot in (base.left, base.right)] + self._rakes

    def stats(self) -> dict[str, int]:
        """The index's shape against the paper's bounds: rake levels, stored
        matrices against 2 x base + 4, the longest consumer chain and the
        deepest query walk against 2 ceil(log2 N); then the last update's
        chain length and the last walk's depth."""
        return {"rake_levels": len(self.levels) - 1,
                "stored_matrices": self.stored_matrix_count,
                "storage_bound": 2 * self.base_matrix_count + 4,
                "longest_update_chain": self._longest_chain,
                "deepest_query_walk": self._deepest_walk,
                "log_bound": 2 * math.ceil(math.log2(self.tree.n)),
                "last_update_chain": len(self.last_update_trace),
                "last_walk_depth": self.last_calc_depth}

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
    Raises TreeTooSmall for trees under three nodes, ConstructionError for
    a tree that is not complete binary (normalize_tree makes one), UnknownNode
    for a coeffs id that is not a non-root node, and DimensionMismatch for a
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
    build = _Build(index, coeffs)
    frontier, names = build.frontier, index.levels[0].leaves
    level = rakes = 0
    while len(frontier) > 2:
        level += 1
        raked = frontier[1:-1:2]
        rows = np.arange(rakes, rakes + len(raked))
        rakes += len(raked)
        build.leaf[rows] = raked
        # a leaf's side within its parent holds for the whole round
        right = build.child[build.last[build.live_parent[raked]], RIGHT] == raked
        for side, wave in ((LEFT, ~right), (RIGHT, right)):
            if wave.any():
                rake(build, level, rows[wave], side)
        # a rake removes exactly its leaf from the frontier, keeping the order
        frontier = np.concatenate((frontier[:1], frontier[2:-1:2], frontier[-1:]))
        names = [names[0], *names[2:-1:2], names[-1]]
        index.levels.append(Level(level, names, index))
    build.finish(frontier)
    return index


def rake(build: "_Build", level: int, rows: np.ndarray, side: int) -> None:
    """One pass of contract()'s round: remove the leaves of rows, each on
    side within its parent, and each parent, splicing the parent's other
    child under the grandparent and rewriting the grandparent's equation.

    The rakes of one pass read nothing another writes, except where two
    rewrite the two sides of one grandparent: the later one rewrites the
    version the earlier one writes, so it is written second.  contract()
    calls this through the module's global, so a wrapper installed here
    sees every pass.
    """
    u = build.live_parent[build.live_parent[build.leaf[rows]]]
    order = np.argsort(u, kind="stable")
    later = order[1:][u[order[1:]] == u[order[:-1]]]
    if len(later):
        first = np.ones(len(rows), dtype=bool)
        first[later] = False
        build.rewrite(level, rows[first], side)
        build.rewrite(level, rows[later], side)
    else:
        build.rewrite(level, rows, side)
    build.multiply(rows)


def _stack(arrays: np.ndarray) -> np.ndarray:
    """An object array of arrays of one shape, stacked along a new first
    axis."""
    return np.concatenate(arrays.tolist()).reshape(len(arrays), *arrays[0].shape)


def _groups(columns: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Rows equal in every one of the integer arrays columns, grouped: the
    first row of each group, and each row's group."""
    key, span = np.zeros(len(columns[0]), np.int64), 1
    for column in columns:
        size = int(column.max()) + 1
        span *= size
        if span >= 1 << 62:  # too wide to pack into one key
            _, first, group = np.unique(np.stack(columns, axis=1), axis=0,
                                        return_index=True, return_inverse=True)
            return first, group.reshape(-1)
        key = key * size + column
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return first, group


class _Build:
    """contract()'s working state: the index as arrays while it is
    filled, each live node's parent and last equation version, and the
    cost classes seen.  Nodes are numbered in tree order (pos), and slot s,
    version v and rake k by storage order: base version b stores slots 2b
    (left) and 2b + 1 (right), and rake k is version base + k and writes
    slot 2 * base + k, so rakes keep build order.  A cost class is one
    (domain of x, forms of the three inputs) of a rake: it fixes the rake's
    counts (_rake_costs) and its output's form.  Python objects are kept in
    object arrays, so that gathering them makes no new ones; link() turns
    the arrays into the index's objects."""

    def __init__(self, index: ContractionIndex, coeffs: Mapping[str, object]):
        tree = index.tree
        self.index = index
        self.ids = ids = list(tree.nodes)
        n = len(ids)
        pos = self.pos = dict(zip(ids, range(n)))
        kids, domain, cpt, evidence = [], [], [], []
        for node in tree.nodes.values():
            kids.append(node.children)
            domain.append(node.domain)
            cpt.append(node.cpt)
            evidence.append(node.evidence)
        self.names = np.array(ids, dtype=object)
        self.evidence = np.fromiter(evidence, object, n)
        has_kids = np.fromiter(map(len, kids), np.int64, n) > 0
        internal = np.flatnonzero(has_kids)
        children = list(chain.from_iterable(kids))
        B = self.base = len(internal)
        R = n - B - 2  # every rake removes one leaf, until two are left
        V, S = B + R, 2 * B + R

        # versions, then slots, then rakes, as arrays
        self.child = np.empty((V, 2), np.int64)
        self.child[:B] = np.fromiter(map(pos.__getitem__, children), np.int64,
                                     2 * B).reshape(B, 2)
        self.slot = np.empty((V, 2), np.int64)
        self.slot[:B] = np.arange(2 * B).reshape(B, 2)
        self.owner = np.empty(V, np.int64)
        self.owner[:B] = internal
        self.above = np.full(V, -1)
        self.form = np.empty(S, np.int64)
        self.kind = np.full(S, PLAIN, np.int64)
        self.consumer = np.full(S, -1)
        self.coeff = np.empty(S, dtype=object)
        self.coeff[:2 * B] = np.fromiter(cpt, object, n)[self.child[:B].ravel()]
        for name in ("leaf", "parent", "parent_side", "e_in", "p_in", "z_in", "gv", "cls", "level"):
            setattr(self, name, np.empty(R, np.int64))
        self.leaf_side = np.empty(R, np.int64)
        self.diag, self.scaled, self.spread, self.gathered = (np.empty(R, dtype=object)
                                                              for _ in range(4))

        # each live node's parent and last version
        self.live_parent = np.full(n, -1)
        self.live_parent[self.child[:B]] = internal[:, None]
        self.last = np.full(n, -1)
        self.last[internal] = np.arange(B)

        # forms: a base slot holds its child's table, shaped by two domains,
        # unless coeffs gives the edge another coefficient
        self.forms: list[tuple] = []
        self.form_ids: dict[tuple, int] = {}
        self.kvals, self.dcode = np.unique(np.fromiter(domain, np.int64, n), return_inverse=True)
        self.kvals = self.kvals.tolist()
        shapes = (np.repeat(self.dcode[internal], 2), self.dcode[self.child[:B].ravel()])
        first, group = _groups(shapes)
        table = [self.form_id(((self.kvals[shapes[0][i]], self.kvals[shapes[1][i]]),))
                 for i in first.tolist()]
        self.form[:2 * B] = np.array(table, np.int64)[group]
        if coeffs:
            slot_of = np.empty(n, np.int64)
            slot_of[self.child[:B].ravel()] = np.arange(2 * B)
            for node_id, coeff in coeffs.items():
                s = int(slot_of[pos[node_id]])
                self.coeff[s] = coeff
                self.kind[s] = (PLAIN if type(coeff) is np.ndarray
                                else IDENTITY if type(coeff) is Identity else OTHER)
                self.form[s] = self.form_id(_form(coeff))
        self.class_of: dict[tuple, int] = {}
        self.class_costs: list[tuple] = []
        self.class_form: list[int] = []

        # the first frontier, by a depth-first walk
        left = np.full(n, -1)
        left[internal] = self.child[:B, LEFT]
        right = np.full(n, -1)
        right[internal] = self.child[:B, RIGHT]
        self.root = pos[tree.root]
        order = _leaf_order(self.root, left.tolist(), right.tolist())
        self.frontier = np.array(order, np.int64)
        index.levels.append(Level(0, self.names[self.frontier].tolist(), index))
        leaves = np.flatnonzero(~has_kids)
        index.evidence = dict(zip(self.names[leaves].tolist(), self.evidence[leaves].tolist()))

    def form_id(self, form: tuple) -> int:
        fid = self.form_ids.get(form)
        if fid is None:
            fid = self.form_ids[form] = len(self.forms)
            self.forms.append(_interned(form))
        return fid

    def rewrite(self, level: int, rows: np.ndarray, side: int) -> None:
        """Write the versions of rows' rakes, no two of which rewrite one
        grandparent: each keeps the grandparent's version on the other
        side, and takes the leaf's sibling z in the parent's place and its
        output slot in the place of the parent's."""
        x = self.live_parent[self.leaf[rows]]
        u = self.live_parent[x]
        pv, gv = self.last[x], self.last[u]
        ps = (self.child[gv, RIGHT] == x).astype(np.int64)  # x's side within u
        keep = 1 - ps
        version = self.base + rows
        z = self.child[pv, 1 - side]
        self.e_in[rows] = e = self.slot[pv, side]
        self.z_in[rows] = zs = self.slot[pv, 1 - side]
        self.p_in[rows] = p = self.slot[gv, ps]
        self.slot[version, ps] = 2 * self.base + rows
        self.slot[version, keep] = self.slot[gv, keep]
        self.child[version, ps] = z
        self.child[version, keep] = self.child[gv, keep]
        self.owner[version] = u
        self.level[rows] = level
        self.consumer[e] = self.consumer[p] = self.consumer[zs] = rows
        self.above[pv] = self.above[gv] = version
        self.last[u] = version
        self.live_parent[z] = u
        self.parent[rows], self.parent_side[rows], self.leaf_side[rows] = x, ps, side
        self.gv[rows] = gv

    def multiply(self, rows: np.ndarray) -> None:
        """Each rake's diagonal, scaled parent and output, as _recompute
        evaluates them, the gathered diagonal of those whose parent is a
        rake's output, then its cost class, and so its output's form.
        Rakes whose inputs are plain arrays or identities take one stacked
        product per shape, where at least STACK_MIN share it; the others
        are multiplied one at a time.  A group is the rakes of one form and
        kind on each input, so each group has one spread."""
        e_in, p_in, z_in = self.e_in[rows], self.p_in[rows], self.z_in[rows]
        kinds = (self.kind[e_in], self.kind[p_in], self.kind[z_in])
        columns = (self.dcode[self.parent[rows]], self.form[e_in], self.form[p_in], self.form[z_in])
        first, group = _groups((*columns, *kinds))
        e_kind, p_kind, z_kind = (kind[first] for kind in kinds)
        counts = np.bincount(group)
        stack = ((counts >= STACK_MIN) & (np.maximum.reduce((e_kind, p_kind, z_kind)) < OTHER)
                 & ((p_kind == PLAIN) | (z_kind == PLAIN)))
        spread = np.fromiter((_spread(self.forms[f][0], 1) if k == PLAIN else None
                              for f, k in zip(columns[2][first].tolist(), p_kind.tolist())),
                             object, len(first))
        self.spread[rows] = spread[group]
        # each group's rakes in row order, one group after another
        by_group, ends = rows[np.argsort(group, kind="stable")], np.cumsum(counts).tolist()
        for g in np.flatnonzero(stack).tolist():
            members = by_group[ends[g] - counts[g]:ends[g]]
            widest = max(sum(r * c for r, c in self.forms[self.form[column[members[0]]]])
                         for column in (self.e_in, self.p_in, self.z_in))
            step = max(1, STACKED_ENTRIES // widest)
            for at in range(0, len(members), step):
                self._stacked(members[at:at + step])
        single = rows[~stack[group]]
        coeff, evidence, diag, scaled = self.coeff, self.evidence, self.diag, self.scaled
        out = 2 * self.base
        for k, leaf, e, p, z, sp in zip(single.tolist(), self.leaf[single].tolist(),
                                        self.e_in[single].tolist(), self.p_in[single].tolist(),
                                        self.z_in[single].tolist(), self.spread[single].tolist()):
            diag[k] = d = coeff[e].dot(evidence[leaf])
            g = d if sp is None else d[sp]
            if p >= out and g.nbytes <= KEPT_GATHER_BYTES:  # a rake's output, small enough
                self.gathered[k] = g
            scaled[k] = s = coeff[p] * g
            z = coeff[z]
            coeff[out + k] = s = s.dot(z) if type(z) is np.ndarray else s @ z
            self.kind[out + k] = PLAIN if type(s) is np.ndarray else OTHER

        # groups that differ only in their kinds share one cost class
        classes = []
        keys = zip(*(column[first].tolist() for column in columns))
        for r, key in zip(rows[first].tolist(), keys):
            cls = self.class_of.get(key)
            if cls is None:
                k, e_form, p_form, z_form = key
                cls = self.class_of[key] = len(self.class_costs)
                self.class_costs.append(_rake_costs(
                    self.kvals[k], self.forms[e_form], self.forms[p_form], self.forms[z_form]))
                self.class_form.append(self.form_id(_form(coeff[out + r])))
            classes.append(cls)
        self.cls[rows] = cls = np.array(classes, np.int64)[group]
        self.form[out + rows] = np.array(self.class_form, np.int64)[cls]

    def _stacked(self, rows: np.ndarray) -> None:
        """multiply() for rakes whose inputs have one shape each and are
        plain arrays or identities, not both the parent and z sides: the
        same products, stacked, which numpy evaluates to the same bits."""
        coeff = self.coeff

        def gather(slots):
            return None if type(coeff[slots[0]]) is Identity else _stack(coeff[slots])

        lam = _stack(self.evidence[self.leaf[rows]])
        e, p, z = (gather(column[rows]) for column in (self.e_in, self.p_in, self.z_in))
        d = lam if e is None else np.matmul(e, lam[:, :, None])[:, :, 0]
        if p is None:  # Diag(d) . z
            scaled, out = [_Diagonal(dk) for dk in d], d[:, :, None] * z
        else:
            scaled = p * d[:, None, :]
            out = scaled if z is None else np.matmul(scaled, z)
        m, base = len(rows), 2 * self.base
        self.diag[rows] = np.fromiter(d, object, m)
        self.scaled[rows] = np.fromiter(scaled, object, m)
        kept = self.p_in[rows] >= base  # parents that are rakes' outputs, all dense here
        spread = self.spread[rows[0]]
        small = type(spread) is np.ndarray and spread.size * d.itemsize <= KEPT_GATHER_BYTES
        if small and kept.any():
            # take, not d[:, spread], whose result is not C-contiguous: a product with
            # a strided gather takes 0.85 us on a 2 x 2, where a contiguous one takes 0.38
            g = np.take(d[kept], spread, axis=1)
            self.gathered[rows[kept]] = np.fromiter(g, object, len(g))
        coeff[base + rows] = np.fromiter(out, object, m)
        self.kind[base + rows] = PLAIN

    def finish(self, frontier: np.ndarray) -> None:
        """Fix every count, then make the index's objects.  What only the
        rounds read goes first, and each stage's temporaries go with it, to
        keep the peak low."""
        del self.kind, self.live_parent, self.evidence
        self.link(frontier, *self.count(frontier))
        self.index.base_matrix_count = 2 * self.base

    def count(self, frontier: np.ndarray) -> tuple:
        """Every count.  A rake fixes the chain step entered through each
        of its inputs (its class's), and the walk step into x's last
        version below it, which counts the rewrites of u it climbed past on
        x's side, the message on u's other side where u's versions start
        and x's pi step.  A total is the sum of the steps on its path
        (_path_sums).  The totals updates and queries start from are kept:
        each leaf's chain and each node's belief query
        (index._belief_cost); this is the only code that sums steps along a
        path.  Returns each rake's update_cost, and nxt and how: rake k's
        output enters rake nxt[k] (-1 for none) through the input how[k]
        says (0 e side, 1 parent side, 2 z side).  frontier is the last
        level's, the root's two extreme leaves."""
        index, B, R = self.index, self.base, len(self.leaf)
        # one evaluation of the root's last version and of each raked parent
        # x's, by its owner's domain and its forms
        root = self.last[self.root]
        once = np.append(root, self.last[self.parent])
        columns = (self.dcode[self.owner[once]], self.form[self.slot[once, LEFT]],
                   self.form[self.slot[once, RIGHT]])
        first, group = _groups(columns)
        table = [equation_cost(self.kvals[columns[0][i]], self.forms[columns[1][i]],
                               self.forms[columns[2][i]]) for i in first.tolist()]
        table = np.array(table, np.int64).reshape(-1, 5)[group]
        eq_root, eq_x = table[0], table[1:]
        K = np.array(self.kvals, np.int64)[self.dcode]  # each node's domain
        del columns, first, group, table, self.dcode, self.kvals

        # chains; the last column counts equations on a chain
        steps = np.array(self.class_costs, np.int64).reshape(-1, 4, 5)  # by class
        out = 2 * B + np.arange(R)
        nxt = self.consumer[out]
        how = np.where(self.e_in[nxt] == out, 0, np.where(self.p_in[nxt] == out, 1, 2))
        after = np.zeros((R, 6), np.int64)
        fed = nxt >= 0
        after[fed, :5] = steps[self.cls[nxt[fed]], how[fed]]
        after[fed, 5] = 1
        after = _path_sums(after, nxt)
        entry = steps[self.cls, 0]
        update_cost = _tuples(entry + after[:, :5])
        index._longest_chain = int(after[:, 5].max()) + 1 if R else 0
        index.counters.add(tuple(entry.sum(axis=0).tolist()) if R else NO_COST)
        del after, entry
        # walks (_walk).  The step from rake k (e, x, u) into x's last
        # version counts the rewrites of u's later rakes on x's side, which
        # rebuild lambda there (a path through each (u, side)'s rakes in
        # build order), the message on u's other side, taken at u's last
        # version, and x's pi through u's parent side
        lam_step = steps[self.cls, 3]
        u, side = self.owner[self.gv], self.parent_side
        run = 2 * u + side
        order = np.argsort(run, kind="stable")
        same = run[order[1:]] == run[order[:-1]]
        later = np.full(R, -1)
        later[order[:-1][same]] = order[1:][same]
        removed_by = np.full(len(K), -1)
        removed_by[self.parent] = np.arange(R)
        above = removed_by[u]  # the rake that removes u; -1 for the root
        # that message is the rake's diag on its e side, free, and z side .
        # lambda(z) on its z side; at the root, side coeff . lambda(extreme leaf)
        matvec = np.array([matvec_cost(form) for form in self.forms], np.int64).reshape(-1, 5)
        message = matvec[self.form[self.z_in[above]]] * (side == self.leaf_side[above])[:, None]
        at_root = above < 0
        message[at_root] = matvec[self.form[self.slot[root, 1 - side[at_root]]]]
        step = _path_sums(lam_step, later) - lam_step + message + matvec[self.form[self.p_in]]
        step[:, 2] += 1
        step[:, 3] += K[u]
        into = _path_sums(step, above)  # no message taken in x's last version
        del run, order, same, later, removed_by, above, message, at_root, step
        depth = _path_sums((self.above >= 0).astype(np.int64)[:, None], self.above)
        index._deepest_walk = int(depth[self.last[self.owner[:B]]].max())
        # each node's belief query: that walk, then an internal node's two
        # messages and their product (x's e side sends the rake's diag, so
        # that is lam_step) or a leaf's pi step through its parent's last
        # equation (its cost), then the product with pi
        lam_step += into
        lam_step[:, 3] += K[self.parent]
        eq_x += into
        eq_x[:, 3] += K[self.leaf]
        ends = np.array([self.root, *frontier.tolist()])
        eq_ends = np.tile(eq_root, (len(ends), 1))
        eq_ends[:, 3] += K[ends]
        nodes = self.names[np.concatenate((self.parent, self.leaf, ends))].tolist()
        index._belief_cost = dict(zip(nodes, _tuples(np.concatenate((lam_step, eq_x, eq_ends)))))
        del depth, into, lam_step, eq_x
        return update_cost, nxt, how

    def link(self, frontier: np.ndarray, update_cost: list, nxt: np.ndarray,
             how: np.ndarray) -> None:
        """Make the index's objects and link them: a Slot for each of a base
        equation's two matrices, a RakeEquation for each rake, which is both
        a version and the slot it writes, and a CoeffRecord for each base
        version; then map each node to the version its query walk starts
        from, in the dict that numbered the nodes.  Each pass's loop targets
        set a few fields from as many columns; then the pass drops those and
        the arrays it read last, and the base versions are made last, to
        keep the peak low."""
        index, B, R, names = self.index, self.base, len(self.leaf), self.names
        index._rakes = rakes = [RakeEquation() for _ in range(R)]
        # slot s and rake k by number, each with None at -1
        slot = np.fromiter(chain([Slot() for _ in range(2 * B)], rakes, [None]), object, 2 * B + R + 1)
        rake_at, forms = slot[2 * B:], np.fromiter(self.forms, object, len(self.forms))
        out, base, raked = slice(2 * B, None), slice(2 * B), slice(B, None)
        for r, r.diag, r.scaled, r.spread, r.gathered, r.coeff, r.form, r.consumer in zip(
                rakes, self.diag, self.scaled, self.spread, self.gathered, self.coeff[out],
                forms[self.form[out]], rake_at[nxt]):
            pass
        del nxt, self.diag, self.scaled, self.spread, self.gathered
        for s, s.coeff, s.form, s.consumer, s.owner, s.side in zip(
                slot[base], self.coeff[base], forms[self.form[base]], rake_at[self.consumer[base]],
                names[self.owner[:B].repeat(2)], cycle((LEFT, RIGHT))):
            pass
        del self.coeff, self.form, self.consumer, forms
        # every version's above is a rake (version B + k) or none
        above = np.maximum(self.above - B, -1)
        del self.above
        for r, r.e_side_input, r.parent_input, r.z_side_input, r.left, r.right, r.above in zip(
                rakes, slot[self.e_in], slot[self.p_in], slot[self.z_in], slot[self.slot[raked, LEFT]],
                slot[self.slot[raked, RIGHT]], rake_at[above[raked]]):
            pass
        del self.e_in, self.p_in, self.z_in
        steps = np.fromiter(self.class_costs, object, len(self.class_costs))
        for r, r.level, r.steps, r.update_cost, r.parent, r.leaf, r.enters, r.parent_side, \
                r.leaf_side in zip(rakes, self.level.tolist(), steps[self.cls], update_cost,
                                   names[self.parent], names[self.leaf], how.tolist(),
                                   self.parent_side.tolist(), self.leaf_side.tolist()):
            pass
        del self.level, self.cls, steps, update_cost, how, self.parent_side, self.leaf_side

        index._bases = [CoeffRecord() for _ in range(B)]
        version = np.fromiter(chain(index._bases, rakes), object, B + R)
        for r, r.rewrites, r.owner, r.left_child, r.right_child in zip(
                rakes, version[self.gv], names[self.owner[raked]], names[self.child[raked, LEFT]],
                names[self.child[raked, RIGHT]]):
            pass
        del self.gv
        for v, v.owner, v.left, v.right, v.left_child, v.right_child, v.above in zip(
                index._bases, names[self.owner[:B]], slot[self.slot[:B, LEFT]],
                slot[self.slot[:B, RIGHT]], names[self.child[:B, LEFT]],
                names[self.child[:B, RIGHT]], rake_at[above[:B]]):
            pass
        del self.slot, self.child, slot, rake_at, above

        # where each node's query walk starts: its own last version, or, for
        # a leaf, that of the parent its rake removes, or the root's
        start = np.empty(len(self.ids), np.int64)
        internal = self.owner[:B]
        start[internal] = self.last[internal]
        start[frontier] = self.last[self.root]
        start[self.leaf] = self.last[self.parent]
        self.pos.update(zip(self.ids, version[start]))
        index._start = self.pos


def _tuples(table: np.ndarray) -> list[tuple]:
    """The rows of an integer array as tuples, equal rows one tuple, made
    1024 rows at a time, which bounds the lists of ints made on the way."""
    made = {}
    return [made.setdefault(row, row) for at in range(0, len(table), 1024)
            for row in zip(*table[at:at + 1024].T.tolist())]


def _path_sums(steps: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """For each row, the sum of steps over its path through nxt (-1 ends a
    path): log(longest path) rounds of pointer jumping, one past the last
    row standing for the end."""
    n = len(nxt)
    total = np.concatenate((steps, np.zeros((1, steps.shape[1]), steps.dtype)))
    nxt = np.append(np.where(nxt < 0, n, nxt), n)
    while (nxt < n).any():
        total += np.take(total, nxt, axis=0)
        nxt = nxt[nxt]
    return total[:n]


def _leaf_order(root: int, left: list[int], right: list[int]) -> list[int]:
    """Leaves left to right, by a depth-first walk over child lists (-1 for
    a leaf): down each left spine, stacking the right children it passes."""
    out, stack = [], [root]
    emit, push, pop = out.append, stack.append, stack.pop
    while stack:
        v = pop()
        while (child := left[v]) >= 0:
            push(right[v])
            v = child
        emit(v)
    return out


# -- queries ---------------------------------------------------------------------

def lambda_query(index: ContractionIndex, node_id: str) -> np.ndarray:
    """Likelihood vector of the evidence below a node: a leaf's evidence,
    the product of the root's two messages, or a raked node x's walk step
    lambda(x) = diag * (z side . lambda(z)) through the rake that removes
    it, z being x's other child, which is a leaf or raked in turn.  Takes
    each step up from that leaf, adding its kept count (steps[3]); the root
    adds its kept belief total less the product with pi.  Leaves
    index.last_calc_depth as it was."""
    v = index._start.get(node_id)
    if v is None:
        raise UnknownNode(f"no node {node_id!r}")
    evidence = index.evidence
    lam = evidence.get(node_id)
    if lam is not None:
        return lam.copy()
    if node_id == index.root:
        lam = v.left.coeff.dot(evidence[v.left_child]) * v.right.coeff.dot(evidence[v.right_child])
        index.counters.add(less_costs(index._belief_cost[node_id], (0, 0, 0, len(lam), 0)))
        return lam
    rakes = []
    while lam is None:
        rake = v.above  # removes x, v's owner; z, x's other child, is its child on x's side
        rakes.append(rake)
        z = rake.left_child if rake.parent_side == LEFT else rake.right_child
        lam, v = evidence.get(z), index._start[z]
    for rake in reversed(rakes):
        lam = rake.diag * rake.z_side_input.coeff.dot(lam)
        index.counters.add(rake.steps[3])
    return lam


def _recompute(evidence: dict[str, np.ndarray], record: RakeEquation) -> None:
    """Evaluate a rake, then the rake its output feeds, and so on up the
    consumer chain.

    The first rake's leaf changed, so its diag and scaled are refreshed,
    and so are a later one's where the chain enters it through its e-side
    slot.  Entered through its parent slot, it refreshes scaled only;
    through its z-side slot, nothing, and the step is one product.  Each
    rake tells how its output enters the next.  A dense parent is scaled
    by diag indexed by the rake's spread, with the bits of parent * diag.
    A rake that keeps that gather (gathered) stores it on an e-side step
    and reuses it on a parent-side one: diag has not changed since, so the
    product has the same bits, and its count (rake_cost's scale product) is
    unchanged.

    Nothing here writes an array in place, and nothing may: an output is
    the rake's own scaled when a dense parent meets an identity z side
    (Identity.__rmatmul__ returns its operand), so rescaling an output
    must build a new array, or it rewrites that cache too.
    """
    entry = 0  # how the chain enters the rake: 0 e side (or leaf), 1 parent side, 2 z side
    while record is not None:
        if entry == 2:
            s = record.scaled
        elif entry == 1 and record.gathered is not None:
            s = record.scaled = record.parent_input.coeff * record.gathered
        else:
            if entry == 0:
                record.diag = record.e_side_input.coeff.dot(evidence[record.leaf])
            spread, diag = record.spread, record.diag
            gathered = diag if spread is None else diag[spread]
            if record.gathered is not None:
                record.gathered = gathered
            s = record.scaled = record.parent_input.coeff * gathered
        z = record.z_side_input.coeff
        record.coeff = s.dot(z) if type(z) is np.ndarray else s @ z
        record, entry = record.consumer, record.enters


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
    # the leaf's rake removed the parent its walk starts from
    rake = index._updated = index._start[leaf_id].above
    if rake is not None:
        # the leaf enters its rake as the e-side slot does
        index.counters.add(rake.update_cost)
        _recompute(index.evidence, rake)
    return index


def calc_pi_lambda(index: ContractionIndex, node_id: str, level: int) -> PiLambdaTriple:
    """pi of a node plus the lambdas of its children as of a contraction level.

    The node must have an equation at that level.  pi is the same at every
    version of a node, and a child's lambda at every level, so the triple
    is pi_query and lambda_query of the version's two children, counted as
    those are; index.last_calc_depth is pi_query's walk.
    """
    if node_id not in index.tree.nodes:
        raise UnknownNode(f"no node {node_id!r}")
    if not 0 <= level < len(index.levels):
        raise LevelOutOfRange(f"level {level} outside 0..{len(index.levels) - 1}")
    rec = _record_at(index, node_id, level) if _present(index, node_id, level) else None
    if rec is None:
        raise LevelOutOfRange(f"{node_id!r} has no equations at level {level}")
    return PiLambdaTriple(pi=pi_query(index, node_id), lambda_left=lambda_query(index, rec.left_child),
                          lambda_right=lambda_query(index, rec.right_child))


def _walk(index: ContractionIndex, v: CoeffRecord, carry: int):
    """(pi, left, right) of equation version v under the evidence in force:
    pi of its owner and, on each side, the lambda of its child where carry
    says (LEFT, RIGHT or NEITHER), else the message that side sends the
    owner, side coeff . lambda(child).

    A rake rewrites C . lambda(x) as (C . Diag(diag) . Z) . lambda(z), the
    same vector, so each side's message is the same at every owner version.
    The walk climbs above to the root's terminal version and comes back
    down one rake at a time.  For each owner u it carries lambda only on
    the side it leaves u through (x's side at the next step into a raked
    x's last version, or carry's at the end), rebuilt below each rake on
    that side from the cached diagonal, and on the other side the message,
    taken where u's versions start: side coeff . lambda(extreme leaf) at
    the root, else, below the rake (e, x, u) that removed u, diag (e side)
    or Z . lambda(z).  A step into x takes pi(x) = (pi(u) * that message) .
    parent side.  Counts nothing: callers add the kept total of what they
    ask for.  Sets index.last_calc_depth to the number of versions climbed.
    pi may be the root's prior, and a lambda a leaf's evidence: callers
    must not write to them.
    """
    path, runs = [], []  # the steps that do work, and each step into x's carry
    w, depth = v, 0
    while (up := w.above) is not None:
        depth += 1
        if up.rewrites is not w:  # into x's last version: u is left through x's side
            path.append(w)
            runs.append(carry)
            carry = up.parent_side
        elif up.parent_side == carry:
            path.append(w)
        w = up
    index.last_calc_depth = depth
    evidence = index.evidence
    pi = index.tree.nodes[index.root].prior
    left, right = evidence[w.left_child], evidence[w.right_child]
    if carry != LEFT:
        left = w.left.coeff.dot(left)
    if carry != RIGHT:
        right = w.right.coeff.dot(right)
    for w in reversed(path):
        rake = w.above
        if rake.rewrites is w:  # u's previous version: lambda(x) = diag * (z side . lambda(z))
            if rake.parent_side == LEFT:
                left = rake.diag * rake.z_side_input.coeff.dot(left)
            else:
                right = rake.diag * rake.z_side_input.coeff.dot(right)
            continue
        # x's last version: pi through u's parent side, then x's sides
        if rake.parent_side == LEFT:
            lam_z, up = left, pi * right
        else:
            lam_z, up = right, pi * left
        parent = rake.parent_input.coeff
        pi = up.dot(parent) if type(parent) is np.ndarray else up @ parent
        carry, side = runs.pop(), rake.leaf_side
        e = evidence[rake.leaf] if carry == side else rake.diag
        z = lam_z if carry == 1 - side else rake.z_side_input.coeff.dot(lam_z)
        left, right = (e, z) if side == LEFT else (z, e)
    return pi, left, right


def _leaf_pi(index: ContractionIndex, node_id: str, v: CoeffRecord) -> np.ndarray:
    """pi of a leaf through v, the start version of its walk, whose owner
    is the leaf's parent: (pi(parent) * message on the other side) . the
    leaf's side."""
    if v.left_child == node_id:
        pi, _, message = _walk(index, v, LEFT)
        down = v.left.coeff
    else:
        pi, message, _ = _walk(index, v, RIGHT)
        down = v.right.coeff
    up = pi * message
    return up.dot(down) if type(down) is np.ndarray else up @ down


def pi_query(index: ContractionIndex, node_id: str) -> np.ndarray:
    """Prior-side message at a node: the root's prior, a leaf's pi step,
    or an internal node's walk with lambda carried on the z side of the
    rake that removes it, which takes no message there.  Adds the node's
    kept belief total less what the belief does after pi."""
    v = index._start.get(node_id)
    if v is None:
        raise UnknownNode(f"no node {node_id!r}")
    if node_id == index.root:
        index.last_calc_depth = 0
        return index.tree.nodes[index.root].prior.copy()
    if node_id in index.evidence:
        pi, skipped = _leaf_pi(index, node_id, v), NO_COST
    else:  # v.above removes the node
        pi, skipped = _walk(index, v, 1 - v.above.leaf_side)[0], v.above.steps[3]
    index.counters.add(less_costs(index._belief_cost[node_id],
                                  sum_costs(skipped, (0, 0, 0, len(pi), 0))))
    return pi


def belief_query(index: ContractionIndex, node_id: str) -> Belief:
    """Normalized belief at any node: one root-ward walk (_walk), the
    product of the two messages into an internal node (or a leaf's pi
    step), one vector product and one normalization.  Adds the node's kept
    total, which counts all of it but the normalization, once."""
    v = index._start.get(node_id)
    if v is None:
        raise UnknownNode(f"no node {node_id!r}")
    lam = index.evidence.get(node_id)
    if lam is None:
        pi, left, right = _walk(index, v, NEITHER)
        lam = left * right
    else:
        pi = _leaf_pi(index, node_id, v)
    index.counters.add(index._belief_cost[node_id])
    return normalize_belief(lam * pi, node=node_id)

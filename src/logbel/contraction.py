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
Both touch O(log N) equations on balanced rake schedules.

Storage.  The index is columns, one row per stored matrix (a slot) and one
per equation version (see _Rows).  A round rakes every other interior leaf
of the frontier; contract() computes it in two array passes (rake), the
leaves that are left children first, then those that are right children,
which may read what the first pass wrote.  This is the order in which the
round's rakes would run one at a time, left to right, so rows keep that
order.  Each stored matrix is one object: a Slot for each of a base
equation's two, and for each rake its RakeEquation, which is both the
version of the grandparent's equation it writes and the slot that holds
its output.  The update chain follows the RakeEquations; the query walk
reads them and the columns.

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

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from .counters import NO_COST, OpCounters, sum_costs
from .errors import ConstructionError, DimensionMismatch, LevelOutOfRange, TreeTooSmall, UnknownNode
from .model import Belief, CausalTree, collector_paused, normalize_belief, set_evidence

LEFT, RIGHT = 0, 1

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
    z side (see RakeEquation), then the walk step that rebuilds lambda(x)
    from the cached diagonal (the z side's product and the vector
    product)."""
    equation = (0, 0, 1, 0, 0)
    parent_entry = sum_costs(rake_cost(parent_form, z_form), equation)
    return (sum_costs(matvec_cost(e_form), parent_entry), parent_entry,
            sum_costs(scaled_cost(parent_form, z_form), equation),
            sum_costs(matvec_cost(z_form), (0, 0, 1, K, 0)))


# -- stored structure ------------------------------------------------------------

class _Rows:
    """The index's columns.  Nodes are numbered in tree order, and slot s,
    version v and rake k by row: base version b stores slots 2b (left) and
    2b + 1 (right), and rake k is version base + k and writes slot
    2 * base + k.  Row order is storage order: the base equations in tree
    order, then the rakes in build order.  Lists hold what updates and
    queries read, arrays what only the records' properties read.  ids
    names the nodes, base counts the base versions, forms holds each form
    once, and longest_chain and deepest_walk are for stats().

    Per node: start, the version its query walk starts from (its own last,
    or for a leaf its parent's); rake_of, the rake that consumes a leaf
    (-1 for none).
    Per slot: slots, its Slot (a rake's output's is the rake's
    RakeEquation); form (an index into forms); consumer, the rake the slot
    feeds (-1 for none).
    Per version: owner, level, the Slots left/right of its two slots,
    left_child/right_child; above, the next version on the query walk (-1
    for the root's last); down, the RakeEquation that is its above; below,
    whether the version is the one its above rewrites (else it is the last
    of the parent its above removes); cost; walk_cost, kept for the
    versions queries start from.
    Per rake: records, its RakeEquation; cls, its cost class, whose steps
    are in steps; parent (x) and gv (the version it rewrites), which
    records do not hold; update_cost, the chain_cost of its e-side input.
    """

    __slots__ = ("ids", "base", "forms", "start", "rake_of", "steps", "cls",
                 "longest_chain", "deepest_walk", "slots", "form", "consumer",
                 "owner", "level", "left", "right", "left_child",
                 "right_child", "above", "down", "below", "cost", "walk_cost",
                 "records", "parent", "gv", "update_cost")


class _Row:
    """A stored record's place: the index's rows and its own row."""

    __slots__ = ("_rows", "_row")

    def __init__(self, rows: _Rows, row: int):
        self._rows = rows
        self._row = row


class Slot(_Row):
    """One stored coefficient matrix: coeff, which an update replaces, and
    its slot row.

    form is fixed with the coefficient: every product keeps the form its
    operands' shapes decide, so no update changes it; coeff alone may be
    set.  consumer is the at-most-one rake equation this matrix feeds; the
    update walk follows it.  chain_cost counts the consumer chain an update
    that changes this matrix recomputes.
    """

    __slots__ = ("coeff",)

    def __init__(self, rows: _Rows, row: int, coeff):
        self._rows, self._row, self.coeff = rows, row, coeff

    def _slot(self) -> int:
        return self._row

    def _version(self) -> int:
        """The version that stores this slot first."""
        return self._row // 2

    form = property(lambda self: self._rows.forms[self._rows.form[self._slot()]])
    owner = property(lambda self: self._rows.ids[self._rows.owner[self._version()]])
    side = property(lambda self: self._row % 2)
    level = property(lambda self: int(self._rows.level[self._version()]))

    @property
    def consumer(self) -> "RakeEquation | None":
        k = self._rows.consumer[self._slot()]
        return None if k < 0 else self._rows.records[k]

    @property
    def chain_cost(self) -> tuple:
        rows, total, rake = self._rows, NO_COST, self.consumer
        if rake is not None:  # the step entering the consumer through this slot, and on
            entry = 0 if rake.e_side_input is self else 1 if rake.parent_input is self else 2
            while rake is not None:
                total = sum_costs(total, rows.steps[rows.cls[rake._row - rows.base]][entry])
                rake, entry = rake.feeds, rake.enters
        return total

    def describe(self) -> tuple[str, str, int]:
        return (self.owner, "left" if self.side == LEFT else "right", self.level)

    def __repr__(self):
        owner, side, level = self.describe()
        return f"<Slot {owner}.{side} level={level}>"


class CoeffRecord(_Row):
    """One version of a node's two-sided likelihood equation; its row is
    the version's.

    lambda(owner) = left.coeff . lambda(left_child) * right.coeff . lambda(right_child)

    index.records[owner] lists the versions in order.  The first holds the
    base-tree conditional matrices; each later one is the RakeEquation of
    one rake below the owner, and shares the untouched side's slot with its
    predecessor.

    above is the next version on the root-ward query walk: the owner's next
    version, or, for the last version of a raked node, the rake that
    absorbed it; None only for the root's terminal version.  cost counts
    one evaluation of this equation (equation_cost) and walk_cost the whole
    walk that builds this version's (pi, lambda, lambda) triple.
    """

    __slots__ = ()

    owner = property(lambda self: self._rows.ids[self._rows.owner[self._row]])
    level = property(lambda self: int(self._rows.level[self._row]))
    left = property(lambda self: self._rows.left[self._row])
    right = property(lambda self: self._rows.right[self._row])
    left_child = property(lambda self: self._rows.left_child[self._row])
    right_child = property(lambda self: self._rows.right_child[self._row])
    cost = property(lambda self: self._rows.cost[self._row])
    walk_cost = property(lambda self: _walk_cost(self._rows, self._row))
    above = property(lambda self: self._rows.down[self._row])

    def side_slot(self, side: int) -> Slot:
        return self.left if side == LEFT else self.right

    def child(self, side: int) -> str:
        return self.left_child if side == LEFT else self.right_child


class RakeEquation(Slot, CoeffRecord):
    """One rake (e, x, u): the version of u's equation it writes, whose
    owner is u, and the slot on x's side of it, output, which is the rake
    itself and holds
    coeff = parent_input . Diag(e_side_input . lambda(leaf)) . z_side_input

    Its row is its version's, base + k; its slot's is 2 * base + k.  It
    rewrites u's previous version: it keeps that version's slot on the
    other side (kept), and the above of both it and x's last version is
    this rake.  diag caches e_side_input . lambda(leaf) and scaled the left
    half of the product, parent_input * diag (an ndarray, a FactoredMatrix
    or, through an identity parent, a _Diagonal): contract() sets both, and
    _recompute refreshes diag when the leaf or the e-side slot changes and
    scaled when diag or the parent slot does.  So a step entered through
    the leaf or the e side refreshes both, through the parent side scaled
    only, through the z side neither.  spread is how a dense parent indexes
    diag (_spread), fixed with the parent slot's form, and None for any
    other form, which multiplies by diag itself.  feeds is the rake its
    output feeds (None for none) and enters how it enters it (0 e side, 1
    parent side, 2 z side); leaf is the leaf's id, leaf_side its side within
    x, and parent_side x's within u.
    """

    __slots__ = ("diag", "scaled", "spread", "e_side_input", "parent_input", "z_side_input",
                 "feeds", "enters", "leaf", "parent_side", "leaf_side", "kept")

    def _slot(self) -> int:
        return self._row + self._rows.base

    def _version(self) -> int:
        return self._row

    side = property(attrgetter("parent_side"))
    output = property(lambda self: self)
    parent = property(lambda self: self._rows.ids[self._rows.parent[self._row - self._rows.base]])

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
    """A node is in the tree until the round of the rake that removes it:
    a leaf's rake consumes it, a raked parent's is its last version's above."""
    rows, i = index._rows, index._pos[node_id]
    if node_id in index.evidence:
        k = rows.rake_of[i]
        v = -1 if k < 0 else rows.base + k
    else:
        v = rows.above[rows.start[i]]
    return v < 0 or rows.level[v] > level


def _record_at(index: "ContractionIndex", node_id: str, level: int) -> CoeffRecord | None:
    """A node's last equation version created at or before a level; None
    for a leaf."""
    recs = index.records.get(node_id)
    if recs is None:
        return None
    return recs[bisect_right(recs, level, key=attrgetter("level")) - 1]


class ContractionIndex:
    """Preprocessed equation hierarchy for one tree, kept as rows (_Rows)
    that contract() fills."""

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.counters = OpCounters()
        self.evidence: dict[str, np.ndarray] = {}
        self.root = tree.root
        self.levels: list[Level] = []
        self.base_matrix_count = 0
        # equation versions the last query's walk climbed (see _walk)
        self.last_calc_depth = 0
        self._rows: _Rows | None = None
        self._pos: dict[str, int] = {}  # node id -> its number, in tree order
        self._updated = -1  # the rake the last update's chain started from, or -1
        self._records: dict[str, list[CoeffRecord]] | None = None
        self._leaf_consumer: dict[str, RakeEquation] | None = None

    @property
    def records(self) -> dict[str, list[CoeffRecord]]:
        """Each internal node's equation versions in order: its base one,
        made on first read, then its rakes."""
        if self._records is None:
            rows, ids = self._rows, self._rows.ids
            self._records = records = {}
            bases = map(CoeffRecord, repeat(rows, rows.base), range(rows.base))
            for owner, version in zip(rows.owner.tolist(), [*bases, *rows.records]):
                records.setdefault(ids[owner], []).append(version)
        return self._records

    @property
    def leaf_consumer(self) -> dict[str, RakeEquation]:
        """Every rake, in build order, by the leaf it consumes."""
        if self._leaf_consumer is None:
            self._leaf_consumer = {rake.leaf: rake for rake in self._rows.records}
        return self._leaf_consumer

    @property
    def last_update_trace(self) -> list[Slot]:
        """The slots the last update rewrote, in chain order: the rakes on
        its chain."""
        k, trace = self._updated, []
        rake = None if k < 0 else self._rows.records[k]
        while rake is not None:
            trace.append(rake)
            rake = rake.feeds
        return trace

    @property
    def leaf_counts(self) -> list[int]:
        """Frontier size of every level."""
        return [len(level.leaves) for level in self.levels]

    @property
    def stored_matrix_count(self) -> int:
        """Stored matrices: two per base equation, one per rake."""
        return self.base_matrix_count + len(self._rows.records)

    def all_slots(self) -> list[Slot]:
        """Every stored matrix in storage order: the base equations' pairs,
        then the rakes' outputs in build order."""
        return list(self._rows.slots)

    def stats(self) -> dict[str, int]:
        """The index's shape against the paper's bounds: rake levels, stored
        matrices against 2 x base + 4, the longest consumer chain and the
        deepest query walk against 2 ceil(log2 N); then the last update's
        chain length and the last walk's depth."""
        return {"rake_levels": len(self.levels) - 1,
                "stored_matrices": self.stored_matrix_count,
                "storage_bound": 2 * self.base_matrix_count + 4,
                "longest_update_chain": self._rows.longest_chain,
                "deepest_query_walk": self._rows.deepest_walk,
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
    """contract()'s working state: the rows as arrays while they are
    filled, each live node's parent and last equation version, and the
    cost classes seen.  A cost class is one (domain of x, forms of the
    three inputs) of a rake: it fixes the rake's counts (_rake_costs) and
    its output's form.  Nodes are numbered in tree order.  Python objects
    are kept in object arrays, so that gathering them makes no new ones."""

    def __init__(self, index: ContractionIndex, coeffs: Mapping[str, object]):
        tree = index.tree
        self.index = index
        self.ids = ids = list(tree.nodes)
        n = len(ids)
        # the lists the index keeps share one int object per value
        self.numbers = np.arange(-1, n).astype(object)
        pos = index._pos = dict(zip(ids, self.numbers[1:].tolist()))
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
        children = [c for pair in kids for c in pair]
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
        self.level = np.zeros(V, np.int64)
        self.above = np.full(V, -1)
        self.form = np.empty(S, np.int64)
        self.kind = np.full(S, PLAIN, np.int64)
        self.consumer = np.full(S, -1)
        self.coeff = np.empty(S, dtype=object)
        self.coeff[:2 * B] = np.fromiter(cpt, object, n)[self.child[:B].ravel()]
        for name in ("leaf", "parent", "parent_side", "e_in", "p_in", "z_in", "pv", "gv", "cls"):
            setattr(self, name, np.empty(R, np.int64))
        self.leaf_side = np.empty(R, np.int64)
        self.diag, self.scaled, self.spread = (np.empty(R, dtype=object) for _ in range(3))

        # each live node's parent and last version
        self.live_parent = np.full(n, -1)
        self.live_parent[self.child[:B]] = internal[:, None]
        self.last = np.full(n, -1)
        self.last[internal] = np.arange(B)

        # forms: a base slot holds its child's table, shaped by two domains,
        # unless coeffs gives the edge another coefficient
        self.forms: list[tuple] = []
        self.form_ids: dict[tuple, int] = {}
        self.kvals, self.dcode = np.unique(np.array(domain), return_inverse=True)
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
        order = _leaf_order(self.root, self.ints(left), self.ints(right))
        self.frontier = np.array(order, np.int64)
        index.levels.append(Level(0, self.names[self.frontier].tolist(), index))
        leaves = np.flatnonzero(~has_kids)
        index.evidence = dict(zip(self.names[leaves].tolist(), self.evidence[leaves].tolist()))

    def ints(self, values: np.ndarray) -> list[int]:
        """values, each at least -1, as a list of the shared int objects."""
        return self.numbers[values + 1].tolist()

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
        self.level[version] = level
        self.consumer[e] = self.consumer[p] = self.consumer[zs] = rows
        self.above[pv] = self.above[gv] = version
        self.last[u] = version
        self.live_parent[z] = u
        self.parent[rows], self.parent_side[rows], self.leaf_side[rows] = x, ps, side
        self.pv[rows], self.gv[rows] = pv, gv

    def multiply(self, rows: np.ndarray) -> None:
        """Each rake's diagonal, scaled parent and output, as _recompute
        evaluates them, then its cost class, and so its output's form.
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
            scaled[k] = s = coeff[p] * (d if sp is None else d[sp])
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
        coeff[base + rows] = np.fromiter(out, object, m)
        self.kind[base + rows] = PLAIN

    def finish(self, frontier: np.ndarray) -> None:
        """Fix every count, and hand the rows to the index as columns.  What
        only the rounds read goes first, and each stage's temporaries go with
        it, to keep the peak low."""
        del self.kind, self.live_parent, self.evidence
        index = self.index
        rows = index._rows = _Rows()
        rows.ids, rows.base, rows.forms = self.ids, self.base, self.forms
        self.link(rows, frontier, *self.count(rows))
        index.base_matrix_count = 2 * self.base

    def count(self, rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
        """Every count.  A rake fixes one step of each count it takes part
        in: the chain step entered through each of its inputs (its
        class's), and the walk step below it, from u's previous version
        (its class's lambda step) or from x's last one (one evaluation of
        u's previous equation).  A total is the sum of the steps on its
        path (_path_sums).  The totals updates and queries start from are
        kept, each leaf's chain and each node's walk; Slot and CoeffRecord
        sum the others when read.  Returns nxt and how: rake k's output
        enters rake nxt[k] (-1 for none) through the input how[k] says (0 e
        side, 1 parent side, 2 z side)."""
        B, R = self.base, len(self.leaf)
        # one evaluation of each version: by its owner's domain and its forms
        columns = (self.dcode[self.owner], self.form[self.slot[:, LEFT]], self.form[self.slot[:, RIGHT]])
        first, group = _groups(columns)
        table = [equation_cost(self.kvals[columns[0][i]], self.forms[columns[1][i]],
                               self.forms[columns[2][i]]) for i in first.tolist()]
        rows.cost = [table[g] for g in group.tolist()]

        # chains; the last column counts equations on a chain, and versions
        # on a walk
        rows.steps, rows.cls = self.class_costs, self.cls
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
        rows.update_cost = _tuples(entry + after[:, :5])
        rows.longest_chain = int(after[:, 5].max()) + 1 if R else 0
        self.index.counters.add(tuple(entry.sum(axis=0).tolist()) if R else NO_COST)
        del after, entry
        # walks, kept for the versions queries start from: each internal
        # node's last
        walk = np.zeros((B + R, 6), np.int64)
        walk[self.gv, :5] = steps[self.cls, 3]  # u's lambda(x) from the cached diagonal
        # x's pi through u's previous equation
        walk[self.pv, :5] = np.array(table, np.int64).reshape(-1, 5)[group[self.gv]]
        walk[self.gv, 5] = walk[self.pv, 5] = 1
        walk = _path_sums(walk, self.above)
        finals = self.last[self.owner[:B]]
        rows.deepest_walk = int(walk[finals, 5].max())
        walk_cost = np.full(B + R, None, dtype=object)
        walk_cost[finals] = _tuples(walk[finals, :5])
        rows.walk_cost = walk_cost.tolist()
        return nxt, how

    def link(self, rows: _Rows, frontier: np.ndarray, nxt: np.ndarray, how: np.ndarray) -> None:
        """The Slots, the RakeEquations and what the walks read."""
        B, R, names = self.base, len(self.leaf), self.names
        # slots: a rake's output slot is its RakeEquation
        numbers = self.numbers[1:1 + 2 * B].tolist()
        coeff = self.coeff.tolist()
        records = list(map(RakeEquation, repeat(rows, R), numbers[B:B + R], coeff[2 * B:]))
        slots = rows.slots = [*map(Slot, repeat(rows), numbers, coeff[:2 * B]), *records]
        del numbers, coeff, self.coeff
        slot = np.fromiter(slots, object, len(slots))
        rows.form, rows.consumer = self.form, self.consumer
        # rakes
        rows.parent, rows.gv = self.parent, self.gv
        record = np.append(slot[2 * B:], None)  # rake k, and None at -1
        kept = self.slot[B + np.arange(R), 1 - self.parent_side]
        for rake, *fields in zip(records, self.diag.tolist(), self.scaled.tolist(),
                                 self.spread.tolist(), slot[self.e_in].tolist(),
                                 slot[self.p_in].tolist(), slot[self.z_in].tolist(),
                                 record[nxt].tolist(), how.tolist(), names[self.leaf].tolist(),
                                 self.parent_side.tolist(), self.leaf_side.tolist(),
                                 slot[kept].tolist()):
            (rake.diag, rake.scaled, rake.spread, rake.e_side_input, rake.parent_input,
             rake.z_side_input, rake.feeds, rake.enters, rake.leaf, rake.parent_side,
             rake.leaf_side, rake.kept) = fields
        rows.records = records
        del kept, self.diag, self.scaled, self.spread, self.e_in, self.p_in, self.z_in
        del self.leaf_side, self.parent_side
        # versions
        rows.owner, rows.level, rows.above = self.owner, self.level, self.ints(self.above)
        rows.left, rows.right = slot[self.slot[:, LEFT]].tolist(), slot[self.slot[:, RIGHT]].tolist()
        del slot, self.slot
        rows.left_child = names[self.child[:, LEFT]].tolist()
        rows.right_child = names[self.child[:, RIGHT]].tolist()
        del self.child
        below = np.zeros(B + R, dtype=bool)
        below[self.gv] = True
        rows.below = below.tolist()
        rows.down = record[np.where(self.above < 0, -1, self.above - B)].tolist()
        del below, record

        # where each node's query walk starts: its own last version, or, for
        # a leaf, that of the parent its rake removes, or the root's
        start = np.empty(len(self.ids), np.int64)
        start[self.owner] = self.last[self.owner]
        start[frontier] = self.last[self.root]
        start[self.leaf] = self.last[self.parent]
        rows.start = self.ints(start)
        rake_of = np.full(len(self.ids), -1)
        rake_of[self.leaf] = np.arange(R)
        rows.rake_of = self.ints(rake_of)


def _tuples(table: np.ndarray) -> list[tuple]:
    """The rows of an integer array as tuples, equal rows one tuple."""
    made = {}
    return [made.setdefault(row, row) for row in zip(*table.T.tolist())]


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
    a leaf)."""
    out, stack = [], [root]
    emit, push, pop = out.append, stack.append, stack.pop
    while stack:
        v = pop()
        child = left[v]
        if child < 0:
            emit(v)
        else:
            push(right[v])
            push(child)
    return out


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
    rows = index._rows
    v = rows.start[index._pos[node_id]]
    left = _lambda_rec(index, rows.left_child[v])
    right = _lambda_rec(index, rows.right_child[v])
    index.counters.add(rows.cost[v])
    return rows.left[v].coeff.dot(left) * rows.right[v].coeff.dot(right)


def _recompute(evidence: dict[str, np.ndarray], record: RakeEquation) -> None:
    """Evaluate a rake, then the rake its output feeds, and so on up the
    consumer chain.

    The first rake's leaf changed, so its diag and scaled are refreshed,
    and so are a later one's where the chain enters it through its e-side
    slot.  Entered through its parent slot, it refreshes scaled only;
    through its z-side slot, nothing, and the step is one product.  Each
    rake tells how its output enters the next.  A dense parent is scaled
    by diag indexed by the rake's spread, with the bits of parent * diag.

    Nothing here writes an array in place, and nothing may: an output is
    the rake's own scaled when a dense parent meets an identity z side
    (Identity.__rmatmul__ returns its operand), so rescaling an output
    must build a new array, or it rewrites that cache too.
    """
    entry = 0  # how the chain enters the rake: 0 e side (or leaf), 1 parent side, 2 z side
    while record is not None:
        if entry == 2:
            s = record.scaled
        else:
            if entry == 0:
                record.diag = record.e_side_input.coeff.dot(evidence[record.leaf])
            spread, diag = record.spread, record.diag
            s = record.scaled = record.parent_input.coeff * (diag if spread is None else diag[spread])
        z = record.z_side_input.coeff
        record.coeff = s.dot(z) if type(z) is np.ndarray else s @ z
        record, entry = record.feeds, record.enters


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
    rows = index._rows
    k = rows.rake_of[index._pos[leaf_id]]
    index._updated = k
    if k >= 0:
        # the leaf enters its rake as the e-side slot does
        index.counters.add(rows.update_cost[k])
        _recompute(index.evidence, rows.records[k])
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
    pi, (lam_left, lam_right) = _walk(index, rec._row)
    return PiLambdaTriple(pi=pi.copy(), lambda_left=lam_left.copy(),
                          lambda_right=lam_right.copy())


def _walk(index: ContractionIndex, v: int):
    """(pi, [lambda_left, lambda_right]) of equation version v: pi of its
    owner and the lambdas of its two children under the evidence in force.

    Climbs above to the root's terminal version, whose triple is the prior
    and the extreme leaves' likelihoods, then comes back down one rake at a
    time.  Below the version of rake (e, x, u), either the walk enters u's
    previous version, which keeps u's pi, and x's lambda is rebuilt from
    x's final equation, whose e side the rake's cached diagonal already
    holds, or it enters x's final version, whose pi comes through u's
    equation; the version's down rake tells which.
    Sets index.last_calc_depth to the number of versions climbed; pi may be
    the root's prior itself, so callers must not write to it.
    """
    rows = index._rows
    above = rows.above
    index.counters.add(_walk_cost(rows, v))
    path = []
    up = above[v]
    while up >= 0:
        path.append(v)
        v, up = up, above[up]
    index.last_calc_depth = len(path)
    evidence = index.evidence
    pi = index.tree.nodes[index.root].prior
    lam = [evidence[rows.left_child[v]], evidence[rows.right_child[v]]]
    below, down = rows.below, rows.down
    for v in reversed(path):
        rake = down[v]
        side = rake.parent_side
        if below[v]:  # u's previous version: diag . (z side . lambda(z))
            lam[side] = rake.diag * rake.z_side_input.coeff.dot(lam[side])
        else:  # x's last version: pi through u's kept side and parent side
            up = pi * rake.kept.coeff.dot(lam[1 - side])
            parent = rake.parent_input.coeff
            pi = up.dot(parent) if type(parent) is np.ndarray else up @ parent
            lam_z, lam_e = lam[side], evidence[rake.leaf]
            lam = [lam_e, lam_z] if rake.leaf_side == LEFT else [lam_z, lam_e]
    return pi, lam


def _walk_cost(rows: _Rows, v: int) -> tuple:
    """walk_cost of version v, summed and kept on first use where contract()
    did not keep it."""
    cost = rows.walk_cost[v]
    if cost is None:
        cost, u = NO_COST, v
        while (up := rows.above[u]) >= 0:  # the step below up
            k = up - rows.base
            step = rows.steps[rows.cls[k]][3] if rows.below[u] else rows.cost[rows.gv[k]]
            cost, u = sum_costs(cost, step), up
        rows.walk_cost[v] = cost
    return cost


def _leaf_pi(index: ContractionIndex, leaf_id: str, v: int) -> np.ndarray:
    """pi of a leaf, through v, the final version of its parent: the raked
    parent's, or the root's for the two extreme leaves."""
    pi, lam = _walk(index, v)
    rows = index._rows
    index.counters.add(rows.cost[v])
    if rows.left_child[v] == leaf_id:
        up, down = pi * rows.right[v].coeff.dot(lam[RIGHT]), rows.left[v].coeff
    else:
        up, down = pi * rows.left[v].coeff.dot(lam[LEFT]), rows.right[v].coeff
    return up.dot(down) if type(down) is np.ndarray else up @ down


def pi_query(index: ContractionIndex, node_id: str) -> np.ndarray:
    """Prior-side message at a node under the evidence in force."""
    i = index._pos.get(node_id)
    if i is None:
        raise UnknownNode(f"no node {node_id!r}")
    v = index._rows.start[i]
    if node_id == index.root:
        index.last_calc_depth = 0
        return index.tree.nodes[index.root].prior.copy()
    if node_id in index.evidence:
        return _leaf_pi(index, node_id, v)
    return _walk(index, v)[0]


def belief_query(index: ContractionIndex, node_id: str) -> Belief:
    """Normalized belief at any node from one root-ward walk.

    An internal node's walk ends at its final equation version, which gives
    its pi and its children's lambdas; a leaf's ends at its parent's.
    """
    i = index._pos.get(node_id)
    if i is None:
        raise UnknownNode(f"no node {node_id!r}")
    v = index._rows.start[i]
    evidence = index.evidence
    if node_id in evidence:
        lam = evidence[node_id]
        pi = _leaf_pi(index, node_id, v)
    else:
        pi, (lam_left, lam_right) = _walk(index, v)
        rows = index._rows
        index.counters.add(rows.cost[v])
        lam = rows.left[v].coeff.dot(lam_left) * rows.right[v].coeff.dot(lam_right)
    index.counters.count_vector_op(lam.shape[0])
    return normalize_belief(lam * pi, node=node_id)

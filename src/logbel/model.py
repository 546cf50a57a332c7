"""Tree-structured network model.

A causal tree is a rooted directed tree: the root carries a prior over its
domain, every other node carries a row-stochastic conditional matrix indexed
(parent value, own value), and every leaf carries a soft-evidence likelihood
vector over its own domain.  Child order is significant (it is the
declaration order of the child nodes) and drives the left-to-right leaf
order used by the contraction engine.

This module owns construction and validation, normalization to complete
binary form, evidence assignment, JSON (de)serialization, and the
joint-enumeration oracle that every engine, on trees and polytrees, is
tested against.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import (
    AllZeroLikelihood,
    Cycle,
    DimensionMismatch,
    DuplicateId,
    FloatRangeError,
    FormatError,
    ImpossibleEvidence,
    InvalidProbability,
    LeafWithoutEvidence,
    LogbelError,
    MissingRoot,
    MultipleRoots,
    NotALeaf,
    RowNotStochastic,
    StateSpaceTooLarge,
    UnknownNode,
    UnknownVariable,
)

STOCHASTIC_TOL = 1e-9
DEFAULT_STATE_CAP = 1 << 24
NUMERIC_KINDS = "biuf"     # dtype kinds an entry may have: bool, int, uint, float
SHORT_LIKELIHOOD = 24      # all/max over a list beat numpy min/max to here (timeit, numpy 2.4.6)

_FLOAT64 = np.dtype(np.float64)
_NODE_KEYS = frozenset({"id", "domain", "parent", "cpt", "prior", "evidence"})


def collector_paused(build):
    """Run build with CPython's cyclic garbage collector paused.

    A build allocates many small objects and frees none of them in cycles,
    so every collection pass it would trigger scans the growing network for
    nothing.  The collector is disabled only if it was enabled, and only
    what was disabled is re-enabled, in a finally: nested and raising
    builds leave the collector as they found it.
    """
    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _float_array(values, what: str) -> np.ndarray:
    """values as a new float64 array.  The one conversion rule of every
    table and vector check: numpy infers the entries' type, and anything
    but booleans, integers and floats (strings, numeric strings, None,
    objects, ragged lists) is a FormatError naming what."""
    try:
        arr = np.array(values)
    except (TypeError, ValueError):
        raise FormatError(f"{what} is not a numeric array") from None
    if arr.dtype is not _FLOAT64:
        if arr.dtype.kind not in NUMERIC_KINDS:
            raise FormatError(f"{what} is not a numeric array")
        arr = arr.astype(np.float64)
    return arr


def as_prob_vector(values, *, what: str = "vector") -> np.ndarray:
    """Copy into a new 1-D float64 array with finite, nonnegative entries."""
    vec = _float_array(values, what)
    if vec.ndim != 1:
        raise DimensionMismatch(f"{what} must be one-dimensional, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise InvalidProbability(f"{what} contains a non-finite entry")
    if np.any(vec < 0.0):
        raise InvalidProbability(f"{what} contains a negative entry")
    return vec


def _rows_stochastic(rows: np.ndarray) -> bool:
    """check_cpt's valid case, for a table or a block of tables:
    every row nonnegative and summing to 1 within STOCHASTIC_TOL (NaN and
    +-inf make their row sum non-finite)."""
    return bool(np.abs(rows.sum(axis=-1) - 1.0).max() <= STOCHASTIC_TOL
                and rows.min() >= 0.0)


def check_likelihood(evidence, domain: int | None = None, *,
                     what: str = "likelihood") -> np.ndarray:
    """Validate an Evidence or array-like likelihood; return it as a new
    float64 vector.

    The vector must be one-dimensional, finite, nonnegative, of length
    domain (unless domain is None) and have at least one positive entry.
    Every likelihood the package stores passes through here, so the stored
    vector never aliases the caller's array.
    """
    if isinstance(evidence, Evidence):
        evidence = evidence.likelihood
    vec = _float_array(evidence, what)
    # A short vector's sum and min, or the batch check's rule (_rows_positive),
    # decide the valid case: a sum is NaN or infinite if an entry is, and NaN
    # fails every comparison.  The ordered checks name the fault, and accept a finite
    # vector whose sum overflows.
    if vec.ndim == 1 and vec.shape[0] and (domain is None or vec.shape[0] == domain):
        if vec.shape[0] <= SHORT_LIKELIHOOD:
            vals = vec.tolist()
            total = sum(vals)
            if total == total and total < math.inf and min(vals) >= 0.0 and total > 0.0:
                return vec
        elif _rows_positive(vec):
            return vec
    vec = as_prob_vector(vec, what=what)
    if domain is not None and vec.shape[0] != domain:
        raise DimensionMismatch(f"{what} has length {vec.shape[0]}, domain is {domain}")
    if not np.any(vec > 0.0):
        raise AllZeroLikelihood(f"{what} has no positive entry")
    return vec


def check_prior(values, shape: tuple[int], owner: str) -> np.ndarray:
    """Return a prior as a new float64 vector: finite, nonnegative, of
    shape (domain,) and summing to 1 within STOCHASTIC_TOL."""
    what = f"prior of {owner!r}"
    prior = as_prob_vector(values, what=what)
    if prior.shape != shape:
        raise DimensionMismatch(f"{what} has length {prior.shape[0]}, domain is {shape[0]}")
    if abs(prior.sum() - 1.0) > STOCHASTIC_TOL:
        raise RowNotStochastic(owner, "prior", f"{what} does not sum to 1")
    return prior


def check_cpt(values, shape: tuple[int, int], owner: str) -> np.ndarray:
    """Return a conditional table as a float64 array of the given shape
    whose rows are finite, nonnegative and sum to 1 within STOCHASTIC_TOL;
    the first bad row is located only to report it.
    """
    what = f"conditional table of {owner!r}"
    cpt = np.ascontiguousarray(_float_array(values, what))
    if cpt.shape != shape:
        raise DimensionMismatch(f"{what} has shape {cpt.shape}, expected {shape}")
    if not _rows_stochastic(cpt):
        deviation = np.abs(cpt.sum(axis=1) - 1.0)
        bad = ~(deviation <= STOCHASTIC_TOL) | np.any(cpt < 0.0, axis=1)
        raise RowNotStochastic(owner, int(np.argmax(bad)))
    return cpt


class TableBatch:
    """A network's tables, checked as one block per shape.

    A store function records each table as (entry, "cpt", "prior" or
    "evidence", rows), rows being a conditional table's row count and None
    for a vector.  valid() converts each group of one attribute and shape
    with one np.array call; numpy must infer a NUMERIC_KINDS dtype of
    exactly the group's shape, and the single checks' reductions, along
    the last axis, must pass.  If all groups pass, each table becomes its
    row of its float64 block.  It never raises: check_each names a fault."""

    def __init__(self):
        self.records: list[tuple] = []

    def valid(self) -> bool:
        groups: dict[tuple, list] = defaultdict(list)
        for entry, attr, rows in self.records:
            groups[attr, rows, entry.domain].append(entry)
        blocks = []
        for (attr, rows, domain), entries in groups.items():
            shape = (len(entries), domain) if rows is None else (len(entries), rows, domain)
            try:
                block = np.array(list(map(attrgetter(attr), entries)))
            except (TypeError, ValueError):
                return False
            if block.dtype.kind not in NUMERIC_KINDS or block.shape != shape:
                return False
            block = block.astype(np.float64, copy=False)
            if not (_rows_positive if attr == "evidence" else _rows_stochastic)(block):
                return False
            blocks.append((attr, entries, block))
        for attr, entries, block in blocks:
            for entry, table in zip(entries, list(block)):
                setattr(entry, attr, table)
        return True

    def check_each(self) -> None:
        """The single checks over the records in declaration order: the
        first fault raises, and each table before it is stored as its
        check returns it."""
        for entry, attr, rows in self.records:
            shape = (entry.domain,) if rows is None else (rows, entry.domain)
            setattr(entry, attr, _SINGLE_CHECKS[attr](getattr(entry, attr), shape, entry.id))


_SINGLE_CHECKS = {"cpt": check_cpt, "prior": check_prior,
                  "evidence": lambda values, shape, owner: check_likelihood(
                      values, shape[0], what=f"evidence of {owner!r}")}


def _rows_positive(block: np.ndarray) -> bool:
    """check_likelihood's valid case, for every row of the block."""
    peak = block.max(axis=-1)
    return bool(block.min() >= 0.0 and peak.min() > 0.0 and peak.max() < np.inf)


def validate_tables(store) -> None:
    """Run store(record), which checks a network's structure in declaration
    order and calls record once per table, then check and store every
    table.  A TableBatch decides them all at once; when it finds a fault,
    or store raises, the single checks run over the records in order, so
    the error names the first fault, a table's or the structure's.
    """
    batch, fault = TableBatch(), None
    try:
        store(batch.records.append)
    except LogbelError as exc:
        fault = exc
    if fault is not None or not batch.valid():
        batch.check_each()
        if fault is not None:
            raise fault


@dataclass(frozen=True)
class Belief:
    """A normalized distribution together with the constant that normalized it.

    dist sums to one; normalizer is the positive scalar the raw product was
    multiplied by (1 / total mass).
    """

    dist: np.ndarray
    normalizer: float


def normalize_belief(raw: np.ndarray, *, node: str = "?") -> Belief:
    """raw over its total (np.add.reduce: ndarray.sum's bits, without its
    Python wrapper), which must be neither zero nor inf or NaN."""
    total = float(np.add.reduce(raw))
    if not 0.0 < total < math.inf:
        if total == 0.0:
            raise ImpossibleEvidence(f"total probability mass is zero at node {node!r}")
        raise FloatRangeError(f"total probability mass overflows float64 at node {node!r}")
    return Belief(dist=raw / total, normalizer=1.0 / total)


@dataclass(frozen=True)
class Evidence:
    """Soft-evidence likelihood vector; at least one entry must be positive."""

    likelihood: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "likelihood", check_likelihood(self.likelihood))

    @classmethod
    def one_hot(cls, domain: int, index: int) -> "Evidence":
        if not 0 <= index < domain:
            raise DimensionMismatch(f"value index {index} outside domain of size {domain}")
        vec = np.zeros(domain)
        vec[index] = 1.0
        return cls(vec)


@dataclass(slots=True)
class Node:
    id: str
    domain: int
    parent: str | None = None
    children: list[str] = field(default_factory=list)  # derived by CausalTree(nodes)
    cpt: np.ndarray | None = None       # (parent domain, own domain)
    prior: np.ndarray | None = None     # root only
    evidence: np.ndarray | None = None  # leaves only


class CausalTree:
    """Validated rooted tree.  Immutable after construction except through
    set_evidence."""

    def __init__(self, nodes: list[Node]):
        self.nodes: dict[str, Node] = index_by_id(nodes)
        # children from parent links; declaration order is sibling order
        for node in nodes:
            if node.children:
                raise FormatError(
                    f"node {node.id!r} arrives with children; they come from parent links")
        for node in nodes:
            if node.parent is not None:
                if node.parent not in self.nodes:
                    raise UnknownNode(f"{node.id!r} references unknown parent {node.parent!r}")
                self.nodes[node.parent].children.append(node.id)
        self.root = self._find_root()
        self._check_reachable()
        check_domains(nodes)
        validate_tables(self._store_tables)

    @classmethod
    def unchecked(cls, nodes: dict[str, Node], root: str) -> "CausalTree":
        """The tree over nodes, by id, with parents and children set, which
        becomes the tree's own, checking nothing: for builders whose tables
        are valid by construction (copy and make_complete_binary's dummies),
        or, in compile_join_tree, derived from a validated Polytree and
        compared bit for bit with a reference by the test suite."""
        tree = cls.__new__(cls)
        tree.nodes = nodes
        tree.root = root
        return tree

    # -- construction checks --------------------------------------------------

    def _find_root(self) -> str:
        roots = [n.id for n in self.nodes.values() if n.parent is None]
        if not roots:
            raise MissingRoot("no node without a parent")
        if len(roots) > 1:
            raise MultipleRoots(f"several parentless nodes: {roots}")
        return roots[0]

    def _check_reachable(self) -> None:
        seen = set()
        stack = [self.root]
        while stack:
            cur = stack.pop()
            seen.add(cur)
            stack.extend(self.nodes[cur].children)
        if len(seen) != len(self.nodes):
            missing = sorted(set(self.nodes) - seen)
            raise Cycle(f"nodes unreachable from root (cycle or orphan): {missing}")

    def _store_tables(self, record) -> None:
        for node in self.nodes.values():
            is_root = node.parent is None
            store_family_table(node, record, None if is_root else self.nodes[node.parent].domain)
            if not node.children:
                if node.evidence is None:
                    if is_root:
                        continue  # a bare single-node tree carries only its prior
                    raise LeafWithoutEvidence(f"leaf {node.id!r} has no evidence")
                record((node, "evidence", None))
            elif node.evidence is not None:
                raise FormatError(f"internal node {node.id!r} must not carry evidence")

    # -- accessors -------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r}") from None

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        depths = {self.root: 0}
        stack = [self.root]
        best = 0
        while stack:
            cur = stack.pop()
            for child in self.nodes[cur].children:
                depths[child] = depths[cur] + 1
                best = max(best, depths[child])
                stack.append(child)
        return best

    def node_depth(self, node_id: str) -> int:
        return len(self.ancestors(node_id))

    def ancestors(self, node_id: str) -> list[str]:
        """Proper ancestors, nearest first, ending at the root."""
        out = []
        cur = self.node(node_id).parent
        while cur is not None:
            out.append(cur)
            cur = self.nodes[cur].parent
        return out

    def leaf_order(self) -> list[str]:
        """Leaves in left-to-right frontier order."""
        out = []
        stack = [self.root]
        while stack:
            cur = stack.pop()
            kids = self.nodes[cur].children
            if not kids:
                out.append(cur)
            else:
                stack.extend(reversed(kids))
        return out

    def internal_ids(self) -> list[str]:
        return [n.id for n in self.nodes.values() if n.children]

    def post_order(self) -> list[str]:
        """Children before parents (iterative; safe on deep chains)."""
        out = []
        stack: list[tuple[str, bool]] = [(self.root, False)]
        while stack:
            cur, expanded = stack.pop()
            if expanded:
                out.append(cur)
            else:
                stack.append((cur, True))
                for child in reversed(self.nodes[cur].children):
                    stack.append((child, False))
        return out

    def is_complete_binary(self) -> bool:
        return all(len(n.children) in (0, 2) for n in self.nodes.values())

    def families(self) -> list[tuple]:
        """Per node, (id, domain, parent ids, prior or conditional table,
        evidence or None), the form BruteForceOracle enumerates."""
        return [(nid, n.domain, () if n.parent is None else (n.parent,),
                 n.prior if n.parent is None else n.cpt, n.evidence)
                for nid, n in self.nodes.items()]

    def copy(self) -> "CausalTree":
        """A clone with nodes and child lists of its own over this tree's
        tables, which nothing writes in place: set_evidence replaces a
        leaf's vector."""
        # positional: by keyword, making the Nodes took 1.8x as long (timeit, CPython 3.11)
        return CausalTree.unchecked(
            {nid: Node(nid, n.domain, n.parent, list(n.children), n.cpt, n.prior, n.evidence)
             for nid, n in self.nodes.items()}, self.root)


# -- construction from a network description -----------------------------------

def read_entries(spec, key: str, keys: frozenset):
    """The entries of a {key: [...]} network description, each checked as
    it is read: the one reader behind build_tree and build_polytree.

    spec has no top-level key but key, and each entry is a dict with no key
    outside keys (so that silent typos in network files cannot change
    semantics), an "id" and a "domain".  Each builder checks its own link
    field; ids, domains and tables are checked once the whole network is
    known (index_by_id, check_domains, store_family_table).
    """
    if not isinstance(spec, dict) or key not in spec:
        raise FormatError(f'network description must be a dict with a "{key}" list')
    extra = set(spec) - {key}
    if extra:
        raise FormatError(f"unknown top-level keys: {sorted(extra)}")
    if not isinstance(spec[key], list):
        raise FormatError(f'"{key}" must be a list')
    for raw in spec[key]:
        if not isinstance(raw, dict):
            raise FormatError(f'each entry of "{key}" must be an object')
        if not keys.issuperset(raw):
            raise FormatError(f"entry {raw.get('id')!r} has unknown keys: "
                              f"{sorted(set(raw) - keys)}")
        if "id" not in raw or "domain" not in raw:
            raise FormatError(f"entry {raw.get('id')!r} needs \"id\" and \"domain\"")
        yield raw


def index_by_id(entries: list) -> dict:
    """Nodes or variables by id, in declaration order: the id rule of
    CausalTree and Polytree.  Every id is a non-empty string, and
    DuplicateId names the first id declared twice."""
    by_id = {}
    for entry in entries:
        if not isinstance(entry.id, str) or not entry.id:
            raise FormatError(f"id {entry.id!r} is not a non-empty string")
        if entry.id in by_id:
            raise DuplicateId(f"id {entry.id!r} declared twice")
        by_id[entry.id] = entry
    return by_id


def check_domains(entries) -> None:
    """Every domain a positive integer (True is not 1), checked before any
    table uses one."""
    for entry in entries:
        if isinstance(entry.domain, bool) or not isinstance(entry.domain, int) \
                or entry.domain < 1:
            raise FormatError(f"{entry.id!r}: domain must be a positive integer, "
                              f"got {entry.domain!r}")


def store_family_table(entry, record, rows: int | None) -> None:
    """Record a node's or variable's own table for validate_tables.  A
    parentless entry (rows None) carries a prior and no conditional table;
    any other carries a (rows, domain) conditional table and no prior."""
    if rows is None:
        if entry.cpt is not None or entry.prior is None:
            raise FormatError(f"parentless {entry.id!r} must carry a prior and no "
                              "conditional table")
        record((entry, "prior", None))
    else:
        if entry.prior is not None or entry.cpt is None:
            raise FormatError(f"{entry.id!r} has parents, so it must carry a conditional "
                              "table and no prior")
        record((entry, "cpt", rows))


@collector_paused
def build_tree(spec: dict) -> CausalTree:
    """Build and validate a tree from a {"nodes": [...]} description
    (read_entries); a node's "parent" is a node id or absent.

    Child order is the declaration order of the child nodes.
    """
    nodes = []
    for raw in read_entries(spec, "nodes", _NODE_KEYS):
        parent = raw.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise FormatError(f"parent of {raw['id']!r} must be a node id string")
        # positional: by keyword, making the Nodes took 1.8x as long (timeit, CPython 3.11)
        nodes.append(Node(raw["id"], raw["domain"], parent, [], raw.get("cpt"),
                          raw.get("prior"), raw.get("evidence")))
    return CausalTree(nodes)


def tree_to_spec(tree: CausalTree) -> dict:
    """Serialize to the network-description format (inverse of build_tree).

    Nodes are emitted in declaration order, from which every tree derives
    its child lists, so the rebuilt tree has the same sibling order.
    """
    out = []
    for node in tree.nodes.values():
        entry: dict = {"id": node.id, "domain": node.domain, "parent": node.parent}
        if node.cpt is not None:
            entry["cpt"] = node.cpt.tolist()
        if node.prior is not None:
            entry["prior"] = node.prior.tolist()
        if node.evidence is not None:
            entry["evidence"] = node.evidence.tolist()
        out.append(entry)
    return {"nodes": out}


def read_json(path):
    """The parsed contents of a network file; FormatError if it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def load_network(path) -> CausalTree:
    return build_tree(read_json(path))


def save_network(tree: CausalTree, path) -> None:
    with open(path, "w") as fh:
        json.dump(tree_to_spec(tree), fh, indent=1)


# -- evidence -------------------------------------------------------------------

def set_evidence(tree: CausalTree, leaf_id: str, evidence) -> CausalTree:
    """Replace the likelihood vector of a leaf (in place) with a checked copy
    of evidence, an Evidence or an array.  Evidence the check rejects is
    checked again under the leaf's name, so the error names leaf_id; valid
    evidence is checked once, without formatting that name."""
    node = tree.node(leaf_id)
    if node.children:
        raise NotALeaf(f"{leaf_id!r} is not a leaf")
    try:
        node.evidence = check_likelihood(evidence, node.domain)
    except LogbelError:
        check_likelihood(evidence, node.domain, what=f"evidence of {leaf_id!r}")
        raise
    return tree


# -- normalization to complete binary form ---------------------------------------

def shared_table(tables: dict, make, *args) -> np.ndarray:
    """make(*args), made once per (make, args) in tables and read-only:
    one constant table per shape within a build, shared by every node that
    needs it."""
    key = (make, args)
    table = tables.get(key)
    if table is None:
        table = tables[key] = make(*args)
        table.flags.writeable = False
    return table


def make_complete_binary(tree: CausalTree) -> list[str]:
    """Rewrite tree, whose nodes and child lists are its own, into complete
    binary form in place; return the ids of its identity edges, in the
    order they were made: the splitters and the lone root.

    A node with m > 2 children keeps its first child and hands the rest to
    a caterpillar of m - 2 dummy splitters, each keeping one child and
    passing the rest down, with the identity over the parent's domain as
    edge matrix.  A node with one child gains a unit-domain evidence leaf
    (likelihood [1], all-ones column edge matrix).  A lone root stays a
    leaf, with its evidence, under a new root that takes its prior through
    an identity edge and has a unit leaf besides.  Original ids and beliefs
    are kept.  Nodes are visited last to first; the dummies, named kind<k>
    from one counter skipping ids taken, are declared after them and share
    one read-only table per shape.
    """
    nodes, counter, constants = tree.nodes, itertools.count(), {}
    aux, identity_ids, unit_evidence = [], [], shared_table(constants, np.ones, 1)

    def fresh(kind: str) -> str:
        while (cand := f"{kind}{next(counter)}") in nodes:
            pass
        return cand

    def unit_leaf(node: Node) -> None:
        unit = Node(fresh("unit"), 1, node.id, [],
                    shared_table(constants, np.ones, (node.domain, 1)), None, unit_evidence)
        # two slots: an append to a one-item list display reserves eight
        node.children = [node.children[0], unit.id]
        aux.append(unit)

    for node in reversed(nodes.values()):
        kids = node.children
        if len(kids) == 1:
            unit_leaf(node)
        elif len(kids) > 2:
            eye = shared_table(constants, np.eye, node.domain)
            splits = [fresh("split") for _ in kids[2:]]
            # each holder keeps one kid and passes the rest to the next splitter
            for holder, split, kid, second in zip([node.id, *splits], splits, kids[1:],
                                                  [*splits[1:], kids[-1]]):
                aux.append(Node(split, node.domain, holder, [kid, second], eye))
                nodes[kid].parent = split
            nodes[kids[-1]].parent = splits[-1]
            node.children = [kids[0], splits[0]]
            identity_ids += splits
    if len(nodes) == 1:
        lone = nodes[tree.root]
        root = Node(fresh("root"), lone.domain, None, [lone.id], None, lone.prior)
        aux.append(root)
        unit_leaf(root)
        lone.parent, lone.cpt, lone.prior = root.id, np.eye(lone.domain), None
        lone.evidence = np.ones(lone.domain) if lone.evidence is None else lone.evidence
        identity_ids.append(lone.id)
        tree.root = root.id
    for node in aux:
        nodes[node.id] = node
    return identity_ids


@collector_paused
def normalize_tree(tree: CausalTree) -> tuple[CausalTree, list[str]]:
    """Return an equivalent complete binary tree and the ids of its identity
    edges: the one form every tree engine runs on.  A tree that is not
    complete binary already is copied once (CausalTree.copy), and the copy
    rewritten in place by make_complete_binary: the caller's tree is left
    as it is, and no child list is derived again.
    """
    if tree.is_complete_binary() and tree.n > 1:
        return tree, []
    out = tree.copy()
    return out, make_complete_binary(out)


def _owned_normal_form(tree: CausalTree) -> tuple[CausalTree, list[str]]:
    """normalize_tree's output for an engine that writes evidence into its
    tree: a tree normalize_tree returns unchanged is copied, so the
    caller's tree stays as it is."""
    normalized, identity_ids = normalize_tree(tree)
    return (normalized.copy() if normalized is tree else normalized), identity_ids


# -- joint-enumeration oracle ------------------------------------------------------

class BruteForceOracle:
    """Exact marginals by enumerating the joint: the test oracle for trees
    and polytrees alike, behind the engines' update/query interface.

    network.families() lists, per variable in axis order, (id, domain,
    parent ids, table, likelihood or None); the table has one axis per
    parent, then the variable's own.  update stores a checked likelihood
    for any variable; query folds each likelihood into its own table and
    broadcasts that table once over the joint, which grows from a scalar.
    An unknown id raises what the engines of the network's kind raise:
    UnknownNode on a tree, UnknownVariable on a polytree.
    """

    def __init__(self, network, *, state_cap: int = DEFAULT_STATE_CAP):
        self.families = network.families()
        self.domains = {fam[0]: fam[1] for fam in self.families}
        self.evidence = {fam[0]: fam[4] for fam in self.families if fam[4] is not None}
        self.state_cap = state_cap
        self._unknown = (UnknownNode, "node") if isinstance(network, CausalTree) else (
            UnknownVariable, "variable")

    def _domain(self, var_id: str) -> int:
        try:
            return self.domains[var_id]
        except KeyError:
            error, noun = self._unknown
            raise error(f"no {noun} {var_id!r}") from None

    def update(self, var_id: str, evidence) -> None:
        self.evidence[var_id] = check_likelihood(
            evidence, self._domain(var_id), what=f"evidence of {var_id!r}")

    def query(self, var_id: str) -> Belief:
        self._domain(var_id)
        states = 1
        for domain in self.domains.values():  # checked before anything is allocated
            states *= domain
            if states > self.state_cap:
                raise StateSpaceTooLarge(f"joint has more than {self.state_cap} states; "
                                         "raise state_cap to force enumeration")
        axis = {vid: i for i, vid in enumerate(self.domains)}
        dims = list(self.domains.values())
        weight = 1.0
        for vid, _, parents, table, _ in self.families:
            if vid in self.evidence:
                table = table * self.evidence[vid]
            axes = [axis[p] for p in parents] + [axis[vid]]
            shape = [1] * len(dims)
            for ax in axes:
                shape[ax] = dims[ax]
            weight = weight * np.transpose(table, np.argsort(axes)).reshape(shape)
        keep = axis[var_id]
        raw = weight.sum(axis=tuple(ax for ax in range(len(dims)) if ax != keep))
        return normalize_belief(raw, node=var_id)


def brute_force_marginal(tree: CausalTree, node_id: str, *,
                         state_cap: int = DEFAULT_STATE_CAP) -> Belief:
    """Exact marginal by enumerating the full joint (BruteForceOracle): prior
    at the root, one conditional factor per edge, one likelihood factor per
    leaf with evidence.  Works on any valid tree, normalized or not.
    """
    return BruteForceOracle(tree, state_cap=state_cap).query(node_id)

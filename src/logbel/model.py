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
import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import (
    AllZeroLikelihood,
    Cycle,
    DimensionMismatch,
    DuplicateId,
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
TABLE_CHUNK = 256          # tables stacked per batched check (TableBatch)
CHUNK_ENTRIES = 1 << 16    # and at most this many entries, unless one table has more
SHORT_LIKELIHOOD = 24      # all/max over a list beat numpy min/max to here (timeit, numpy 2.4.6)

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


def _float_array(values, what: str, *, copy: bool = True) -> np.ndarray:
    """values as a float64 array, a new one unless copy is false.  The one
    conversion rule of every table and vector check: FormatError naming
    what when an entry is not numeric (strings, objects, ragged lists)."""
    try:
        return np.array(values, dtype=np.float64) if copy else np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise FormatError(f"{what} is not a numeric array") from None


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
    """check_cpt's valid case, for a table or a stacked chunk of tables:
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
    # One min and one max, or a short vector's sum and min, decide the valid
    # case: a sum is NaN or infinite if an entry is, and NaN fails every
    # comparison.  The ordered checks name the fault, and accept a finite
    # vector whose sum overflows.
    if vec.ndim == 1 and vec.shape[0] and (domain is None or vec.shape[0] == domain):
        if vec.shape[0] <= SHORT_LIKELIHOOD:
            vals = vec.tolist()
            total = sum(vals)
            if total == total and total < math.inf and min(vals) >= 0.0 and total > 0.0:
                return vec
        elif vec.min() >= 0.0 and 0.0 < vec.max() < np.inf:
            return vec
    vec = as_prob_vector(vec, what=what)
    if domain is not None and vec.shape[0] != domain:
        raise DimensionMismatch(f"{what} has length {vec.shape[0]}, domain is {domain}")
    if not np.any(vec > 0.0):
        raise AllZeroLikelihood(f"{what} has no positive entry")
    return vec


def check_prior(values, domain: int, owner: str) -> np.ndarray:
    """Return a prior as a new float64 vector: finite, nonnegative, of
    length domain and summing to 1 within STOCHASTIC_TOL."""
    what = f"prior of {owner!r}"
    prior = as_prob_vector(values, what=what)
    if prior.shape[0] != domain:
        raise DimensionMismatch(f"{what} has length {prior.shape[0]}, domain is {domain}")
    if abs(prior.sum() - 1.0) > STOCHASTIC_TOL:
        raise RowNotStochastic(owner, "prior", f"{what} does not sum to 1")
    return prior


def check_cpt(values, shape: tuple[int, int], owner: str) -> np.ndarray:
    """Return a conditional table as a float64 array of the given shape
    whose rows are finite, nonnegative and sum to 1 within STOCHASTIC_TOL;
    the first bad row is located only to report it.
    """
    what = f"conditional table of {owner!r}"
    cpt = _float_array(values, what, copy=False)
    if cpt.shape != shape:
        raise DimensionMismatch(f"{what} has shape {cpt.shape}, expected {shape}")
    if not _rows_stochastic(cpt):
        deviation = np.abs(cpt.sum(axis=1) - 1.0)
        bad = ~(deviation <= STOCHASTIC_TOL) | np.any(cpt < 0.0, axis=1)
        raise RowNotStochastic(owner, int(np.argmax(bad)))
    return cpt


class TableBatch:
    """Deferred table checks.

    cpt, prior and likelihood stand in for check_cpt, check_prior and
    check_likelihood: each converts its table as they do and checks its
    shape at once (raising DimensionMismatch), and valid() then decides
    their value checks together.  Tables of one shape are stacked at most
    TABLE_CHUNK at a time (fewer when large, to bound the scratch copy),
    and the single checks' reductions, taken along the last axis, decide a
    whole chunk.  A failure is named by rerunning the single checks.
    """

    def __init__(self):
        self.tables: list[np.ndarray] = []
        self.likelihoods: list[np.ndarray] = []

    def cpt(self, values, shape: tuple[int, int], owner: str) -> np.ndarray:
        cpt = np.asarray(values, dtype=np.float64)
        self.tables.append(_shaped(cpt, shape, owner))
        return cpt

    def prior(self, values, domain: int, owner: str) -> np.ndarray:
        prior = np.array(values, dtype=np.float64)
        self.tables.append(_shaped(prior, (domain,), owner)[None])  # a one-row table
        return prior

    def likelihood(self, values, domain: int, *, what: str) -> np.ndarray:
        vec = np.array(values, dtype=np.float64)
        self.likelihoods.append(_shaped(vec, (domain,), what))
        return vec

    def valid(self) -> bool:
        for arrays, chunk_valid in ((self.tables, _rows_stochastic),
                                    (self.likelihoods, _rows_positive)):
            groups: dict[tuple, list[np.ndarray]] = {}
            for arr in arrays:
                groups.setdefault(arr.shape, []).append(arr)
            for shape, group in groups.items():
                step = max(1, min(TABLE_CHUNK, CHUNK_ENTRIES // math.prod(shape)))
                for start in range(0, len(group), step):
                    if not chunk_valid(np.stack(group[start:start + step])):
                        return False
        return True


def _shaped(arr: np.ndarray, shape: tuple, owner: str) -> np.ndarray:
    if arr.shape != shape:
        raise DimensionMismatch(f"table of {owner!r} has shape {arr.shape}, expected {shape}")
    return arr


def _rows_positive(chunk: np.ndarray) -> bool:
    """check_likelihood's valid case, for every row of the chunk."""
    peak = chunk.max(axis=-1)
    return bool(chunk.min() >= 0.0 and peak.min() > 0.0 and peak.max() < np.inf)


_SINGLE_CHECKS = SimpleNamespace(cpt=check_cpt, prior=check_prior, likelihood=check_likelihood)


def validate_tables(store) -> None:
    """Run store(checks), which converts and stores every table of a network
    through checks.cpt, checks.prior and checks.likelihood, once.

    The first pass takes a TableBatch's stand-ins, which decides the value
    checks in shape batches.  When anything fails, store reruns with the
    single checks; that ordered pass alone raises, so the error names the
    first bad table in declaration order.
    """
    batch = TableBatch()
    try:
        store(batch)
        if batch.valid():
            return
    except (LogbelError, TypeError, ValueError):
        pass
    store(_SINGLE_CHECKS)


@dataclass(frozen=True)
class Belief:
    """A normalized distribution together with the constant that normalized it.

    dist sums to one; normalizer is the positive scalar the raw product was
    multiplied by (1 / total mass).
    """

    dist: np.ndarray
    normalizer: float


def normalize_belief(raw: np.ndarray, *, node: str = "?") -> Belief:
    total = float(raw.sum())
    if not total > 0.0:
        raise ImpossibleEvidence(f"total probability mass is zero at node {node!r}")
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


@dataclass
class Node:
    id: str
    domain: int
    parent: str | None = None
    children: list[str] = field(default_factory=list)  # CausalTree derives it
    cpt: np.ndarray | None = None       # (parent domain, own domain)
    prior: np.ndarray | None = None     # root only
    evidence: np.ndarray | None = None  # leaves only


class CausalTree:
    """Validated rooted tree.  Immutable after construction except through
    set_evidence."""

    def __init__(self, nodes: list[Node]):
        self.nodes: dict[str, Node] = index_by_id(nodes)
        self._derive_children(nodes)
        self.root = self._find_root()
        self._check_reachable()
        check_domains(nodes)
        validate_tables(self._store_tables)

    @classmethod
    def unchecked(cls, nodes: list[Node], root: str) -> "CausalTree":
        """A tree over nodes, children derived from parent links, checking
        nothing else: for builders whose tables are valid by construction.
        normalize_tree's output holds a validated tree's tables and the
        dummies' constant ones; compile_join_tree's clique tree holds a
        validated Polytree's family tables, not all rows stochastic, which
        the test suite compares bit for bit with a reference."""
        tree = cls.__new__(cls)
        tree.nodes = {node.id: node for node in nodes}
        tree.root = root
        tree._derive_children(nodes)
        return tree

    # -- construction checks --------------------------------------------------

    def _derive_children(self, nodes: list[Node]) -> None:
        """Children from parent links; declaration order is sibling order."""
        for node in nodes:
            if node.children:
                raise FormatError(
                    f"node {node.id!r} arrives with children; they come from parent links")
        for node in nodes:
            if node.parent is not None:
                if node.parent not in self.nodes:
                    raise UnknownNode(f"{node.id!r} references unknown parent {node.parent!r}")
                self.nodes[node.parent].children.append(node.id)

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

    def _store_tables(self, checks) -> None:
        for node in self.nodes.values():
            is_root = node.parent is None
            store_family_table(node, checks, None if is_root else self.nodes[node.parent].domain)
            if not node.children:
                if node.evidence is None:
                    if is_root:
                        continue  # a bare single-node tree carries only its prior
                    raise LeafWithoutEvidence(f"leaf {node.id!r} has no evidence")
                node.evidence = checks.likelihood(
                    node.evidence, node.domain, what=f"evidence of {node.id!r}")
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
        """A clone with nodes of its own over this tree's tables, which
        nothing writes in place: set_evidence replaces a leaf's vector."""
        return CausalTree.unchecked(
            [Node(id=node.id, domain=node.domain, parent=node.parent, cpt=node.cpt,
                  prior=node.prior, evidence=node.evidence) for node in self.nodes.values()],
            self.root)


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


def store_family_table(entry, checks, rows: int | None) -> None:
    """Convert and store a node's or variable's own table through checks
    (validate_tables' stand-ins).  A parentless entry (rows None) carries a
    prior and no conditional table; any other carries a (rows, domain)
    conditional table and no prior."""
    if rows is None:
        if entry.cpt is not None or entry.prior is None:
            raise FormatError(f"parentless {entry.id!r} must carry a prior and no "
                              "conditional table")
        entry.prior = checks.prior(entry.prior, entry.domain, entry.id)
    else:
        if entry.prior is not None or entry.cpt is None:
            raise FormatError(f"{entry.id!r} has parents, so it must carry a conditional "
                              "table and no prior")
        entry.cpt = checks.cpt(entry.cpt, (rows, entry.domain), entry.id)


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
        nodes.append(Node(id=raw["id"], domain=raw["domain"], parent=parent,
                          cpt=raw.get("cpt"), prior=raw.get("prior"),
                          evidence=raw.get("evidence")))
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
    of evidence, an Evidence or an array."""
    node = tree.node(leaf_id)
    if node.children:
        raise NotALeaf(f"{leaf_id!r} is not a leaf")
    node.evidence = check_likelihood(evidence, node.domain, what=f"evidence of {leaf_id!r}")
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


@collector_paused
def normalize_tree(tree: CausalTree) -> tuple[CausalTree, list[str]]:
    """Return an equivalent complete binary tree and the ids of its identity
    edges: the one form every tree engine runs on.

    A node with m > 2 children keeps its first child and hands the rest to
    a caterpillar of m - 2 dummy splitters, each keeping one child and
    passing the rest down, with the identity over the parent's domain as
    edge matrix; the chain is emitted in one pass.  Nodes with exactly one
    child gain a virtual unit-domain evidence leaf (likelihood [1],
    all-ones column edge matrix).  A lone root stays a leaf, with its
    evidence, under a new root that takes its prior through an identity
    edge and has a unit leaf besides, so its evidence is updated as any
    leaf's.  Original ids are preserved and their beliefs are unchanged.
    The identity ids are the splitters and the lone root, in the order
    they were made; a tree that is already complete binary has none.

    The dummies are declared after the original nodes, so every holder's
    kept child comes first.  tree is a validated CausalTree and the
    dummies' tables are constant, so the result is not checked again.  Its
    nodes share tree's tables, which nothing writes in place, and the
    dummies share one read-only table per shape: the unit leaves' column
    and likelihood, and the splitters' identity.
    """
    if tree.is_complete_binary() and tree.n > 1:
        return tree, []

    parent = {nid: n.parent for nid, n in tree.nodes.items()}
    aux: list[Node] = []
    identity_ids: list[str] = []
    constants: dict[tuple, np.ndarray] = {}

    counter = 0

    def fresh(kind: str) -> str:
        nonlocal counter
        while True:
            cand = f"{kind}{counter}"
            counter += 1
            if cand not in tree.nodes:
                return cand

    for cur in reversed(tree.nodes):
        kids = tree.nodes[cur].children
        k = tree.nodes[cur].domain
        if len(kids) == 1:
            aux.append(Node(id=fresh("unit"), domain=1, parent=cur,
                            cpt=shared_table(constants, np.ones, (k, 1)),
                            evidence=shared_table(constants, np.ones, 1)))
        elif len(kids) > 2:
            holder = cur  # keeps the previous kid, passes the rest to a splitter
            eye = shared_table(constants, np.eye, k)
            for kid in kids[1:-1]:
                split = fresh("split")
                aux.append(Node(id=split, domain=k, parent=holder, cpt=eye))
                identity_ids.append(split)
                parent[kid] = split
                holder = split
            parent[kids[-1]] = holder

    nodes = [Node(id=node.id, domain=node.domain, parent=parent[node.id],
                  cpt=node.cpt, prior=node.prior, evidence=node.evidence)
             for node in tree.nodes.values()]
    root = tree.root
    if tree.n == 1:
        lone = nodes[0]
        root = fresh("root")
        aux.append(Node(id=root, domain=lone.domain, prior=lone.prior))
        aux.append(Node(id=fresh("unit"), domain=1, parent=root,
                        cpt=shared_table(constants, np.ones, (lone.domain, 1)),
                        evidence=shared_table(constants, np.ones, 1)))
        lone.parent, lone.cpt, lone.prior = root, np.eye(lone.domain), None
        identity_ids.append(lone.id)
        if lone.evidence is None:
            lone.evidence = np.ones(lone.domain)
    return CausalTree.unchecked(nodes + aux, root), identity_ids


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

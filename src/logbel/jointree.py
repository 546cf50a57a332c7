"""Polytrees compiled into join trees that any tree engine answers.

A polytree's moral graph is chordal and each of its maximal cliques is a
family {v} union parents(v), so the join tree has one clique per variable,
one edge per polytree edge, and singleton separators.  The join tree is
itself a causal tree over clique-valued variables whose tables are the
polytree's own family tables.  build_engine hands it to a tree engine, the
contraction index by default, with each edge in a coefficient form
contraction.py defines: an edge table factored as (projection J) .
(separator table R) on cliques where that saves a numpy call, keeping
their rake updates O(K L^2) instead of O(K^3), and identity edges as
Identity, which cost nothing.  Every polytree update and query is one call
of that engine's update or query on the compiled tree.

Clique states use mixed-radix indexing with the clique's own variable most
significant, then its parents in declaration order.  CPT rows likewise run
over joint parent assignments with the first parent most significant.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .contraction import (
    FactoredMatrix,
    Identity,
    belief_query,  # noqa: F401  (the traced benchmark wraps jointree.belief_query by name)
    contract,
    saves_a_call,
    update_evidence,  # noqa: F401  (and jointree.update_evidence)
)
from .counters import OpCounters
from .errors import (
    DimensionOverflow,
    FloatRangeError,
    FormatError,
    ImpossibleEvidence,
    LogbelError,
    NotAPolytree,
    UnknownVariable,
)
from .model import (
    Belief,
    BruteForceOracle,
    CausalTree,
    Node,
    build_tree,  # noqa: F401  (the traced benchmark wraps jointree.build_tree by name)
    check_domains,
    check_likelihood,
    collector_paused,
    index_by_id,
    make_complete_binary,
    normalize_tree,  # noqa: F401  (the traced benchmark wraps jointree.normalize_tree by name)
    read_entries,
    read_json,
    shared_table,
    store_family_table,
    validate_tables,
)

DEFAULT_CLIQUE_CAP = 4096

_VAR_KEYS = frozenset({"id", "domain", "parents", "cpt", "prior"})


@dataclass(slots=True)
class Variable:
    id: str
    domain: int
    parents: list[str]
    cpt: np.ndarray | None     # (prod parent domains) x domain
    prior: np.ndarray | None   # parentless variables only


class Polytree:
    """Singly connected Bayesian network; parents are ordered per variable.

    Construction applies the input rules model.py shares with CausalTree
    and proves the skeleton a tree once (_check_structure); the topological
    order, the cliques and the join tree rely on that and check nothing
    again.  children lists each variable's children in declaration order;
    with the parent lists it is the skeleton the join tree is rooted on.
    """

    def __init__(self, variables: list[Variable]):
        self.variables: dict[str, Variable] = index_by_id(variables)
        if not self.variables:
            raise FormatError("polytree has no variables")
        self.children: dict[str, list[str]] = {vid: [] for vid in self.variables}
        self._check_structure()
        check_domains(variables)
        validate_tables(self._store_tables)

    def _check_structure(self) -> None:
        """No repeated parent and no self-parent, so the skeleton is a
        multigraph without loops, and with n - 1 edges and connected it is
        a tree: no edge repeats or is reversed, and no cycle is directed."""
        edges = 0
        for var in self.variables.values():
            if len(set(var.parents)) != len(var.parents):
                raise FormatError(f"variable {var.id!r} repeats a parent")
            for parent in var.parents:
                if parent not in self.variables:
                    raise UnknownVariable(f"variable {var.id!r} has unknown parent {parent!r}")
                if parent == var.id:
                    raise NotAPolytree(f"variable {var.id!r} is its own parent")
                self.children[parent].append(var.id)
            edges += len(var.parents)
        n = len(self.variables)
        if edges != n - 1:
            raise NotAPolytree(f"{edges} edges over {n} variables; a polytree needs exactly n - 1")
        start = next(iter(self.variables))
        seen = set()
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.children[cur])
            stack.extend(self.variables[cur].parents)
        if len(seen) != n:
            raise NotAPolytree(f"underlying graph is disconnected: "
                               f"{sorted(set(self.variables) - seen)} not connected to {start!r}")

    def _store_tables(self, record) -> None:
        for var in self.variables.values():
            rows = math.prod(self.variables[p].domain for p in var.parents) if var.parents else None
            store_family_table(var, record, rows)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def max_parents(self) -> int:
        return max(len(v.parents) for v in self.variables.values())

    def topological_order(self) -> list[str]:
        """Parents before children, by Kahn's sort, complete because
        _check_structure proved the skeleton a tree, so no cycle is
        directed."""
        order: list[str] = []
        pending = {vid: len(v.parents) for vid, v in self.variables.items()}
        ready = [vid for vid, deg in pending.items() if deg == 0]
        while ready:
            cur = ready.pop()
            order.append(cur)
            for child in self.children[cur]:
                pending[child] -= 1
                if pending[child] == 0:
                    ready.append(child)
        return order

    def families(self) -> list[tuple]:
        """Per variable, (id, domain, parent ids, prior or conditional table
        with one axis per parent, None), the form BruteForceOracle
        enumerates; a polytree carries no evidence of its own."""
        out = []
        for vid, var in self.variables.items():
            dims = [self.variables[p].domain for p in var.parents]
            table = var.cpt.reshape(dims + [var.domain]) if var.parents else var.prior
            out.append((vid, var.domain, var.parents, table, None))
        return out


@collector_paused
def build_polytree(spec: dict) -> Polytree:
    """Build and validate a polytree from a {"variables": [...]} description
    (model.read_entries); a variable's "parents" is a list of variable ids,
    absent for none."""
    variables = []
    for raw in read_entries(spec, "variables", _VAR_KEYS):
        parents = raw.get("parents", [])
        if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
            raise FormatError(f"parents of {raw['id']!r} must be a list of variable id strings")
        variables.append(Variable(raw["id"], raw["domain"], list(parents), raw.get("cpt"),
                                  raw.get("prior")))
    return Polytree(variables)


def load_polytree(path) -> Polytree:
    return build_polytree(read_json(path))


# -- cliques and join tree --------------------------------------------------------


@dataclass(slots=True)
class Clique:
    """Family clique of one variable: members [variable, *parents].

    Mixed-radix state indexing, first member most significant.
    """

    variable: str
    members: list[str]
    domains: list[int]
    K: int = field(init=False)

    def __post_init__(self):
        self.K = math.prod(self.domains)

    def digit(self, state: int, member: str) -> int:
        i = self.members.index(member)
        return (state // math.prod(self.domains[i + 1:])) % self.domains[i]

    def projection(self, member: str) -> np.ndarray:
        """K x k_member 0/1 matrix picking the member's coordinate; exactly
        one 1 per row."""
        return _projection(tuple(self.domains), self.members.index(member))

    def member_belief(self, member: str, clique_bel: Belief) -> Belief:
        """A member's marginal from a belief over the clique's states: the
        sum over the other members' axes (clique states are in numpy's C
        order).  Only polytree_query's via route takes it; a variable's own
        marginal is its indicator leaf's belief."""
        i = self.members.index(member)
        others = tuple(j for j in range(len(self.domains)) if j != i)
        return Belief(np.add.reduce(clique_bel.dist.reshape(self.domains), axis=others),
                      clique_bel.normalizer)


def _projection(domains: tuple, i: int) -> np.ndarray:
    """Clique.projection of member i of a clique over domains."""
    states = np.arange(math.prod(domains))
    out = np.zeros((len(states), domains[i]))
    out[states, (states // math.prod(domains[i + 1:])) % domains[i]] = 1.0
    return out


def extract_cliques(pt: Polytree) -> dict[str, Clique]:
    """One family clique {v} union parents(v) per variable, unchecked.

    Polytree() has already checked n - 1 directed edges, none repeated or
    a self-loop, and a connected skeleton, so the skeleton is a tree.
    Theorem: the moral graph of such a network is chordal and each of its
    maximal cliques is a family.  Moralizing only joins parents of a common
    child; two families share at most one variable and are glued along the
    skeleton tree, so every family is a block of the moral graph, and a
    graph whose blocks are cliques is chordal.  tests/test_jointree.py
    checks the theorem by enumeration on small random polytrees.
    """
    cliques = {}
    for vid, var in pt.variables.items():
        members = [vid] + list(var.parents)
        cliques[vid] = Clique(vid, members, [pt.variables[m].domain for m in members])
    return cliques


@dataclass
class JoinTree:
    """Clique tree with one edge per polytree edge and singleton separators."""

    cliques: dict[str, Clique]
    root: str                                  # variable id of the root clique
    children: dict[str, list[tuple[str, str]]]  # clique -> [(child clique, separator var)]
    parent: dict[str, tuple[str, str] | None]   # clique -> (parent clique, separator var)


def build_join_tree(cliques: dict[str, Clique], pt: Polytree,
                    root_var: str | None = None) -> JoinTree:
    """Root the clique graph: one edge per polytree edge p -> v, between the
    cliques of p and v, with separator {p}.

    The clique graph mirrors the polytree skeleton, which Polytree() proved
    a tree, so it is a connected tree; the cliques of an edge p -> v share
    exactly {p}, since a shared parent of p and v would close a skeleton
    cycle; and a variable's cliques (its own and its children's) form a
    star around its own clique, so running intersection holds.  None of
    this is re-checked (acceptance criterion 08 checks it by enumeration);
    the skeleton is the polytree's own children and parents, and only
    root_var, the caller's choice, is checked.
    """
    if root_var is None:
        root_var = next(v for v in pt.variables if not pt.variables[v].parents)
    if root_var not in cliques:
        raise UnknownVariable(f"no variable {root_var!r}")

    children: dict[str, list[tuple[str, str]]] = {v: [] for v in cliques}
    parent: dict[str, tuple[str, str] | None] = {root_var: None}
    stack = [root_var]
    while stack:
        cur = stack.pop()
        # polytree edges cur -> c (separator {cur}) and p -> cur (separator {p})
        neighbours = [(c, cur) for c in pt.children[cur]] + \
            [(p, p) for p in pt.variables[cur].parents]
        for nxt, sep in neighbours:
            if nxt in parent:
                continue
            parent[nxt] = (cur, sep)
            children[cur].append((nxt, sep))
            stack.append(nxt)
    for order in children.values():
        order.sort()
    return JoinTree(cliques=cliques, root=root_var, children=children, parent=parent)


def prior_marginals(pt: Polytree) -> dict[str, np.ndarray]:
    """Evidence-free marginal of every variable, one topological pass.

    Parents of a polytree node are marginally independent, so the joint
    parent distribution is the Kronecker product of parent marginals.
    """
    marginals: dict[str, np.ndarray] = {}
    for vid in pt.topological_order():
        var = pt.variables[vid]
        if not var.parents:
            marginals[vid] = var.prior.copy()
            continue
        joint = marginals[var.parents[0]]
        for p in var.parents[1:]:
            joint = np.outer(joint, marginals[p]).ravel()
        marginals[vid] = var.cpt.T @ joint
    return marginals


# -- compilation to a causal tree --------------------------------------------------


def _clique_tables(jt: JoinTree, pt: Polytree) -> dict[str, tuple]:
    """Per clique variable v, (edge table, prior, edge form, (projection,
    likelihood, form)): the tables of its clique node C:v, then of its
    indicator leaf E:v.

    C:v's edge table is J . R, J the parent clique's projection on the
    separator s and R[s_value, state] = [state agrees with s_value] .
    phi_v(state), its form FactoredMatrix(J, R) where saves_a_call; phi_v
    is P(v | parents), or v's prior, over the clique's states (own variable
    most significant, as in Clique).  The root clique has phi_v as its
    prior instead, so each family table sits on one edge or on the root
    prior and the tables' product over consistent clique states is the
    joint (Lauritzen & Spiegelhalter 1988).  E:v has the projection on v,
    the all-ones likelihood and, where that projection is one, Identity.

    Cliques are stacked by shape and separator position, theirs and their
    parent's: one broadcast product and one np.matmul per stack.  J has one
    1 per row, so each entry of J . R is an entry of R, exactly.
    """
    shared: dict[tuple, np.ndarray] = {}
    stacks: dict[tuple, list[str]] = {}
    for cvar, up in jt.parent.items():
        clique = jt.cliques[cvar]
        if up is None:
            key = (tuple(clique.domains), None, None, None)
        else:
            parent = jt.cliques[up[0]]
            key = (tuple(clique.domains), clique.members.index(up[1]),
                   tuple(parent.domains), parent.members.index(up[1]))
        stacks.setdefault(key, []).append(cvar)
    out: dict[str, tuple] = {}
    for (domains, pos, parent_domains, parent_pos), cvars in stacks.items():
        k_own = domains[0]
        leaf = (shared_table(shared, _projection, domains, 0), shared_table(shared, np.ones, k_own),
                Identity(k_own) if math.prod(domains) == k_own else None)
        variables = [pt.variables[cvar] for cvar in cvars]
        tables = (np.stack([var.cpt for var in variables]).transpose(0, 2, 1).reshape(len(cvars), -1)
                  if len(domains) > 1 else np.stack([var.prior for var in variables]))
        if pos is None:  # the root clique
            out[cvars[0]] = (None, tables[0], None, leaf)
            continue
        J = shared_table(shared, _projection, parent_domains, parent_pos)
        Rs = shared_table(shared, _projection, domains, pos).T * tables[:, None, :]
        edges = ([FactoredMatrix(J, R) for R in Rs] if saves_a_call((J.shape, Rs.shape[1:]))
                 else repeat(None))
        out.update(zip(cvars, zip(np.matmul(J, Rs), repeat(None), edges, repeat(leaf))))
    return out


@dataclass
class CompiledTree:
    """Normalized causal tree over cliques plus the edges not stored dense.

    evidence_leaf maps each variable to its indicator leaf E:<var>, the
    first child of its clique node by the projection on the variable: the
    leaf a likelihood on the variable is installed at, and whose belief is
    the variable's posterior marginal."""

    tree: CausalTree
    coeffs: dict[str, object]           # tree node id -> factored or identity edge into it
    clique_node: dict[str, str]         # variable id -> clique tree-node id
    evidence_leaf: dict[str, str]       # variable id -> indicator leaf id


def compile_join_tree(jt: JoinTree, pt: Polytree,
                      state_cap: int = DEFAULT_CLIQUE_CAP) -> CompiledTree:
    """Emit the clique causal tree straight into complete binary form:
    domain-K clique nodes, one family table per edge, one indicator
    evidence leaf per variable.  The root clique's prior is phi_root
    undivided, so the evidence-free mass is 1 under every root and
    Belief.normalizer is P(evidence).

    One node set is made, in preorder, each clique node with its children
    (its evidence leaf, then its child cliques in join-tree order), and
    make_complete_binary rewrites it in place: no child list is derived.

    Each edge's coefficient form (contraction.py) is known from shapes by
    construction and never by comparing arrays.  coeffs lists the edges
    whose form is not their node's dense cpt:
    - a clique edge J . R is a FactoredMatrix where saves_a_call (never
      when J is square, as for a parentless parent clique), its dense cpt
      otherwise;
    - the identity edges make_complete_binary names (its splitters) and
      the evidence leaf of a clique with as many states as its variable (a
      parentless one's: its projection is the identity) get Identity;
    - the other evidence leaves (a projection) and the unit leaves (an
      all-ones column) keep their dense tables.

    Every table is derived from the validated Polytree, so the emitted
    tree is not validated again (CausalTree.unchecked); the test suite
    compares it, bit for bit, with a reference built clique by clique and
    normalized.  Constant tables are built once per shape and shared,
    read-only, by every edge and leaf of this tree that needs them: the
    projections and the indicator leaves' initial all-ones likelihood.
    """
    for clique in jt.cliques.values():
        if clique.K > state_cap:
            raise DimensionOverflow(
                f"clique of {clique.variable!r} has {clique.K} states, cap is {state_cap}")

    tables = _clique_tables(jt, pt)
    # one string object per id, so every lookup of a child or parent by id
    # meets the dict key itself
    clique_node = {cvar: "C:" + cvar for cvar in jt.cliques}
    evidence_leaf = {cvar: "E:" + cvar for cvar in jt.cliques}
    nodes: dict[str, Node] = {}
    coeffs: dict[str, object] = {}
    stack = [jt.root]
    while stack:
        cvar = stack.pop()
        kids = jt.children[cvar]
        node_id, leaf_id = clique_node[cvar], evidence_leaf[cvar]
        cpt, prior, edge, (leaf_cpt, ones, leaf_edge) = tables[cvar]
        node = nodes[node_id] = Node(node_id, leaf_cpt.shape[0], None,
                                     [leaf_id, *[clique_node[cv] for cv, _ in kids]], cpt, prior)
        if prior is None:
            node.parent = clique_node[jt.parent[cvar][0]]
            if edge is not None:
                coeffs[node_id] = edge
        nodes[leaf_id] = Node(leaf_id, ones.shape[0], node_id, [], leaf_cpt, None, ones)
        if leaf_edge is not None:
            coeffs[leaf_id] = leaf_edge
        stack.extend(cv for cv, _ in reversed(kids))
    tree = CausalTree.unchecked(nodes, clique_node[jt.root])
    for node_id in make_complete_binary(tree):
        coeffs[node_id] = Identity(nodes[node_id].domain)
    return CompiledTree(tree=tree, coeffs=coeffs, clique_node=clique_node,
                        evidence_leaf=evidence_leaf)


# -- the engine --------------------------------------------------------------------


@dataclass
class PolytreeEngine:
    """A compiled polytree and the tree engine that answers its clique tree:
    a ContractionIndex by default, or any engine with update(leaf, vec),
    query(node) -> Belief, counters and its own tree."""

    polytree: Polytree
    join_tree: JoinTree
    compiled: CompiledTree
    index: object  # the tree engine over compiled.tree

    @property
    def counters(self) -> OpCounters:
        return self.index.counters

    @property
    def evidence(self) -> dict[str, np.ndarray]:
        """Likelihood in force per variable, read from the tree engine's
        indicator leaves (all ones until updated)."""
        nodes = self.index.tree.nodes
        return {vid: nodes[leaf].evidence for vid, leaf in self.compiled.evidence_leaf.items()}

    def update(self, var_id: str, likelihood) -> None:
        polytree_update(self, var_id, likelihood)

    def query(self, var_id: str) -> Belief:
        return polytree_query(self, var_id)


@collector_paused
def build_engine(pt: Polytree, root_var: str | None = None,
                 state_cap: int = DEFAULT_CLIQUE_CAP,
                 tree_engine: Callable[[CausalTree], object] | None = None) -> PolytreeEngine:
    """Compile the polytree and build tree_engine (FullState, LazyState) over
    the compiled tree; by default that tree is contracted with the cheapest
    coefficient forms, compiled.coeffs."""
    cliques = extract_cliques(pt)
    jt = build_join_tree(cliques, pt, root_var=root_var)
    compiled = compile_join_tree(jt, pt, state_cap=state_cap)
    if tree_engine is None:
        index = contract(compiled.tree, coeffs=compiled.coeffs)
    else:
        index = tree_engine(compiled.tree)
    return PolytreeEngine(polytree=pt, join_tree=jt, compiled=compiled, index=index)


def polytree_update(engine: PolytreeEngine, var_id: str, likelihood) -> PolytreeEngine:
    """Install a likelihood (an Evidence or an array) on a variable through
    its indicator leaf E:<var>.  A likelihood the tree engine rejects is
    checked again against the variable, so the error names var_id, not the
    leaf."""
    leaf = engine.compiled.evidence_leaf.get(var_id)
    if leaf is None:
        raise UnknownVariable(f"no variable {var_id!r}")
    try:
        engine.index.update(leaf, likelihood)
    except LogbelError:
        check_likelihood(likelihood, engine.polytree.variables[var_id].domain,
                         what=f"evidence of {var_id!r}")
        raise
    return engine


def polytree_query(engine: PolytreeEngine, var_id: str, via: str | None = None) -> Belief:
    """Posterior marginal of a variable.  Without via it is the tree
    engine's belief at the variable's indicator leaf E:<var>, one lookup
    away: evidence is a dummy child of the variable (Pearl 1988), so that
    leaf's belief is the variable's marginal, and its pi step through the
    projection edge sums the clique's states.  via selects a clique
    containing the variable, checked in full, whose belief is summed over
    its other members (Clique.member_belief).  Impossible evidence and
    float64 overflow are reported at var_id, not at the compiled node the
    tree engine names."""
    if via is None:
        node, clique = engine.compiled.evidence_leaf.get(var_id), None
        if node is None:
            raise UnknownVariable(f"no variable {var_id!r}")
    else:
        if var_id not in engine.polytree.variables:
            raise UnknownVariable(f"no variable {var_id!r}")
        clique = engine.join_tree.cliques.get(via)
        if clique is None:
            raise UnknownVariable(f"no clique for {via!r}")
        if var_id not in clique.members:
            raise UnknownVariable(f"clique of {via!r} does not contain {var_id!r}")
        node = engine.compiled.clique_node[via]
    try:
        bel = engine.index.query(node)
    except ImpossibleEvidence:
        raise ImpossibleEvidence(
            f"total probability mass is zero at variable {var_id!r}") from None
    except FloatRangeError:
        raise FloatRangeError(
            f"total probability mass overflows float64 at variable {var_id!r}") from None
    return bel if clique is None else clique.member_belief(var_id, bel)


def brute_polytree_marginal(pt: Polytree, evidence: dict[str, np.ndarray],
                            var_id: str) -> Belief:
    """Exact marginal by enumerating the joint of all variables
    (BruteForceOracle, capped at DEFAULT_STATE_CAP states); each evidence
    vector is checked against its variable's domain."""
    oracle = BruteForceOracle(pt)
    for vid, vec in evidence.items():
        oracle.update(vid, vec)
    return oracle.query(var_id)

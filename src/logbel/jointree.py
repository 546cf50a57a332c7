"""Polytrees compiled into join trees that any tree engine answers.

A polytree's moral graph is chordal and each of its maximal cliques is a
family {v} union parents(v), so the join tree has one clique per variable,
one edge per polytree edge, and singleton separators.  The join tree is
itself a causal tree over clique-valued variables.  build_engine hands it
to a tree engine, the contraction index by default, with each edge in a
coefficient form contraction.py defines: an edge conditional factored as
(projection J) . (separator-conditional R) on cliques where that saves a
numpy call, keeping their rake updates O(K L^2) instead of O(K^3), and
identity edges as Identity, which cost nothing.  Every polytree update and
query is one call of that engine's update or query on the compiled tree.

Clique states use mixed-radix indexing with the clique's own variable most
significant, then its parents in declaration order.  CPT rows likewise run
over joint parent assignments with the first parent most significant.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

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
    ConstructionError,
    DimensionOverflow,
    DuplicateId,
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
    check_likelihood,
    collector_paused,
    normalize_tree,
    read_json,
    validate_tables,
)

DEFAULT_CLIQUE_CAP = 4096

_VAR_KEYS = {"id", "domain", "parents", "cpt", "prior"}


@dataclass
class Variable:
    id: str
    domain: int
    parents: list[str]
    cpt: np.ndarray | None     # (prod parent domains) x domain
    prior: np.ndarray | None   # parentless variables only


class Polytree:
    """Singly connected Bayesian network; parents are ordered per variable.

    children lists each variable's children in declaration order; with the
    parent lists it is the skeleton the join tree is rooted on.
    """

    def __init__(self, variables: list[Variable]):
        self.variables: dict[str, Variable] = {}
        for var in variables:
            if var.id in self.variables:
                raise DuplicateId(f"duplicate variable id {var.id!r}")
            self.variables[var.id] = var
        if not self.variables:
            raise FormatError("polytree has no variables")
        self.children: dict[str, list[str]] = {vid: [] for vid in self.variables}
        self._check_structure()
        self._check_tables()
        self._order = self._sort()  # rejects directed cycles the edge count misses

    def _check_structure(self) -> None:
        edges: set[tuple[str, str]] = set()
        for var in self.variables.values():
            if len(set(var.parents)) != len(var.parents):
                raise FormatError(f"variable {var.id!r} repeats a parent")
            for parent in var.parents:
                if parent not in self.variables:
                    raise UnknownVariable(f"variable {var.id!r} has unknown parent {parent!r}")
                if parent == var.id:
                    raise NotAPolytree(f"variable {var.id!r} is its own parent")
                edges.add((min(parent, var.id), max(parent, var.id)))
                self.children[parent].append(var.id)
        n = len(self.variables)
        if len(edges) != n - 1:
            raise NotAPolytree(
                f"underlying graph has {len(edges)} edges over {n} variables; "
                "a polytree needs exactly n - 1")
        # n - 1 distinct edges form a tree iff the graph is connected
        seen = set()
        stack = [next(iter(self.variables))]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.children[cur])
            stack.extend(self.variables[cur].parents)
        if len(seen) != n:
            raise NotAPolytree("underlying graph is disconnected")

    def _check_tables(self) -> None:
        for var in self.variables.values():  # every domain, before cpts use them
            if isinstance(var.domain, bool) or not isinstance(var.domain, int) \
                    or var.domain < 1:
                raise FormatError(f"variable {var.id!r} has invalid domain {var.domain!r}")
        validate_tables(self._store_tables)

    def _store_tables(self, checks) -> None:
        for var in self.variables.values():
            if var.parents:
                if var.cpt is None:
                    raise FormatError(f"variable {var.id!r} has parents but no cpt")
                if var.prior is not None:
                    raise FormatError(f"variable {var.id!r} has parents and must not carry a prior")
                rows = math.prod(self.variables[p].domain for p in var.parents)
                var.cpt = checks.cpt(var.cpt, (rows, var.domain), var.id)
            else:
                if var.prior is None:
                    raise FormatError(f"parentless variable {var.id!r} needs a prior")
                if var.cpt is not None:
                    raise FormatError(f"parentless variable {var.id!r} must not carry a cpt")
                var.prior = checks.prior(var.prior, var.domain, var.id)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def max_parents(self) -> int:
        return max(len(v.parents) for v in self.variables.values())

    def topological_order(self) -> list[str]:
        """Parents before children, as sorted when the network was built."""
        return list(self._order)

    def _sort(self) -> list[str]:
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
        if len(order) != self.n:
            raise NotAPolytree("directed cycle among variables")
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
    if not isinstance(spec, dict) or "variables" not in spec:
        raise FormatError("polytree spec must be a mapping with a 'variables' list")
    extra = set(spec) - {"variables"}
    if extra:
        raise FormatError(f"unknown top-level keys {sorted(extra)}")
    if not isinstance(spec["variables"], list):
        raise FormatError("'variables' must be a list")
    variables = []
    for raw in spec["variables"]:
        if not isinstance(raw, dict):
            raise FormatError("each variable must be an object")
        unknown = set(raw) - _VAR_KEYS
        if unknown:
            raise FormatError(f"unknown variable keys {sorted(unknown)}")
        if "id" not in raw or "domain" not in raw:
            raise FormatError("every variable needs 'id' and 'domain'")
        var_id, parents = raw["id"], raw.get("parents", [])
        if not isinstance(var_id, str) or not isinstance(parents, list) \
                or not all(isinstance(p, str) for p in parents):
            raise FormatError(f"variable {var_id!r}: id and parents must be id strings")
        variables.append(Variable(
            id=var_id,
            domain=raw["domain"],
            parents=list(parents),
            cpt=raw.get("cpt"),
            prior=raw.get("prior"),
        ))
    return Polytree(variables)


def load_polytree(path) -> Polytree:
    return build_polytree(read_json(path))


# -- cliques and join tree --------------------------------------------------------


@dataclass
class Clique:
    """Family clique of one variable: members [variable, *parents].

    Mixed-radix state indexing, first member most significant.
    """

    variable: str
    members: list[str]
    domains: list[int]
    K: int = field(init=False)
    strides: list[int] = field(init=False)

    def __post_init__(self):
        self.K = math.prod(self.domains)
        strides = []
        acc = 1
        for d in reversed(self.domains):
            strides.append(acc)
            acc *= d
        self.strides = list(reversed(strides))

    def digit(self, state: int, member: str) -> int:
        i = self.members.index(member)
        return (state // self.strides[i]) % self.domains[i]

    def projection(self, member: str) -> np.ndarray:
        """K x k_member 0/1 matrix picking the member's coordinate; exactly
        one 1 per row."""
        i = self.members.index(member)
        out = np.zeros((self.K, self.domains[i]))
        states = np.arange(self.K)
        out[states, (states // self.strides[i]) % self.domains[i]] = 1.0
        return out

    def member_belief(self, member: str, clique_bel: Belief) -> Belief:
        """A member's marginal from a belief over the clique's states: the
        sum over the other members (clique states are in numpy's C order)."""
        others = tuple(i for i, m in enumerate(self.members) if m != member)
        dist = clique_bel.dist.reshape(self.domains).sum(axis=others)
        return Belief(dist=dist, normalizer=clique_bel.normalizer)


def extract_cliques(pt: Polytree) -> dict[str, Clique]:
    """One family clique {v} union parents(v) per variable, unchecked.

    Polytree() has already checked n - 1 distinct skeleton edges, a
    connected skeleton and no directed cycle, so the skeleton is a tree.
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
        cliques[vid] = Clique(variable=vid, members=members,
                              domains=[pt.variables[m].domain for m in members])
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

    The clique graph mirrors the polytree skeleton, so it is a tree, and a
    variable's cliques (its own and its children's) form a star around its
    own clique: running intersection holds by construction and is not
    re-checked; the skeleton is the polytree's own children and parents.
    The linear checks stay: the tree is connected, and every edge's cliques
    share exactly their separator (c = 1).
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
    if len(parent) != len(cliques):
        raise ConstructionError("join tree is not connected")
    for order in children.values():
        order.sort()

    for vid, (pc, sep) in ((v, pr) for v, pr in parent.items() if pr is not None):
        overlap = set(cliques[vid].members) & set(cliques[pc].members)
        if overlap != {sep}:
            raise ConstructionError(
                f"cliques {vid!r} and {pc!r} share {sorted(overlap)}, expected [{sep!r}]")
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
        marginals[vid] = var.cpt.T @ _parent_joint(pt, var, marginals)
    return marginals


def _parent_joint(pt: Polytree, var: Variable, marginals: dict[str, np.ndarray],
                  given: str | None = None) -> np.ndarray:
    """Kronecker product of the marginals of var's parents, in their order,
    with all ones in place of given's; built as flattened outer products,
    which is faster on short vectors."""
    joint = np.ones(1)
    for p in var.parents:
        joint = np.outer(joint, np.ones(pt.variables[p].domain) if p == given
                         else marginals[p]).ravel()
    return joint


# -- compilation to a causal tree --------------------------------------------------


def _family_weights(pt: Polytree, clique: Clique, marginals: dict[str, np.ndarray],
                    given: str | None = None) -> np.ndarray:
    """p(variable | parents) times the marginals of every parent except
    given, one weight per clique state (own variable most significant, as
    Clique.strides).  With given=None this is the clique's prior."""
    var = pt.variables[clique.variable]
    table = var.cpt.T if var.parents else var.prior[:, None]
    return (table * _parent_joint(pt, var, marginals, given)).ravel()


def _separator_conditional(pt: Polytree, clique: Clique, separator: str,
                           marginals: dict[str, np.ndarray],
                           projection: np.ndarray) -> np.ndarray:
    """R[s_value, clique_state] = p(clique state | separator = s_value);
    projection is clique.projection(separator).

    For separator s among the parents: rows combine the child CPT with the
    marginals of the other parents.  For s equal to the clique's own
    variable the parent marginals enter in full and the variable's own
    marginal divides out (Bayes flip).  A value of zero prior mass is
    reached only through parent-clique states of zero prior mass, so any
    stochastic row is exact there: its row is uniform over the clique
    states with that value.
    """
    R = projection.T * _family_weights(pt, clique, marginals, separator)
    if separator == clique.variable:
        own = marginals[separator]
        if np.any(own == 0.0):
            zero = own == 0.0
            R[zero] = projection.T[zero]
            own = np.where(zero, projection.sum(axis=0), own)
        R /= own[:, None]
    return R


@dataclass
class CompiledTree:
    """Normalized causal tree over cliques plus the edges not stored dense."""

    tree: CausalTree
    coeffs: dict[str, object]           # tree node id -> factored or identity edge into it
    clique_node: dict[str, str]         # variable id -> clique tree-node id
    evidence_leaf: dict[str, str]       # variable id -> indicator leaf id


def compile_join_tree(jt: JoinTree, pt: Polytree,
                      marginals: dict[str, np.ndarray] | None = None,
                      state_cap: int = DEFAULT_CLIQUE_CAP) -> CompiledTree:
    """Emit the clique causal tree: domain-K clique nodes, edge
    conditionals, one indicator evidence leaf per variable, then normalize
    to complete binary form.

    Each edge's coefficient form (contraction.py) is known from shapes by
    construction and never by comparing arrays.  coeffs lists the edges
    whose form is not their node's dense cpt:
    - a clique edge J . R is a FactoredMatrix where saves_a_call (never
      when J is square, as for a parentless parent clique), its dense cpt
      otherwise;
    - the identity edges normalize_tree names (its splitters) and the
      evidence leaf of a clique with as many states as its variable (a
      parentless one's: its projection is the identity) get Identity;
    - the other evidence leaves (a projection) and the unit leaves (an
      all-ones column) keep their dense tables.

    The emitted tree is validated once, before normalize_tree adds the
    dummies, whose tables are constant.  Projections are built once per
    clique shape and member position and shared, read-only, by every edge
    and leaf of this tree that needs them.
    """
    if marginals is None:
        marginals = prior_marginals(pt)
    for clique in jt.cliques.values():
        if clique.K > state_cap:
            raise DimensionOverflow(
                f"clique of {clique.variable!r} has {clique.K} states, cap is {state_cap}")

    shared: dict[tuple, np.ndarray] = {}

    def projection(clique: Clique, member: str) -> np.ndarray:
        key = (tuple(clique.domains), clique.members.index(member))
        arr = shared.get(key)
        if arr is None:
            arr = shared[key] = clique.projection(member)
            arr.flags.writeable = False
        return arr

    nodes: list[Node] = []
    coeffs: dict[str, object] = {}
    clique_node: dict[str, str] = {}
    evidence_leaf: dict[str, str] = {}

    stack = [jt.root]
    while stack:
        cvar = stack.pop()
        clique = jt.cliques[cvar]
        node_id, leaf_id = f"C:{cvar}", f"E:{cvar}"
        clique_node[cvar] = node_id
        evidence_leaf[cvar] = leaf_id
        node = Node(id=node_id, domain=clique.K)
        if jt.parent[cvar] is None:
            node.prior = _family_weights(pt, clique, marginals)
        else:
            parent_cvar, separator = jt.parent[cvar]
            node.parent = f"C:{parent_cvar}"
            J = projection(jt.cliques[parent_cvar], separator)
            R = _separator_conditional(pt, clique, separator, marginals,
                                       projection(clique, separator))
            node.cpt = J.dot(R)
            if saves_a_call((J.shape, R.shape)):
                coeffs[node_id] = FactoredMatrix(J, R)
        nodes.append(node)
        k_own = clique.domains[0]
        nodes.append(Node(id=leaf_id, domain=k_own, parent=node_id,
                          cpt=projection(clique, cvar), evidence=np.ones(k_own)))
        if clique.K == k_own:
            coeffs[leaf_id] = Identity(k_own)
        stack.extend(cv for cv, _ in reversed(jt.children[cvar]))
    # Preorder declares each clique's evidence leaf before its child cliques,
    # which come in join-tree order, so that is their sibling order.
    tree, identity_ids = normalize_tree(CausalTree(nodes))
    for node_id in identity_ids:
        coeffs[node_id] = Identity(tree.nodes[node_id].domain)
    return CompiledTree(tree=tree, coeffs=coeffs,
                        clique_node=clique_node, evidence_leaf=evidence_leaf)


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
    marginals = prior_marginals(pt)
    compiled = compile_join_tree(jt, pt, marginals, state_cap=state_cap)
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
    if var_id not in engine.polytree.variables:
        raise UnknownVariable(f"no variable {var_id!r}")
    try:
        engine.index.update(engine.compiled.evidence_leaf[var_id], likelihood)
    except LogbelError:
        check_likelihood(likelihood, engine.polytree.variables[var_id].domain,
                         what=f"evidence of {var_id!r}")
        raise
    return engine


def polytree_query(engine: PolytreeEngine, var_id: str, via: str | None = None) -> Belief:
    """Posterior marginal of a variable: clique belief summed over the
    clique's other members (clique states are in numpy's C order).  via
    selects any clique containing the variable (defaults to the variable's
    own).  Impossible evidence is reported at var_id, not at the compiled
    clique node the tree engine names."""
    if var_id not in engine.polytree.variables:
        raise UnknownVariable(f"no variable {var_id!r}")
    clique_var = var_id if via is None else via
    if clique_var not in engine.join_tree.cliques:
        raise UnknownVariable(f"no clique for {clique_var!r}")
    clique = engine.join_tree.cliques[clique_var]
    if var_id not in clique.members:
        raise UnknownVariable(f"clique of {clique_var!r} does not contain {var_id!r}")
    try:
        clique_bel = engine.index.query(engine.compiled.clique_node[clique_var])
    except ImpossibleEvidence:
        raise ImpossibleEvidence(
            f"total probability mass is zero at variable {var_id!r}") from None
    return clique.member_belief(var_id, clique_bel)


def brute_polytree_marginal(pt: Polytree, evidence: dict[str, np.ndarray],
                            var_id: str) -> Belief:
    """Exact marginal by enumerating the joint of all variables
    (BruteForceOracle, capped at DEFAULT_STATE_CAP states); each evidence
    vector is checked against its variable's domain."""
    oracle = BruteForceOracle(pt)
    for vid, vec in evidence.items():
        oracle.update(vid, vec)
    return oracle.query(var_id)

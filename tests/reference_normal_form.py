"""The copy-and-rederive normalization: the oracle logbel.model's in-place
complete binary rule and CausalTree.copy are checked against.

normalize_tree here decides each node's new parent first, then makes every
node again by keyword and derives all child lists from the parent links, in
declaration order.  It names and shares its dummies' tables as the library
does.
"""

from __future__ import annotations

import numpy as np

from logbel.model import CausalTree, Node, shared_table


def derived_tree(nodes: list[Node], root: str) -> CausalTree:
    """The tree over nodes whose children are unset, each child list derived
    from the parent links in declaration order, checking nothing else."""
    by_id = {node.id: node for node in nodes}
    for node in nodes:
        if node.parent is not None:
            by_id[node.parent].children.append(node.id)
    return CausalTree.unchecked(by_id, root)


def copy_tree(tree: CausalTree) -> CausalTree:
    """A clone by keyword construction, children derived again."""
    return derived_tree([Node(id=node.id, domain=node.domain, parent=node.parent, cpt=node.cpt,
                              prior=node.prior, evidence=node.evidence)
                         for node in tree.nodes.values()], tree.root)


def normalize_tree(tree: CausalTree) -> tuple[CausalTree, list[str]]:
    """(complete binary tree, identity ids), as logbel.normalize_tree."""
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
    return derived_tree(nodes + aux, root), identity_ids

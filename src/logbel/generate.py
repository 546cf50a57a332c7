"""Deterministic generators for test corpora and benchmarks.

The tree generators emit complete binary trees (every internal node has
exactly two children), so no normalization pass is needed before
contraction; random_polytree emits singly connected networks for the
join-tree engine.  Given the same numpy Generator state the output is
identical, which keeps corpora and benchmark runs reproducible.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .jointree import Polytree, Variable
from .model import CausalTree, build_tree


def _domain_of(k, rng) -> int:
    if isinstance(k, int):
        return k
    lo, hi = k
    return int(rng.integers(lo, hi + 1))


def _rows(parent_domain: int, domain: int, rng) -> list[list[float]]:
    return [rng.dirichlet(np.ones(domain)).tolist() for _ in range(parent_domain)]


def random_likelihood(domain: int, rng, floor: float = 0.05) -> np.ndarray:
    """Soft evidence with entries in [floor, 1] and max entry 1.

    Likelihoods are meaningful only up to scale; pinning the max keeps long
    chained products inside float64 range.  Trees in the multi-thousand-node
    range need a floor around 0.5 to keep the joint evidence mass above the
    float64 underflow threshold.
    """
    v = floor + (1.0 - floor) * rng.random(domain)
    return v / v.max()


def _tree_from_splits(n_nodes: int, k, rng, split, evidence_floor: float) -> CausalTree:
    """Build a complete binary tree with ~n_nodes nodes; split(m) picks how
    many of m leaves go to the left subtree."""
    n_nodes = max(3, n_nodes)
    if n_nodes % 2 == 0:
        n_nodes += 1
    n_leaves = (n_nodes + 1) // 2

    nodes: list[dict] = []
    counter = 0

    def emit(leaves: int, parent: str | None, parent_domain: int | None) -> None:
        nonlocal counter
        node_id = f"n{counter}"
        counter += 1
        domain = _domain_of(k, rng)
        entry: dict = {"id": node_id, "domain": domain, "parent": parent}
        if parent is None:
            entry["prior"] = rng.dirichlet(np.ones(domain)).tolist()
        else:
            entry["cpt"] = _rows(parent_domain, domain, rng)
        nodes.append(entry)
        if leaves == 1:
            entry["evidence"] = random_likelihood(domain, rng, evidence_floor)
            return
        left = split(leaves)
        emit(left, node_id, domain)
        emit(leaves - left, node_id, domain)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * n_leaves + 100))
    try:
        emit(n_leaves, None, None)
    finally:
        sys.setrecursionlimit(old_limit)
    return build_tree({"nodes": nodes})


def random_tree(n_nodes: int, k, rng, *, evidence_floor: float = 0.05) -> CausalTree:
    """Random complete binary tree shape via recursive uniform leaf splits.

    k is either a fixed domain size or an inclusive (lo, hi) range sampled
    per node.  Conditional rows and priors are Dirichlet(1); leaves get
    strictly positive soft evidence (random_likelihood).
    """
    return _tree_from_splits(n_nodes, k, rng,
                             lambda m: int(rng.integers(1, m)), evidence_floor)


def balanced_tree(n_nodes: int, k, rng, *, evidence_floor: float = 0.05) -> CausalTree:
    """Near-perfectly balanced complete binary tree."""
    return _tree_from_splits(n_nodes, k, rng, lambda m: m // 2, evidence_floor)


def chain_tree(n_nodes: int, k, rng, *, evidence_floor: float = 0.05) -> CausalTree:
    """Caterpillar chain: spine x1..xL, each xi with an evidence leaf ei on
    the left and x_{i+1} on the right; xL carries leaves eL and e{L+1}.

    The result has 2L+1 nodes with L = max(2, n_nodes // 2) and depth L.
    """
    length = max(2, n_nodes // 2)
    nodes: list[dict] = []
    prev_domain = 0
    for i in range(1, length + 1):
        domain = _domain_of(k, rng)
        spine: dict = {"id": f"x{i}", "domain": domain,
                       "parent": f"x{i-1}" if i > 1 else None}
        if i == 1:
            spine["prior"] = rng.dirichlet(np.ones(domain)).tolist()
        else:
            spine["cpt"] = _rows(prev_domain, domain, rng)
        nodes.append(spine)
        leaf_domain = _domain_of(k, rng)
        nodes.append({"id": f"e{i}", "domain": leaf_domain, "parent": f"x{i}",
                      "cpt": _rows(domain, leaf_domain, rng),
                      "evidence": random_likelihood(leaf_domain, rng, evidence_floor)})
        prev_domain = domain
    last_domain = _domain_of(k, rng)
    nodes.append({"id": f"e{length+1}", "domain": last_domain, "parent": f"x{length}",
                  "cpt": _rows(prev_domain, last_domain, rng),
                  "evidence": random_likelihood(last_domain, rng, evidence_floor)})
    return build_tree({"nodes": nodes})


def random_polytree(n_vars: int, p: int, k, rng) -> Polytree:
    """Random singly connected network with at most p parents per variable."""
    n_vars = max(1, n_vars)
    ids = [f"v{i}" for i in range(n_vars)]
    domains = {vid: (k if isinstance(k, int) else int(rng.integers(k[0], k[1] + 1)))
               for vid in ids}
    parents: dict[str, list[str]] = {vid: [] for vid in ids}
    for i in range(1, n_vars):
        other = ids[int(rng.integers(i))]
        new = ids[i]
        # orient the attachment edge without exceeding p parents anywhere
        if len(parents[other]) < p and (len(parents[new]) >= p or rng.random() < 0.5):
            parents[other].append(new)
        else:
            parents[new].append(other)
    variables = []
    for vid in ids:
        if parents[vid]:
            rows = math.prod(domains[q] for q in parents[vid])
            cpt = np.stack([rng.dirichlet(np.ones(domains[vid])) for _ in range(rows)])
            variables.append(Variable(vid, domains[vid], parents[vid], cpt, None))
        else:
            variables.append(Variable(vid, domains[vid], [], None,
                                      rng.dirichlet(np.ones(domains[vid]))))
    return Polytree(variables)

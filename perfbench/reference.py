"""Benchmark-owned exact inference for checking the engines' answers.

A two-pass (lambda up, pi down) propagation over a rooted tree in which
every message is divided by its maximum and the dropped scales are summed in
log space.  Beliefs are invariant under those scalars, so the reference
stays exact where unscaled float64 products underflow, and it also yields
log10 P(evidence).  Wide nodes combine their children's messages through
prefix and suffix products, so a node with m children costs O(m).
"""

from __future__ import annotations

import math

import numpy as np


class TreeReference:
    """Exact beliefs of a causal tree under evidence the caller keeps current.

    ids: node ids with every parent listed before its children.
    parent: id -> parent id (None for the root).
    cpt: id -> (parent domain x own domain) array for non-root nodes.
    prior: the root's prior.  evidence: leaf id -> likelihood.
    """

    def __init__(self, ids, parent, cpt, prior, evidence):
        self.ids = list(ids)
        self.parent = dict(parent)
        self.cpt = {nid: np.array(cpt[nid], dtype=float) for nid in self.ids if self.parent[nid]}
        self.prior = np.array(prior, dtype=float)
        self.evidence = {nid: np.array(vec, dtype=float) for nid, vec in evidence.items()}
        self.children = {nid: [] for nid in self.ids}
        for nid in self.ids:
            if self.parent[nid] is not None:
                self.children[self.parent[nid]].append(nid)
        self.root = next(nid for nid in self.ids if self.parent[nid] is None)

    @classmethod
    def from_tree_spec(cls, spec: dict) -> "TreeReference":
        nodes = spec["nodes"]
        root = next(n for n in nodes if n.get("parent") is None)
        return cls([n["id"] for n in nodes], {n["id"]: n.get("parent") for n in nodes},
                   {n["id"]: n["cpt"] for n in nodes if n.get("parent")}, root["prior"],
                   {n["id"]: n["evidence"] for n in nodes if "evidence" in n})

    def set_evidence(self, leaf: str, vec) -> None:
        self.evidence[leaf] = np.array(vec, dtype=float)

    def solve(self) -> tuple[dict[str, np.ndarray], float]:
        """Belief of every node, and log10 P(evidence)."""
        lam: dict[str, np.ndarray] = {}
        msg: dict[str, np.ndarray] = {}  # child -> cpt @ lam(child), max-scaled
        log_scale = 0.0
        for nid in reversed(self.ids):
            kids = self.children[nid]
            if kids:
                acc = None
                for c in kids:
                    acc = msg[c] if acc is None else acc * msg[c]
                    top = acc.max()
                    if not top > 0.0:
                        raise ZeroDivisionError(f"evidence below {nid!r} has zero mass")
                    acc = acc / top
                    log_scale += math.log10(top)
                lam[nid] = acc
            else:
                lam[nid] = self.evidence.get(nid)
                if lam[nid] is None:
                    lam[nid] = np.ones(self.prior.shape[0] if nid == self.root else self.cpt[nid].shape[1])
            if nid != self.root:
                m = self.cpt[nid] @ lam[nid]
                top = m.max()
                msg[nid] = m / top
                log_scale += math.log10(top)
        mass = float(self.prior @ lam[self.root])
        log10_pe = log_scale + math.log10(mass)

        pi = {self.root: self.prior / self.prior.max()}
        for nid in self.ids:
            kids = self.children[nid]
            if not kids:
                continue
            # prefix[i] = product of messages of kids[:i]; suffix likewise
            prefix = [np.ones_like(pi[nid])]
            for c in kids[:-1]:
                p = prefix[-1] * msg[c]
                prefix.append(p / p.max())
            suffix = np.ones_like(pi[nid])
            for i in range(len(kids) - 1, -1, -1):
                c = kids[i]
                down = pi[nid] * prefix[i] * suffix
                up = self.cpt[c].T @ down
                pi[c] = up / up.max()
                s = suffix * msg[c]
                suffix = s / s.max()
        beliefs = {}
        for nid in self.ids:
            raw = lam[nid] * pi[nid]
            beliefs[nid] = raw / raw.sum()
        return beliefs, log10_pe


def variable_marginal(clique_belief: np.ndarray, own_domain: int) -> np.ndarray:
    """Marginal of a clique's own variable: it is the most significant
    mixed-radix digit of the clique state."""
    return clique_belief.reshape(own_domain, -1).sum(axis=1)

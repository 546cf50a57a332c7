"""Seeded inputs for the benchmark: networks, op streams and `logbel run` ops files.

Everything here is owned by the benchmark and uses only numpy, never
logbel.generate or logbel.random_polytree, so a change to the package cannot
silently change what the benchmark measures.  The same seed always gives the
same network and the same op stream.

Networks are emitted as plain specs (lists of floats), the format
``build_tree`` and ``build_polytree`` read, so set-up time covers validation.
"""

from __future__ import annotations

import numpy as np

EVIDENCE_FLOOR = 0.5  # soft likelihoods in [0.5, 1] with max 1: the `bench` law

UPDATE, QUERY = "S", "Q"


def likelihood(rng, k: int) -> list[float]:
    v = EVIDENCE_FLOOR + (1.0 - EVIDENCE_FLOOR) * rng.random(k)
    return (v / v.max()).tolist()


def _stochastic_rows(rng, rows: int, k: int) -> list[list[float]]:
    return rng.dirichlet(np.ones(k), size=rows).tolist()


def star_spec(rng, leaves: int = 4000) -> dict:
    """Naive Bayes: one K=2 root, `leaves` K=2 sensors, all with soft evidence."""
    nodes = [{"id": "r", "domain": 2, "prior": rng.dirichlet(np.ones(2)).tolist()}]
    for i in range(leaves):
        nodes.append({"id": f"s{i}", "domain": 2, "parent": "r",
                      "cpt": _stochastic_rows(rng, 2, 2), "evidence": likelihood(rng, 2)})
    return {"nodes": nodes}


def balanced_spec(rng, n: int = 8191, k: int = 8) -> dict:
    """Complete binary tree in heap order (children of i are 2i+1, 2i+2);
    n must be 2^d - 1.  Every leaf carries soft evidence."""
    nodes = []
    for i in range(n):
        entry: dict = {"id": f"b{i}", "domain": k}
        if i == 0:
            entry["prior"] = rng.dirichlet(np.ones(k)).tolist()
        else:
            entry["parent"] = f"b{(i - 1) // 2}"
            entry["cpt"] = _stochastic_rows(rng, k, k)
        if 2 * i + 1 >= n:
            entry["evidence"] = likelihood(rng, k)
        nodes.append(entry)
    return {"nodes": nodes}


def polytree_spec(rng, n: int = 3000, k: int = 2, max_parents: int = 3) -> dict:
    """Random polytree: variable i attaches to a uniformly chosen earlier
    variable, the edge pointing either way while no variable exceeds
    `max_parents` parents."""
    parents: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        other = int(rng.integers(i))
        if len(parents[other]) < max_parents and rng.random() < 0.5:
            parents[other].append(i)
        else:
            parents[i].append(other)
    variables = []
    for i in range(n):
        entry: dict = {"id": f"v{i}", "domain": k, "parents": [f"v{p}" for p in parents[i]]}
        if parents[i]:
            entry["cpt"] = _stochastic_rows(rng, k ** len(parents[i]), k)
        else:
            entry["prior"] = rng.dirichlet(np.ones(k)).tolist()
        variables.append(entry)
    return {"variables": variables}


def tree_leaves(spec: dict) -> list[str]:
    has_child = {node["parent"] for node in spec["nodes"] if node.get("parent")}
    return [node["id"] for node in spec["nodes"] if node["id"] not in has_child]


class OpStream:
    """Endless seeded stream of cycles: `updates` soft-evidence updates on
    `targets`, then `queries` belief queries on `query_ids`, uniformly.

    Ops are (kind, id, likelihood-array-or-None).  The stream depends only on
    the seed, not on how many cycles a run consumes.
    """

    def __init__(self, rng, targets: list[str], query_ids: list[str], domain: int,
                 updates: int, queries: int):
        self.rng = rng
        self.targets = targets
        self.query_ids = query_ids
        self.domain = domain
        self.updates = updates
        self.queries = queries

    def cycle(self) -> tuple[list[tuple], list[tuple]]:
        rng = self.rng
        ups = [(UPDATE, self.targets[int(rng.integers(len(self.targets)))],
                np.array(likelihood(rng, self.domain))) for _ in range(self.updates)]
        qs = [(QUERY, self.query_ids[int(rng.integers(len(self.query_ids)))], None)
              for _ in range(self.queries)]
        return ups, qs


def write_ops_file(path, ops: list[tuple]) -> None:
    """The stream in `logbel run` syntax; likelihoods printed with repr so
    the CLI parses back the exact floats."""
    with open(path, "w", encoding="utf-8") as fh:
        for kind, target, vec in ops:
            if kind == UPDATE:
                fh.write(f"S {target} " + " ".join(repr(float(x)) for x in vec) + "\n")
            else:
                fh.write(f"Q {target}\n")

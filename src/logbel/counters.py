"""Operation counters used as the portable cost signal.

Wall-clock time is noisy, so every engine in this package reports its work
through an OpCounters instance: how many matrix-vector products, how many
matrix-matrix products, how many equation evaluations, and the total number
of scalar multiply-adds those operations amount to.  A matrix-vector product
of an r x c matrix counts as r*c multiply-adds; an (r x m) @ (m x c) product
counts r*m*c; rescaling a matrix by a diagonal counts r*c.

Those counts depend only on the shapes involved, so the contraction index
fixes the cost of each of its operations when it is built and adds it in
one step.  A cost is a tuple (matrix_vector_mults, matrix_matrix_mults,
equation_evals, scalar_mult_adds, matmat_mult_adds, shape tags as sorted
(tag, count) pairs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

NO_COST = (0, 0, 0, 0, 0, ())


def sum_costs(a: tuple, b: tuple) -> tuple:
    """The cost of doing a's work and then b's."""
    tags = _sum_tags(a[5], b[5]) if a[5] and b[5] else a[5] or b[5]
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4], tags)


@functools.lru_cache(maxsize=4096)
def _sum_tags(a: tuple, b: tuple) -> tuple:
    """Merged tag counts; few distinct ones occur, so they are shared."""
    merged = dict(a)
    for tag, n in b:
        merged[tag] = merged.get(tag, 0) + n
    return tuple(sorted(merged.items()))


@dataclass
class OpCounters:
    matrix_vector_mults: int = 0
    matrix_matrix_mults: int = 0
    equation_evals: int = 0
    scalar_mult_adds: int = 0
    # Portion of scalar_mult_adds contributed by matrix-matrix products only.
    # This isolates the O(K^3)-vs-O(K*L^2) comparison for factored pipelines.
    matmat_mult_adds: int = 0
    # Histogram of product shapes seen in factored pipelines, e.g. "LKxKL".
    shape_tags: dict[str, int] = field(default_factory=dict)

    def count_matvec(self, rows: int, cols: int) -> None:
        self.matrix_vector_mults += 1
        self.scalar_mult_adds += rows * cols

    def count_matmat(self, rows: int, inner: int, cols: int) -> None:
        self.matrix_matrix_mults += 1
        self.scalar_mult_adds += rows * inner * cols
        self.matmat_mult_adds += rows * inner * cols

    def count_diag_scale(self, rows: int, cols: int) -> None:
        self.scalar_mult_adds += rows * cols

    def count_vector_op(self, n: int) -> None:
        self.scalar_mult_adds += n

    def count_equation(self) -> None:
        self.equation_evals += 1

    def tag(self, shape: str) -> None:
        self.shape_tags[shape] = self.shape_tags.get(shape, 0) + 1

    def add(self, cost: tuple) -> None:
        """Add a precomputed cost (see the module docstring)."""
        mv, mm, equations, mult_adds, matmat_adds, tags = cost
        self.matrix_vector_mults += mv
        self.matrix_matrix_mults += mm
        self.equation_evals += equations
        self.scalar_mult_adds += mult_adds
        self.matmat_mult_adds += matmat_adds
        for tag, n in tags:
            self.shape_tags[tag] = self.shape_tags.get(tag, 0) + n

    def as_cost(self) -> tuple:
        """Everything counted so far, as one cost."""
        return (self.matrix_vector_mults, self.matrix_matrix_mults, self.equation_evals,
                self.scalar_mult_adds, self.matmat_mult_adds,
                tuple(sorted(self.shape_tags.items())))

    def snapshot(self) -> tuple[int, int, int, int]:
        return (
            self.matrix_vector_mults,
            self.matrix_matrix_mults,
            self.equation_evals,
            self.scalar_mult_adds,
        )

    def delta(self, before: tuple[int, int, int, int]) -> dict[str, int]:
        """Difference between the current totals and an earlier snapshot()."""
        now = self.snapshot()
        keys = ("matrix_vector_mults", "matrix_matrix_mults", "equation_evals", "scalar_mult_adds")
        return {k: now[i] - before[i] for i, k in enumerate(keys)}

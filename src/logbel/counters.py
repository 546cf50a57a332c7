"""Operation counters used as the portable cost signal.

Wall-clock time is noisy, so every engine in this package reports its work
through an OpCounters instance: matrix-vector products, matrix-matrix
products, equation evaluations, and the scalar multiply-adds they amount to
(of which matmat_mult_adds come from matrix-matrix products).  Those counts
depend only on shapes, so one rule fixes them, from coefficient forms: the
form rule of contraction.py (matvec_cost, rake_cost, equation_cost).  Every
engine adds a cost from it in one step, except contraction's lambda_query,
one kept step per lambda step, and the full and lazy engines' beliefs,
whose final vector product, K multiply-adds, counts apart (a contraction
belief's kept total holds it; less_costs takes parts off such totals).  A
cost is a tuple (matrix_vector_mults, matrix_matrix_mults, equation_evals,
scalar_mult_adds, matmat_mult_adds).
"""

from __future__ import annotations

from dataclasses import dataclass

NO_COST = (0, 0, 0, 0, 0)


def sum_costs(a: tuple, b: tuple) -> tuple:
    """The cost of doing a's work and then b's."""
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4])


def less_costs(a: tuple, b: tuple) -> tuple:
    """The cost of a's work without b's, which is part of it."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3], a[4] - b[4])


@dataclass
class OpCounters:
    matrix_vector_mults: int = 0
    matrix_matrix_mults: int = 0
    equation_evals: int = 0
    scalar_mult_adds: int = 0
    # Portion of scalar_mult_adds contributed by matrix-matrix products only.
    # This isolates the O(K^3)-vs-O(K*L^2) comparison for factored pipelines.
    matmat_mult_adds: int = 0

    def count_vector_op(self, n: int) -> None:
        self.scalar_mult_adds += n

    def add(self, cost: tuple) -> None:
        """Add a precomputed cost (see the module docstring)."""
        mv, mm, equations, mult_adds, matmat_adds = cost
        self.matrix_vector_mults += mv
        self.matrix_matrix_mults += mm
        self.equation_evals += equations
        self.scalar_mult_adds += mult_adds
        self.matmat_mult_adds += matmat_adds

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

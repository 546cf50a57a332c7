"""Property test of the coefficient forms: identity, dense and factored
operands of random shapes.  Every product matches the dense result, keeps
the form contraction.factored_pays allows, and costs exactly what the closed
forms in contraction.py say, which is checked against the work numpy is
actually asked to do: the factors are Counted arrays, which log every
multiply, matmul and dot they take part in.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from logbel import FactoredMatrix, Identity, OpCounters
from logbel.contraction import _form, _rake_product, factored_pays, materialize, matvec_cost

KINDS = st.sampled_from(["identity", "dense", "factored"])
SIZES = st.integers(1, 7)


class Counted(np.ndarray):
    """An ndarray whose multiplies, matmuls and dots (ndarray.dot is not a
    ufunc, so it is overridden) are Counted arrays too, and, while
    measured() runs, add their work to Counted.work as a cost tuple
    (matrix-vector products, matrix-matrix products, 0, mult-adds, matmat
    mult-adds).  Any other ufunc gives a plain array, and fails while
    measured() runs."""

    work = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc not in (np.matmul, np.multiply):
            if Counted.work is not None:
                raise AssertionError(f"uncounted ufunc {ufunc.__name__}")
            return out
        if Counted.work is not None:
            if ufunc is np.matmul:
                count_product(*plain)
            else:
                Counted.work[3] += out.size
        return out.view(Counted)

    def dot(self, other):
        a, b = np.asarray(self), np.asarray(other)
        if Counted.work is not None:
            count_product(a, b)
        return a.dot(b).view(Counted)


def count_product(a, b):
    """Add the work of the matrix product a @ b to Counted.work."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 2 and b.ndim == 2:
        adds = a.shape[0] * a.shape[1] * b.shape[1]
        Counted.work[1] += 1
        Counted.work[4] += adds
    else:
        adds = a.size if a.ndim == 2 else b.size
        Counted.work[0] += 1
    Counted.work[3] += adds


def measured(thunk):
    Counted.work = [0, 0, 0, 0, 0]
    try:
        out = thunk()
        return out, tuple(Counted.work)
    finally:
        Counted.work = None


def counted(rng, shape):
    return rng.random(shape).view(Counted)


@st.composite
def operand_pairs(draw):
    """(kind_a, kind_b, K, M, C, widths, seed): a is K x M, b is M x C, and
    an identity is square."""
    kind_a, kind_b = draw(KINDS), draw(KINDS)
    M = draw(SIZES)
    K = M if kind_a == "identity" else draw(SIZES)
    C = M if kind_b == "identity" else draw(SIZES)
    widths = (draw(SIZES), draw(SIZES))
    return kind_a, kind_b, K, M, C, widths, draw(st.integers(0, 2**32 - 1))


def make(kind, rows, cols, width, rng):
    if kind == "identity":
        return Identity(rows)
    if kind == "dense":
        return counted(rng, (rows, cols))
    return FactoredMatrix(counted(rng, (rows, width)), counted(rng, (width, cols)))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(operand_pairs())
def test_products_match_dense_and_count_the_work_done(case):
    kind_a, kind_b, K, M, C, (width_a, width_b), seed = case
    rng = np.random.default_rng(seed)
    a = make(kind_a, K, M, width_a, rng)
    b = make(kind_b, M, C, width_b, rng)
    A, B = materialize(a), materialize(b)
    diag, right_vec, left_vec = (counted(rng, n) for n in (M, M, K))

    # coeff @ vec, coeff.dot(vec) and vec @ coeff
    for product, want in ((lambda: a @ right_vec, A @ right_vec),
                          (lambda: a.dot(right_vec), A @ right_vec),
                          (lambda: left_vec @ a, left_vec @ A)):
        got, work = measured(product)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert work == matvec_cost(_form(a))
    if kind_a == "identity":
        assert matvec_cost(_form(a)) == (0, 0, 0, 0, 0)

    # the rake product (a * diag) @ b, counted by contraction.rake_cost
    counters = OpCounters()
    got, work = measured(lambda: _rake_product(a, diag, b, counters))
    np.testing.assert_allclose(materialize(got), A @ np.diag(diag) @ B,
                               rtol=1e-12, atol=1e-12)
    assert (*counters.snapshot(), counters.matmat_mult_adds) == work
    if kind_a == kind_b == "identity":
        assert work == (0, 0, 0, 0, 0)
    if isinstance(got, FactoredMatrix):
        assert factored_pays(got.form)
    elif kind_a == "factored" or (kind_a == "identity" and kind_b == "factored"):
        # the factored result did not pay and was multiplied out
        rows, width = (a.left if kind_a == "factored" else b.left).shape
        assert not factored_pays(((rows, width), (width, C)))

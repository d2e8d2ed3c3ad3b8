"""The one elimination of wpoly.linalg, on matrices of ring elements."""

from helpers import backend_contexts, random_poly, rng_for
from wpoly.evaluate import lambda_matrix
from wpoly.linalg import kernel, km_invertible, rank, solve, span_contains

BACKENDS = backend_contexts()


def _apply(matrix, vec, zero):
    out = []
    for row in matrix:
        acc = zero
        for m, v in zip(row, vec):
            acc = acc + m * v
        out.append(acc)
    return out


def test_km_invertible_uses_left_row_operations():
    # row 2 = i * row 1 is a left multiple: the rows are dependent; row 2 =
    # row 1 * j is a right multiple only, and the matrix is invertible
    hq = BACKENDS["HQ"]
    one, i, j, k = hq.one, hq.i, hq.j, hq.k
    assert [i * v for v in (one, i)] == [i, -one]
    assert not km_invertible(hq, [[one, i], [i, -one]])
    assert [v * j for v in (one, i)] == [j, k]
    assert km_invertible(hq, [[one, i], [j, k]])
    assert rank([[one, i], [i, -one]], hq.one) == 1


def test_kernel_and_solve_over_f8_coordinates():
    ctx = BACKENDS["F8"]
    one, zero = ctx.base, ctx.zero
    rng = rng_for("linalg-f8", 12)
    kernels = 0
    for _ in range(12):
        f = random_poly(ctx, rng, 2, monic=True, min_deg=1)
        matrix = lambda_matrix(ctx, f, ctx.random_element(rng))
        ker = kernel(matrix, one)
        assert len(ker) + rank(matrix, one) == ctx.base_dim
        for vec in ker:
            assert not any(_apply(matrix, vec, zero))
        kernels += len(ker)
        y = ctx.to_vec(ctx.random_element(rng))
        rhs = _apply(matrix, y, zero)
        x = solve(matrix, rhs, one)
        assert x is not None and _apply(matrix, x, zero) == rhs
        rhs = list(ctx.to_vec(ctx.random_element(rng)))
        x = solve(matrix, rhs, one)
        if x is None:
            assert not span_contains([list(c) for c in zip(*matrix)], rhs, one)
        else:
            assert _apply(matrix, x, zero) == rhs
    assert kernels

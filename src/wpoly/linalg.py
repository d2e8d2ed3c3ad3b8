"""Exact linear algebra.

Two layers: Gauss-Jordan elimination over a commutative base-field adapter
(Fraction scalars or ints mod p), and order-aware row reduction for matrices
with entries in a possibly noncommutative coefficient ring.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# matrices over a base-field adapter: list of rows of scalars

def rref(rows, base):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not base.is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = base.inv(rows[r][c])
        rows[r] = [base.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not base.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [base.sub(v, base.mul(factor, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows, base):
    return len(rref(rows, base)[1])


def kernel(rows, base):
    """Basis of the right null space {v : M v = 0} as tuples of scalars."""
    ncols = len(rows[0])
    red, pivots = rref(rows, base)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [base.zero] * ncols
        v[fc] = base.one
        for r, pc in enumerate(pivots):
            v[pc] = base.sub(base.zero, red[r][fc])
        basis.append(tuple(v))
    return basis


def solve(rows, rhs, base):
    """One solution of M x = rhs with free variables set to zero, or None."""
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, base)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [base.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def span_contains(span_rows, vec, base):
    """Whether vec lies in the row span of span_rows."""
    if not span_rows:
        return all(base.is_zero(v) for v in vec)
    before = rank(span_rows, base)
    after = rank(list(span_rows) + [list(vec)], base)
    return before == after


# ---------------------------------------------------------------------------
# matrices over the coefficient ring K: list of rows of elements

def km_mul(ctx, A, B):
    n, m = len(A), len(B[0])
    inner = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ctx.zero
            for l in range(inner):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def km_map(A, fn):
    return [[fn(v) for v in row] for row in A]


def km_add(ctx, A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def km_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def km_scale_cols_right(A, scalars):
    return [[v * s for v, s in zip(row, scalars)] for row in A]


def km_invertible(ctx, A):
    """Invertibility over a division ring via left row reduction."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    rows = [list(r) for r in A]
    for c in range(n):
        pivot = next((i for i in range(c, n) if not ctx.is_zero(rows[i][c])), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = ctx.inv(rows[c][c])
        rows[c] = [inv * v for v in rows[c]]
        for i in range(c + 1, n):
            if not ctx.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[c])]
    return True

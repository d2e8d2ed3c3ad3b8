"""Exact linear algebra over a division ring.

Matrices are lists of rows of ring elements with their own operators:
Fractions, finite field elements, rational functions or quaternions.
One Gauss-Jordan elimination serves them all.  It uses left row
operations only (row <- c*row, row <- row - c*pivot_row), which are valid
over a noncommutative division ring and keep the right null space
{v : M v = 0}.  Each function takes the field's unit ``one``; zeros are
tested by truthiness.
"""

from __future__ import annotations


def rref(rows, one):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = one / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows, one):
    return len(rref(rows, one)[1])


def kernel(rows, one):
    """Basis of the right null space {v : M v = 0} as tuples."""
    ncols = len(rows[0])
    red, pivots = rref(rows, one)
    pivot_set = set(pivots)
    zero = one - one
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs, one):
    """One solution of M x = rhs with free variables set to zero, or None."""
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, one)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [one - one] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def span_contains(span_rows, vec, one):
    """Whether vec lies in the row span of span_rows."""
    if not span_rows:
        return not any(vec)
    return rank(span_rows, one) == rank(list(span_rows) + [list(vec)], one)


# ---------------------------------------------------------------------------
# matrix arithmetic over the coefficient ring K

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
    """Invertibility over a division ring: square of full rank."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    return rank(A, ctx.one) == n

"""Exact Gauss–Jordan elimination over a division ring.

The one elimination routine of the package.  Entries are rationals
(Fraction) or quaternions of one algebra, with left row operations only, so
the right null space of the rows is preserved.  The routine never asks
which ring it works in: the entries themselves say it, because both types
mix with int.  `bool(x)` tests x != 0, `1 / x` is the inverse of a pivot, and
`0 * x` and `0 * x + 1` are the zero and the one of x's ring.
"""

from typing import Optional


def _zero_one(entry):
    """The zero and the one of the ring `entry` belongs to."""
    zero = 0 * entry
    return zero, zero + 1


def rref(rows: list[list], pivot_cols: Optional[int] = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of a copy of `rows`.

    Returns (R, pivots) where pivots[i] is the column of the pivot in row i.
    Pivot choice is deterministic: first nonzero entry in column order.
    Pivots are sought only in the first `pivot_cols` columns (default: all),
    so an augmented [A | B] is reduced with pivots in A alone.
    """
    mat = [list(row) for row in rows]
    nrows = len(mat)
    if pivot_cols is None:
        pivot_cols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    pr = 0
    for c in range(pivot_cols):
        pivot_row = next((r for r in range(pr, nrows) if mat[r][c]), None)
        if pivot_row is None:
            continue
        mat[pr], mat[pivot_row] = mat[pivot_row], mat[pr]
        inv = 1 / mat[pr][c]
        mat[pr] = [inv * v for v in mat[pr]]
        for r in range(nrows):
            if r != pr and mat[r][c]:
                f = mat[r][c]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[pr])]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return mat, pivots


def kernel(rows: list[list]) -> list[list]:
    """Canonical basis of the right null space {x : rows*x = 0}.

    Basis vectors are indexed by free columns in ascending order; the vector
    for free column f has x_f = 1 and x_p = -R[i][f] at each pivot column p.
    """
    red, pivots = rref(rows)
    zero, one = _zero_one(rows[0][0])
    ncols = len(rows[0])
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [zero] * ncols
        vec[f] = one
        for i, p in enumerate(pivots):
            vec[p] = -red[i][f]
        basis.append(vec)
    return basis


def solve(rows: list[list], rhs: list) -> Optional[list]:
    """Particular solution of rows*x = rhs with free variables set to 0, or None."""
    ncols = len(rows[0])
    red, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in red[len(pivots):]):
        return None
    zero, _ = _zero_one(rows[0][0])
    sol = [zero] * ncols
    for i, p in enumerate(pivots):
        sol[p] = red[i][ncols]
    return sol

"""Dense exact linear algebra over Q(v).

Matrices are lists of lists of RatFunc.  Pivoting is first-nonzero, so
echelon forms, kernels and solutions are deterministic.
"""

from __future__ import annotations

from .ratfunc import ONE, ZERO


def rref(rows: list) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows: list, ncols: int) -> list:
    """Deterministic kernel basis (one vector per free column)."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(rows: list, rhs: list):
    """Solve A x = b; returns None when inconsistent, else the unique
    solution on pivot columns with free columns set to zero."""
    if not rows:
        return None if any(b for b in rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def row_space_rref(rows: list) -> list:
    """Canonical basis of the row space (nonzero rows of the rref)."""
    red, pivots = rref(rows)
    return [red[i] for i in range(len(pivots))]


def same_span(rows_a: list, rows_b: list, ncols: int) -> bool:
    """Exact equality of two row spans inside Q(v)^ncols."""
    a = row_space_rref([list(r) for r in rows_a]) if rows_a else []
    b = row_space_rref([list(r) for r in rows_b]) if rows_b else []
    return a == b

"""Dense exact linear algebra over any field.

A field is an object with `zero`, `one`, `inv`, `mul`, `sub` and `neg`:
`hall.Fq` is one, and `QV` (Q(v)) adapts the Python operators of
`RatFunc`.  Matrices are lists of rows.  Pivoting is first-nonzero, so
echelon forms and kernels are deterministic.
"""

from __future__ import annotations

import operator

from .ratfunc import ONE, ZERO


class OperatorField:
    """A field whose elements multiply, subtract and negate with Python's
    operators; only the inverse is passed in."""

    mul, sub, neg = operator.mul, operator.sub, operator.neg

    def __init__(self, zero, one, inv):
        self.zero, self.one, self.inv = zero, one, inv


QV = OperatorField(ZERO, ONE, operator.methodcaller("inverse"))


def rref(F, rows: list) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    inv, mul, sub = F.inv, F.mul, F.sub
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        s = inv(m[r][c])
        m[r] = [mul(s, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [sub(a, mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(F, rows: list, ncols: int) -> list:
    """Deterministic kernel basis (one vector per free column); with no
    rows, the unit vectors."""
    red, pivots = rref(F, rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [F.zero] * ncols
        vec[fc] = F.one
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg(red[r][fc])
        basis.append(vec)
    return basis


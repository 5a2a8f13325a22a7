"""Dense exact linear algebra over any field.

A field is an object with `zero`, `one`, `inv`, `mul`, `sub` and `neg`:
`hall.Fq` is one, and `QV` (Q(v)) and `QQ` (Q) adapt the Python operators
of `RatFunc` and `Fraction`.  Matrices are lists of rows.  Pivoting is
first-nonzero, so echelon forms, kernels, inverses and solutions are
deterministic.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .ratfunc import ONE, ZERO


class OperatorField:
    """A field whose elements multiply, subtract and negate with Python's
    operators; only the inverse is passed in."""

    mul, sub, neg = operator.mul, operator.sub, operator.neg

    def __init__(self, zero, one, inv):
        self.zero, self.one, self.inv = zero, one, inv


QV = OperatorField(ZERO, ONE, operator.methodcaller("inverse"))
QQ = OperatorField(Fraction(0), Fraction(1), lambda x: 1 / x)


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


def solve(F, rows: list, rhs: list):
    """Solve A x = b; returns None when inconsistent, else the unique
    solution on pivot columns with free columns set to zero."""
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    red, pivots = rref(F, [[*r, b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [F.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def inverse(F, rows: list) -> list:
    """Inverse of a square matrix; ValueError when it is singular."""
    n = len(rows)
    aug = [
        [*r, *(F.one if i == j else F.zero for j in range(n))]
        for i, r in enumerate(rows)
    ]
    red, pivots = rref(F, aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]

"""Helpers that only the tests use: a scalar parser, the field Q with a
matrix inverse and a linear solve over any field of qhall.linalg, and
strategies that draw Laurent polynomials and Q(v) values."""

from fractions import Fraction

import hypothesis.strategies as st

from qhall.cartan import A2
from qhall.exprs import parse_expr
from qhall.linalg import OperatorField, rref
from qhall.ratfunc import IntPoly, RatFunc

QQ = OperatorField(Fraction(0), Fraction(1), lambda x: 1 / x)

polys = st.dictionaries(
    st.integers(-4, 4), st.integers(-9, 9), max_size=4
).map(IntPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuncs = st.builds(RatFunc, polys, nonzero_polys)
# constant denominators such as 1/2 keep a non-unit denominator through
# the unit-monomial product
const_den_ratfuncs = st.builds(
    RatFunc, polys, st.integers(-6, 6).filter(bool).map(IntPoly.const)
)
laurent_polys = st.builds(RatFunc, nonzero_polys)


def parse_scalar(src: str) -> RatFunc:
    """A Q(v) value written in the expression grammar."""
    val = parse_expr(A2, src)
    if not isinstance(val, RatFunc):
        raise ValueError("expected a scalar expression")
    return val


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

"""The shared exact elimination over F_q and Q, against the forward-only
rank of the Hall oracle as an independent reference."""

import random
from fractions import Fraction
from itertools import product

import pytest

from qhall.hall import field, mat_rank
from qhall.linalg import nullspace, rref

from helpers import QQ, inverse


def mat_mul(F, a, b):
    """The product of two matrices over F, entry by entry."""
    cols = list(zip(*b))
    return tuple(tuple(_dot(F, row, col) for col in cols) for row in a)


def _dot(F, xs, ys):
    out = 0
    for x, y in zip(xs, ys):
        out = F.add(out, F.mul(x, y))
    return out


def _all_square(q, n):
    for flat in product(range(q), repeat=n * n):
        yield tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n))


def _random_square(q, n, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))


CASES = [
    pytest.param(2, list(_all_square(2, 2)), id="F2-all-2x2"),
    pytest.param(3, list(_all_square(3, 2)), id="F3-all-2x2"),
    pytest.param(4, list(_random_square(4, 3, 200, seed=11)), id="F4-random-3x3"),
]


@pytest.mark.parametrize("q, mats", CASES)
def test_inverse_exactly_on_full_rank(q, mats):
    F = field(q)
    for a in mats:
        n = len(a)
        if mat_rank(F, a) == n:
            ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            assert mat_mul(F, inverse(F, a), a) == ident
        else:
            with pytest.raises(ValueError, match="singular"):
                inverse(F, a)


@pytest.mark.parametrize("q, mats", CASES)
def test_nullspace_is_killed_and_has_corank_size(q, mats):
    F = field(q)
    for a in mats:
        n = len(a)
        kern = nullspace(F, a, n)
        assert len(kern) == n - mat_rank(F, a)
        for vec in kern:
            assert mat_mul(F, a, tuple((x,) for x in vec)) == tuple((0,) for _ in a)
        if kern:
            assert mat_rank(F, kern) == len(kern)


def test_rational_inverse_and_singular_matrix():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert inverse(QQ, a) == [[1, -1], [-1, 2]]
    with pytest.raises(ValueError, match="singular"):
        inverse(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def _row_space(F, rows):
    """The nonzero rows of the rref: one basis per row space."""
    red, pivots = rref(F, rows)
    return red[: len(pivots)]


def _matrix(rng, nrows, ncols):
    return [[Fraction(rng.randint(-1, 1)) for _ in range(ncols)] for _ in range(nrows)]


def test_rational_nullspace_is_fixed_by_the_kernel():
    # the rref of A is fixed by its row space (ker A)^perp, so nullspace(A)
    # depends only on ker A; B = M A has ker B containing ker A, equal
    # exactly when the row spaces are
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        a = _matrix(rng, rng.randint(0, 3), n)
        if rng.random() < 0.5:
            m = _matrix(rng, rng.randint(0, 3), len(a))
            b = [
                [sum((c * r[j] for c, r in zip(row, a)), Fraction(0)) for j in range(n)]
                for row in m
            ]
        else:
            b = _matrix(rng, rng.randint(0, 3), n)
        same = nullspace(QQ, a, n) == nullspace(QQ, b, n)
        assert same == (_row_space(QQ, a) == _row_space(QQ, b)), (a, b)
        seen.add(same)
    assert seen == {True, False}

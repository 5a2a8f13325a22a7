"""Reference values computed without the package under test.

Everything here is plain integer arithmetic on type A_n written out by
hand: positive roots are the intervals e_i + ... + e_j, the dimension of
f_nu is the number of ways to write nu as a sum of positive roots
(Kostant's partition function, which by Gabriel's theorem also counts
iso-classes of representations of an A_n quiver), and the Hall counting
identity is checked through orders of general linear groups and the
Gaussian binomials in q.
"""

from __future__ import annotations

from functools import lru_cache


def positive_roots_a(rank: int) -> tuple:
    """Positive roots of A_rank as 0/1 vectors: contiguous runs of ones."""
    out = []
    for i in range(rank):
        for j in range(i, rank):
            out.append(tuple(1 if i <= k <= j else 0 for k in range(rank)))
    return tuple(out)


def kostant_count_a(nu: tuple) -> int:
    """Number of multisets of positive roots of A_n summing to nu."""
    return _partitions(positive_roots_a(len(nu)), tuple(nu))


@lru_cache(maxsize=None)
def _partitions(roots: tuple, rest: tuple) -> int:
    if not any(rest):
        return 1
    if not roots:
        return 0
    first, others = roots[0], roots[1:]
    total = 0
    while all(x >= 0 for x in rest):
        total += _partitions(others, rest)
        rest = tuple(x - r for x, r in zip(rest, first))
    return total


def vectors_upto(bound: tuple):
    """Every nonnegative integer vector componentwise at most the bound."""
    if not bound:
        return [()]
    return [
        (x,) + rest for x in range(bound[0] + 1) for rest in vectors_upto(bound[1:])
    ]


def vectors_of_height_upto(rank: int, top: int):
    """Every nonnegative vector of the given length with entry sum <= top."""
    return [v for v in vectors_upto((top,) * rank) if sum(v) <= top]


def gl_order(q: int, n: int) -> int:
    """|GL_n(F_q)| = prod_{k<n} (q^n - q^k)."""
    out = 1
    for k in range(n):
        out *= q**n - q**k
    return out


def group_order(q: int, dims: tuple) -> int:
    out = 1
    for n in dims:
        out *= gl_order(q, n)
    return out


def rep_space_dim(vertices: tuple, arrows: tuple, dims: tuple) -> int:
    """dim E_V = sum over arrows s -> t of d_s d_t."""
    idx = {v: k for k, v in enumerate(vertices)}
    return sum(dims[idx[s]] * dims[idx[t]] for s, t in arrows)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for r in range(k):
        num *= q ** (n - r) - 1
        den *= q ** (r + 1) - 1
    return num // den


def hall_identity_rhs(
    vertices: tuple, arrows: tuple, q: int, d: tuple, e: tuple, orbit_l: int,
    orbit_n: int,
) -> int:
    """|O_L| |O_N| q^{sum_{s->t} (d_s - e_s) e_t} prod_i [d_i choose e_i]_q,
    the number of points of E_d with a stable subspace U of dimension e,
    U isomorphic to L and the quotient to N."""
    idx = {v: k for k, v in enumerate(vertices)}
    extension = sum((d[idx[s]] - e[idx[s]]) * e[idx[t]] for s, t in arrows)
    subspaces = 1
    for di, ei in zip(d, e):
        subspaces *= gaussian_binomial(di, ei, q)
    return orbit_l * orbit_n * q**extension * subspaces

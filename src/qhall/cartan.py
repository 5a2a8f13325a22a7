"""Quivers, symmetric Cartan data, and reflections on weights/coweights.

Vertices carry a total order (their input order); dimension vectors and
coweights are tuples aligned with that order.  All values are immutable
and hashable, which lets the heavier modules memoize on the datum.  A
datum is its vertices and Cartan matrix: every orientation of a graph
loads the same datum, so they all share the symbolic memos.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, neg, sub


def _store_hash(obj, fields: tuple) -> None:
    """Keep the hash the frozen dataclass would compute, hash of the field
    tuple, so that memos keyed on the value do not rehash its tuples."""
    object.__setattr__(obj, "_hash", hash(fields))


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("quiver has no vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        vs = set(self.vertices)
        for s, t in self.arrows:
            if s == t:
                raise ValueError(f"loop at vertex {s} is not allowed")
            if s not in vs or t not in vs:
                raise ValueError(f"arrow {s}->{t} uses an unknown vertex")
        _store_hash(self, (self.vertices, self.arrows))

    def __hash__(self):
        return self._hash

    def index(self, vertex: int) -> int:
        try:
            return self.vertices.index(vertex)
        except ValueError:
            raise ValueError(
                f"unknown vertex {vertex}; the vertices are "
                + ", ".join(map(str, self.vertices))
            ) from None

    def euler_form(self, a: tuple, b: tuple) -> int:
        total = sum(map(mul, a, b))
        for s, t in self.arrows:
            total -= a[self.index(s)] * b[self.index(t)]
        return total

    def reversed_arrows(self, subset: frozenset[int]) -> "Quiver":
        arrows = tuple(
            (t, s) if k in subset else (s, t) for k, (s, t) in enumerate(self.arrows)
        )
        return Quiver(self.vertices, arrows)


def quiver_from_shorthand(text: str) -> Quiver:
    """Parse "1->2,2->3" style quiver descriptions."""
    arrows = []
    vertices = []
    seen = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            s, t = map(int, part.split("->"))
        except ValueError:
            raise ValueError(
                f"bad arrow spec {part!r}: expected <source>-><target>, "
                "and vertex ids must be integers"
            ) from None
        for x in (s, t):
            if x not in seen:
                seen.add(x)
                vertices.append(x)
        arrows.append((s, t))
    return Quiver(tuple(sorted(vertices)), tuple(arrows))


def quiver_from_json(obj) -> Quiver:
    if not isinstance(obj, dict):
        raise ValueError("quiver JSON must be an object with 'vertices' and 'arrows'")
    for key in ("vertices", "arrows"):
        if key not in obj:
            raise ValueError(f"quiver JSON has no {key!r} key")
    vertices, arrows = obj["vertices"], obj["arrows"]
    if not isinstance(vertices, list) or not all(type(x) is int for x in vertices):
        raise ValueError(
            "quiver JSON 'vertices' must be a list of integer vertex ids, "
            f"got {json.dumps(vertices)}"
        )
    if not isinstance(arrows, list):
        raise ValueError(
            "quiver JSON 'arrows' must be a list of [source, target] pairs, "
            f"got {json.dumps(arrows)}"
        )
    for arrow in arrows:
        if not (
            isinstance(arrow, list)
            and len(arrow) == 2
            and all(type(x) is int for x in arrow)
        ):
            raise ValueError(
                f"quiver JSON arrow {json.dumps(arrow)} is not a "
                "[source, target] pair of integer vertex ids"
            )
    return Quiver(tuple(vertices), tuple(map(tuple, arrows)))


def load_quiver(spec: str) -> Quiver:
    """Accepts a JSON file path, a JSON literal, or arrow shorthand."""
    text = spec.strip()
    if text.startswith("{"):
        return quiver_from_json(json.loads(text))
    if text.endswith(".json"):
        try:
            with open(text) as fh:
                return quiver_from_json(json.load(fh))
        except OSError as e:
            raise ValueError(f"cannot read quiver file {text}: {e.strerror or e}") from None
        except ValueError as e:
            # malformed JSON, text that does not decode, or a bad schema
            raise ValueError(f"quiver file {text}: {e}") from None
    return quiver_from_shorthand(text)


@dataclass(frozen=True)
class CartanDatum:
    vertices: tuple[int, ...]
    cartan: tuple[tuple[int, ...], ...]
    # the quiver it was loaded from, for the Hall side: not in the value
    quiver: Quiver = field(compare=False, repr=False)

    def __post_init__(self):
        _store_hash(self, (self.vertices, self.cartan))

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.vertices)

    index = Quiver.index  # reads only the vertices

    def a(self, i: int, j: int) -> int:
        return self.cartan[self.index(i)][self.index(j)]

    def zero_vec(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def unit_vec(self, vertex: int) -> tuple[int, ...]:
        e = [0] * self.rank
        e[self.index(vertex)] = 1
        return tuple(e)

    def sym_form(self, x: tuple, y: tuple) -> int:
        """Symmetric bilinear form sum x_i a_ij y_j on the root lattice
        (and, with the same matrix, on coweights)."""
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = self.cartan[i]
                for j, yj in enumerate(y):
                    if yj:
                        total += xi * row[j] * yj
        return total

    def alpha_eval(self, vertex: int, mu: tuple) -> int:
        """alpha_vertex(mu) for a coweight mu in coroot coordinates."""
        col = self.index(vertex)
        return sum(m * row[col] for m, row in zip(mu, self.cartan))

    def reflect_dim(self, vertex: int, nu: tuple) -> tuple:
        i = self.index(vertex)
        drop = sum(self.cartan[i][j] * nu[j] for j in range(self.rank))
        out = list(nu)
        out[i] -= drop
        return tuple(out)

    def reflect_coweight(self, vertex: int, mu: tuple) -> tuple:
        i = self.index(vertex)
        a = self.alpha_eval(vertex, mu)
        out = list(mu)
        out[i] -= a
        return tuple(out)

    def weight_of_word(self, word: tuple) -> tuple:
        out = [0] * self.rank
        for letter in word:
            out[self.index(letter)] += 1
        return tuple(out)


def load_datum(quiver: Quiver) -> CartanDatum:
    """Symmetric Cartan matrix of a quiver: 2 on the diagonal, minus the
    number of arrows between distinct vertices off it."""
    n = len(quiver.vertices)
    idx = {v: k for k, v in enumerate(quiver.vertices)}
    counts = [[0] * n for _ in range(n)]
    for s, t in quiver.arrows:
        counts[idx[s]][idx[t]] += 1
    cartan = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(2)
            else:
                row.append(-(counts[i][j] + counts[j][i]))
        cartan.append(tuple(row))
    return CartanDatum(quiver.vertices, tuple(cartan), quiver)


def sigma_i(vertex: int, quiver: Quiver) -> Quiver:
    """Reverse every arrow incident to the given vertex."""
    subset = frozenset(
        k for k, (s, t) in enumerate(quiver.arrows) if vertex in (s, t)
    )
    return quiver.reversed_arrows(subset)


def sigma_E(subset, quiver: Quiver) -> Quiver:
    """Reverse the arrows whose indices lie in the subset."""
    return quiver.reversed_arrows(frozenset(subset))


def is_sink(vertex: int, quiver: Quiver) -> bool:
    return all(s != vertex for s, _ in quiver.arrows)


def is_source(vertex: int, quiver: Quiver) -> bool:
    return all(t != vertex for _, t in quiver.arrows)


def add_vec(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def sub_vec(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def scale_vec(n: int, a: tuple) -> tuple:
    return tuple(n * x for x in a)


def neg_vec(a: tuple) -> tuple:
    return tuple(map(neg, a))


def height(a: tuple) -> int:
    return sum(a)


def dims_upto(bound: tuple):
    """All dimension vectors componentwise at most the bound."""
    if not bound:
        yield ()
        return
    for rest in dims_upto(bound[1:]):
        for x in range(bound[0] + 1):
            yield (x,) + rest


def dims_of_height(rank: int, total: int):
    """All nonnegative vectors of the given length summing to total."""
    if rank == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in dims_of_height(rank - 1, total - first):
            yield (first,) + rest


def _positive_definite(datum: CartanDatum) -> bool:
    """Whether the symmetric Cartan matrix is positive definite, which is
    when every connected component is a Dynkin diagram and the root
    system is finite (Gabriel 1972; Bernstein, Gelfand and Ponomarev
    1973).  Sylvester's criterion by one elimination over Q: on a
    symmetric matrix every pivot is a ratio of two leading principal
    minors, so all of them are positive exactly when the minors are."""
    m = [[Fraction(x) for x in row] for row in datum.cartan]
    for k, pivot_row in enumerate(m):
        pivot = pivot_row[k]
        if pivot <= 0:
            return False
        for row in m[k + 1 :]:
            f = row[k] / pivot
            if f:
                for j in range(k, len(row)):
                    row[j] -= f * pivot_row[j]
    return True


@lru_cache(maxsize=32)
def positive_roots(datum: CartanDatum):
    """Closure of the simple roots under reflections, sorted; None when
    the symmetric Cartan matrix is not positive definite, where the
    closure never ends."""
    if not _positive_definite(datum):
        return None
    roots = {datum.unit_vec(i) for i in datum.vertices}
    new = roots
    while new:
        reflected = {datum.reflect_dim(i, r) for r in new for i in datum.vertices}
        new = {r for r in reflected if min(r) >= 0 and any(r)} - roots
        roots |= new
    return tuple(sorted(roots))


def kostant_partitions(roots: tuple, nu: tuple):
    """Every way to write nu as a sum of the given roots, with repetition
    and without regard to order: the multiplicity of each root, aligned
    with roots."""

    def rec(k: int, rem: tuple):
        if not any(rem):
            yield (0,) * (len(roots) - k)
            return
        if k == len(roots):
            return
        r = roots[k]
        n, cur = 0, rem
        while all(x >= 0 for x in cur):
            for rest in rec(k + 1, cur):
                yield (n, *rest)
            n, cur = n + 1, sub_vec(cur, r)

    return rec(0, nu)


# the Hall class budgets and tables ask per orientation and dimension
# vector: A3 `verify all` fills 90 entries, and E6 `verify hall` at hall
# bound (1,1,1,0,0,0) all 256, recomputing none it evicts
@lru_cache(maxsize=256)
def kostant_count(roots: tuple, nu: tuple) -> int:
    """Number of Kostant partitions of nu over the given roots, counted
    without listing them: after each root, the ways to each remainder."""
    ways = {nu: 1}
    for r in roots:
        after: dict = {}
        for rem, n in ways.items():
            while min(rem) >= 0:
                after[rem] = after.get(rem, 0) + n
                rem = sub_vec(rem, r)
        ways = after
    return ways.get((0,) * len(nu), 0)


# keyed by the Cartan matrix, which all orientations share: run_verify.py
# fills 826 entries, a symbolic-verify round 96, the u-queries stream 51
@lru_cache(maxsize=1024)
def weyl_kac_dim(cartan: tuple, nu: tuple) -> int:
    """dim f_nu for a Cartan matrix, from the Weyl-Kac denominator identity
    sum_w (-1)^l(w) dim f_{nu - b_w} = [nu = 0], b_w = rho - w rho (Kac,
    Infinite Dimensional Lie Algebras, ch. 10).  The shifts b_w <= nu are
    walked from b_1 = 0 by b_{s_k w} = b_w + (1 - (A b_w)_k) alpha_k, a
    step that lengthens w exactly when its coefficient is positive."""
    if not any(nu):
        return 1
    signs, layer = {}, {(0,) * len(nu): 1}
    while layer:
        nxt: dict = {}
        for beta, sign in layer.items():
            for k, row in enumerate(cartan):
                c = 1 - sum(map(mul, row, beta))
                if 0 < c <= nu[k] - beta[k]:
                    nxt[beta[:k] + (beta[k] + c,) + beta[k + 1 :]] = -sign
        signs |= nxt
        layer = nxt
    return -sum(s * weyl_kac_dim(cartan, sub_vec(nu, b)) for b, s in signs.items())


A2 = load_datum(quiver_from_shorthand("1->2"))
A3 = load_datum(quiver_from_shorthand("1->2,2->3"))

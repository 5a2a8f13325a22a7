"""Finite-field oracle: quiver representations over F_q and their Hall
algebra, used to cross-check the symbolic structure constants.

Points of the representation variety are tuples of matrices (one per
arrow, entries 0..q-1), and the canonical representative of an iso-class
is the lexicographically least point of its orbit under the product of
general linear groups.  On Dynkin quivers classes are told apart by the
dimensions of Hom from the indecomposables, which are built from simples
by reflection functors, and the class table of a dimension vector is
built from its Kostant partitions without enumerating any point; only
`iso_classes`, which returns least points, walks the space.  On other
quivers classes come from orbit search.  Hall elements are keyed by
class key, and their product is read per pair of classes from one memo
of twisted structure constants at v = sqrt(q).

Every public function that takes a budget checks the size of each
enumeration its call can reach (points, orbit searches, class tables and
graded subspaces) before it reads any memo, and fails fast.  The memos
depend on the quiver, q and class data alone, and build unchecked below
that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, product
from math import isqrt
from types import MappingProxyType

from .cartan import (
    Quiver,
    add_vec,
    is_sink,
    is_source,
    kostant_count,
    kostant_partitions,
    load_datum,
    positive_roots,
    sigma_i,
    sub_vec,
)
from .falgebra import normal_form
from .freealg import FreeElement, words_of_weight
from .linalg import nullspace
from .lincomb import LinComb, bilinear, linear
from .ratfunc import ONE as RF_ONE

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    def __init__(self, needed: int, budget: int, unit: str = "points"):
        super().__init__(
            f"enumeration needs about {needed} {unit} but the budget is "
            f"{budget}; rerun with smaller dimensions or a larger --budget"
        )
        self.needed = needed
        self.budget = budget


# ---------------------------------------------------------------------------
# the field


def _poly_mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_rem(a, b, p):
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        off = len(a) - len(b)
        for j, y in enumerate(b):
            a[off + j] = (a[off + j] - c * y) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _find_irreducible(p: int, d: int):
    """Smallest monic irreducible of degree d over F_p, by encoding order."""
    for code in range(p ** d):
        coeffs = [(code // p ** k) % p for k in range(d)] + [1]
        if _irreducible(coeffs, p):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")


def _irreducible(f, p):
    """Trial division by every monic polynomial of degree 1 to deg f / 2."""
    for k in range(1, (len(f) - 1) // 2 + 1):
        for code in range(p ** k):
            if not _poly_rem(f, [(code // p ** j) % p for j in range(k)] + [1], p):
                return False
    return True


def _prime_power(q: int) -> tuple:
    """(p, d) with q = p^d, for a field size q the tables of Fq can hold;
    ValueError for any other q."""
    if q < 2 or q > 256:
        raise ValueError("field size must be between 2 and 256")
    p = next(k for k in range(2, q + 1) if q % k == 0)  # least prime factor
    d = 1
    while p ** d < q:
        d += 1
    if p ** d != q:
        raise ValueError(f"{q} is not a prime power")
    return p, d


class Fq:
    """The field with q = p^d elements; elements are ints 0..q-1 encoding
    polynomial residues base p.  Multiplication runs on log/antilog
    tables built from a primitive element (q <= 256)."""

    zero, one = 0, 1

    def __init__(self, q: int):
        p, d = _prime_power(q)
        self.p, self.d, self.q = p, d, q
        self.modulus = _find_irreducible(p, d) if d > 1 else None
        self._add = [[self._add_slow(a, b) for b in range(q)] for a in range(q)]
        self._neg = [next(b for b in range(q) if self._add[a][b] == 0) for a in range(q)]
        gen = self._find_generator()
        self.exp = [1] * (q - 1)
        self.log = [0] * q
        acc = 1
        for k in range(q - 1):
            self.exp[k] = acc
            self.log[acc] = k
            acc = self._mul_slow(acc, gen)
        self._verify()

    def _digits(self, a):
        return [(a // self.p ** k) % self.p for k in range(self.d)]

    def _undigits(self, ds):
        return sum(c * self.p ** k for k, c in enumerate(ds))

    def _add_slow(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def _mul_slow(self, a, b):
        if self.d == 1:
            return (a * b) % self.p
        prod = _poly_mul_mod(self._digits(a), self._digits(b), self.p)
        return self._undigits(_poly_rem(prod, self.modulus, self.p))

    def _find_generator(self):
        for g in range(1, self.q):
            acc, order = g, 1
            while acc != 1:
                acc = self._mul_slow(acc, g)
                order += 1
            if order == self.q - 1:
                return g
        raise RuntimeError("no multiplicative generator found")

    def _verify(self):
        q = self.q
        sample = range(q) if q <= 32 else [0, 1, 2, q // 2, q - 1]
        for a in sample:
            for b in sample:
                ab = self.mul(a, b)
                if ab != self.mul(b, a) or self.add(a, b) != self.add(b, a):
                    raise RuntimeError("field tables are not commutative")
                for c in sample:
                    if self.mul(a, self.add(b, c)) != self.add(
                        self.mul(a, b), self.mul(a, c)
                    ):
                        raise RuntimeError("distributivity fails")
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        raise RuntimeError("associativity fails")
        for a in range(1, q):
            if self.mul(a, self.inv(a)) != 1:
                raise RuntimeError("inverses fail")

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[(-self.log[a]) % (self.q - 1)]


# a hall run uses its few q (three by default); a q = 256 field holds
# 2^16 addition entries, so the bound keeps few of them
@lru_cache(maxsize=8)
def field(q: int) -> Fq:
    return Fq(q)


# ---------------------------------------------------------------------------
# matrices over Fq: tuples of row tuples


def mat_rank(F: Fq, a) -> int:
    """Rank by forward elimination (no back substitution)."""
    rows = [list(r) for r in a if any(r)]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pivot = rows[rank]
        inv = F.inv(pivot[c])
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                f = F.mul(f, inv)
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], pivot)]
        rank += 1
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class QuiverRep:
    quiver: Quiver
    q: int
    dims: tuple
    mats: tuple  # one matrix per arrow, shape dims[t] x dims[s]


def _arrow_shapes(quiver: Quiver, dims: tuple):
    idx = {v: k for k, v in enumerate(quiver.vertices)}
    return [
        (dims[idx[t]], dims[idx[s]]) for s, t in quiver.arrows
    ]


def e_v_dimension(quiver: Quiver, dims: tuple) -> int:
    return sum(r * c for r, c in _arrow_shapes(quiver, dims))


def _zero_point(quiver: Quiver, dims: tuple) -> tuple:
    """The point of E_V whose matrices are all zero."""
    shapes = _arrow_shapes(quiver, dims)
    return tuple(tuple((0,) * c for _ in range(r)) for r, c in shapes)


def require_budget(quiver: Quiver, q: int, dims: tuple, budget: int) -> None:
    """Raise BudgetExceeded when walking the q^dim(E_V) points of the
    representation space would pass the budget."""
    needed = q ** e_v_dimension(quiver, dims)
    if needed > budget:
        raise BudgetExceeded(needed, budget)


def require_class_budget(quiver: Quiver, q: int, dims: tuple, budget: int) -> None:
    """Raise BudgetExceeded when building the class table of dims would
    pass the budget: on Dynkin data it counts the classes, one per Kostant
    partition, elsewhere the q^dim(E_V) points orbit search walks."""
    bricks = _bricks(quiver, q)
    if bricks is None:
        require_budget(quiver, q, dims, budget)
    elif (needed := kostant_count(bricks.roots, dims)) > budget:
        raise BudgetExceeded(needed, budget, "classes")


def _points(quiver: Quiver, q: int, dims: tuple):
    """Every point of the representation space, in the order of `<` on
    points: arrows in order, each matrix row by row."""
    shapes = _arrow_shapes(quiver, dims)
    rows = [product(range(q), repeat=c) for r, c in shapes for _ in range(r)]
    for flat in product(*rows):
        it = iter(flat)
        yield tuple(tuple(islice(it, r)) for r, _c in shapes)


def all_points(quiver: Quiver, q: int, dims: tuple, budget: int = DEFAULT_BUDGET):
    """`_points` once the budget is met."""
    require_budget(quiver, q, dims, budget)
    return _points(quiver, q, dims)


# one entry per (quiver, q, dims) the orbit route searches: 58 in the
# Kronecker `verify hall`, none on Dynkin data
@lru_cache(maxsize=128)
def _group_generators(quiver: Quiver, q: int, dims: tuple):
    """Generators of prod GL(V_k) as (k, i, j), meaning g = I + c E_ij on
    V_k: the transvection with c = 1 when i != j, and diag(zeta, 1, ...,
    1) with zeta primitive, c = zeta - 1, when i = j = 0 (left out at
    q = 2).  They generate each GL_n(F_q): conjugating by the diagonal
    gives every E_0j(zeta^k), sums of those every E_0j(c), and
    commutators the rest."""
    out = []
    for k, n in enumerate(dims):
        if n and q > 2:
            out.append((k, 0, 0))
        out.extend((k, i, j) for i in range(n) for j in range(n) if i != j)
    return tuple(out)


def _act(F: Fq, into: list, out_of: list, gen, point):
    """A generator applied to a point: each arrow into vertex k gets the
    row operation row_i += c row_j of g, each arrow out of k the column
    operation col_j += c' col_i of g^-1 = I + c' E_ij."""
    k, i, j = gen
    if i == j:
        zeta = F.exp[1]
        c, c_inv = F.sub(zeta, 1), F.sub(F.inv(zeta), 1)
    else:
        c, c_inv = 1, F.neg(1)
    mats = list(point)
    for a in into[k]:
        m = list(mats[a])
        m[i] = tuple(F.add(x, F.mul(c, y)) for x, y in zip(m[i], m[j]))
        mats[a] = tuple(m)
    for a in out_of[k]:
        mats[a] = tuple(
            (*row[:j], F.add(row[j], F.mul(c_inv, row[i])), *row[j + 1 :])
            for row in mats[a]
        )
    return tuple(mats)


# ---------------------------------------------------------------------------
# iso-classes
#
# Dynkin data (the symmetric Cartan matrix is positive definite) are
# classified by invariants.  By Gabriel's theorem the indecomposables are
# bricks X_beta, one per positive root beta; by Auslander's theorem M and
# N are isomorphic exactly when dim Hom(X_beta, M) = dim Hom(X_beta, N)
# for every beta.  The class key of a point is (dims, those Hom
# dimensions), and every class is a direct sum of bricks, one per Kostant
# partition.  Other data, such as the Kronecker quiver, are classified by
# orbit search, with class key (dims, least point of the orbit).


def _orbit(quiver: Quiver, q: int, dims: tuple, point: tuple) -> set:
    """The GL-orbit of a point, by breadth-first search over generators."""
    F = field(q)
    gens = _group_generators(quiver, q, dims)
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    into, out_of = ([[] for _ in dims] for _ in range(2))
    for a, (s, t) in enumerate(quiver.arrows):
        into[idx[t]].append(a)
        out_of[idx[s]].append(a)
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in gens:
                moved = _act(F, into, out_of, gen, p)
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return seen


def orbit_of(
    quiver: Quiver, q: int, dims: tuple, point: tuple, budget: int = DEFAULT_BUDGET
) -> set:
    """`_orbit` once the budget is met."""
    require_budget(quiver, q, dims, budget)
    return _orbit(quiver, q, dims, point)


def hom_dim(x: QuiverRep, m: QuiverRep) -> int:
    """dim Hom(X, M): the unknowns f_i : X_i -> M_i minus the rank of the
    system M_a f_s = f_t X_a, one block of equations per arrow s -> t."""
    F = field(m.q)
    idx = {v: i for i, v in enumerate(m.quiver.vertices)}
    offsets = []
    nvars = 0
    for dm, dx in zip(m.dims, x.dims):
        offsets.append(nvars)
        nvars += dm * dx
    rows = []
    for (s, t), ma, xa in zip(m.quiver.arrows, m.mats, x.mats):
        si, ti = idx[s], idx[t]
        os_, ot = offsets[si], offsets[ti]
        dxs, dxt = x.dims[si], x.dims[ti]
        for r, mrow in enumerate(ma):
            for c in range(dxs):
                row = [0] * nvars
                for j, a in enumerate(mrow):
                    row[os_ + j * dxs + c] = a
                for j in range(dxt):
                    row[ot + r * dxt + j] = F.neg(xa[j][c])
                rows.append(row)
    return nvars - mat_rank(F, rows)


class _Bricks:
    """The indecomposables of Dynkin data over F_q, one per positive root
    in the order the walk of `_bricks` finds them, and H[k][l] =
    dim Hom(X_k, X_l) with its inverse."""

    def __init__(self, roots: tuple, reps: tuple):
        self.roots = roots
        self.reps = reps
        self.hom = tuple(tuple(hom_dim(a, b) for b in reps) for a in reps)
        # a brick has no Hom to one found before it, so H is upper
        # unitriangular and its inverse integral, by back substitution
        n = len(reps)
        if any(self.hom[k][l] != (k == l) for k in range(n) for l in range(k + 1)):
            raise RuntimeError("the Hom matrix of the bricks is not unitriangular")
        inv = [[int(k == l) for l in range(n)] for k in range(n)]
        for k in reversed(range(n)):
            for j in range(k + 1, n):
                if h := self.hom[k][j]:
                    inv[k] = [a - h * b for a, b in zip(inv[k], inv[j])]
        self.h_inverse = tuple(map(tuple, inv))

    def key(self, x: QuiverRep) -> tuple:
        return x.dims, tuple(hom_dim(b, x) for b in self.reps)

    def multiplicities(self, h: tuple) -> tuple:
        """m with h = H m: how often each X_k occurs in a class."""
        m = tuple(sum(a * b for a, b in zip(row, h)) for row in self.h_inverse)
        if any(x < 0 for x in m):
            raise RuntimeError(f"Hom dimensions {h} match no direct sum of bricks")
        return m

    def orbit_size(self, q: int, dims: tuple, h: tuple) -> int:
        """|G| / |Aut M| with |Aut M| = q^(dim End M - sum m_k^2) prod
        |GL_{m_k}(F_q)|, since End M / rad = prod M_{m_k}(F_q)."""
        m = self.multiplicities(h)
        dim_end = sum(a * b for a, b in zip(m, h))
        aut = q ** (dim_end - sum(k * k for k in m))
        for k in m:
            aut *= gl_order(q, k)
        return group_order(q, dims) // aut

    def direct_sum(self, quiver: Quiver, q: int, dims: tuple, h: tuple) -> tuple:
        """A point of the class with Hom dimensions h: the block-diagonal
        sum of the bricks, each repeated by its multiplicity."""
        idx = {v: i for i, v in enumerate(quiver.vertices)}
        summands = [
            b for b, k in zip(self.reps, self.multiplicities(h)) for _ in range(k)
        ]
        mats = []
        for a, (s, t) in enumerate(quiver.arrows):
            si, ti = idx[s], idx[t]
            block = [[0] * dims[si] for _ in range(dims[ti])]
            r0 = c0 = 0
            for b in summands:
                for r, row in enumerate(b.mats[a]):
                    block[r0 + r][c0 : c0 + len(row)] = row
                r0 += b.dims[ti]
                c0 += b.dims[si]
            mats.append(tuple(tuple(row) for row in block))
        return tuple(mats)


@lru_cache(maxsize=32)
def _bricks(quiver: Quiver, q: int) -> _Bricks | None:
    """The bricks of Dynkin data, built from simples by reflection
    functors (Bernstein, Gelfand and Ponomarev); None when the root system
    is not finite, and the orbit route classifies.  The walk reverses the
    arrows at one sink at a time, i_1, i_2, ...: each time the first sink
    i of the current quiver whose root beta = s_{i_1} ... s_{i_k}(alpha_i)
    is positive, after reflecting the simple at i back to the quiver
    through the source functors at i_k, ..., i_1, which gives X_beta.  The
    sinks spell a reduced expression of w_0 adapted to the quiver, so
    every positive root appears once."""
    datum = load_datum(quiver)
    roots = positive_roots(datum)
    if roots is None:
        return None
    found, sinks, current = {}, [], quiver
    while len(found) < len(roots):
        for i in current.vertices:
            if not is_sink(i, current):
                continue
            beta = simple = datum.unit_vec(i)
            for j in reversed(sinks):
                beta = datum.reflect_dim(j, beta)
            if min(beta) >= 0:
                break
        else:
            raise RuntimeError(f"no sink of {current.arrows} has a positive root")
        if beta in found:
            raise RuntimeError(f"the root {beta} appears twice along the sinks {sinks}")
        # a source functor is the sink functor conjugated by duality, so
        # the chain of them dualizes only at its two ends
        x = _dual(QuiverRep(current, q, simple, _zero_point(current, simple)))
        for j in reversed(sinks):
            x = bgp_reflect(j, x)
        x = _dual(x)
        if x.dims != beta or hom_dim(x, x) != 1:
            raise RuntimeError(f"the reflected simple {x} is no brick of dims {beta}")
        found[beta] = x
        sinks.append(i)
        current = sigma_i(i, current)
    return _Bricks(tuple(found), tuple(found.values()))


def class_key(x: QuiverRep, budget: int = DEFAULT_BUDGET) -> tuple:
    """A complete isomorphism invariant: (dims, Hom dimensions from the
    bricks) on Dynkin data, (dims, least orbit point) otherwise; only
    the orbit search enumerates."""
    if _bricks(x.quiver, x.q) is None:
        require_budget(x.quiver, x.q, x.dims, budget)
    return _point_key(x)


# the one class-key memo of both routes; one `verify hall` per process
# fills it to 338 entries on A3, 500 on the Kronecker quiver, 637 on E6 at
# hall bound (1,1,1,0,0,0), 1,395 on D4 centre-sink and 2,154 on D4, and
# `scripts/run_verify.py`, Kronecker `hall` row included, to 4,750
@lru_cache(maxsize=1 << 13)
def _point_key(x: QuiverRep) -> tuple:
    """class_key of a point, by orbit search with no budget."""
    bricks = _bricks(x.quiver, x.q)
    if bricks is None:
        return x.dims, min(_orbit(x.quiver, x.q, x.dims, x.mats))
    return bricks.key(x)


# one `verify hall` per process fills it to 121 entries on A3, 55 on the
# Kronecker quiver, 305 on D4 centre-sink, 355 on E6 at hall bound
# (1,1,1,0,0,0) and 444 on D4; at 256 the D4 rows of
# `scripts/run_verify.py` rebuilt 114 tables they had evicted
@lru_cache(maxsize=1024)
def _class_table(quiver: Quiver, q: int, dims: tuple) -> MappingProxyType:
    """Class key -> (a point of the class, orbit size); read-only, since
    every caller shares it.  On Dynkin data there is one class per
    Kostant partition m of dims (Gabriel): its key is (dims, H m), its
    point the direct sum of bricks, and no point of E_V is enumerated.
    Otherwise the classes come from orbit search over every point, each
    with the least point of its orbit, in the order of the points: the
    first point met of an orbit is its least."""
    bricks = _bricks(quiver, q)
    table = {}
    if bricks is None:
        seen: set = set()
        for p in _points(quiver, q, dims):
            if p not in seen:
                orbit = _orbit(quiver, q, dims, p)
                seen.update(orbit)
                table[dims, p] = (p, len(orbit))
        return MappingProxyType(table)
    for m in kostant_partitions(bricks.roots, dims):
        h = tuple(sum(a * b for a, b in zip(row, m)) for row in bricks.hom)
        point = bricks.direct_sum(quiver, q, dims, h)
        key = _point_key(QuiverRep(quiver, q, dims, point))
        if key != (dims, h):
            raise RuntimeError(
                f"the direct sum {point} of bricks with multiplicities {m} has "
                f"Hom dimensions {key[1]} where H m is {h}"
            )
        table[key] = (point, bricks.orbit_size(q, dims, h))
    return MappingProxyType(table)


def class_points(
    quiver: Quiver, q: int, dims: tuple, budget: int = DEFAULT_BUDGET
) -> tuple:
    """One (point, orbit size) per iso-class: the direct sum of bricks on
    Dynkin data, the least point of the orbit otherwise.  Callers that
    only need some point of each class read this, not `iso_classes`."""
    require_class_budget(quiver, q, dims, budget)
    return tuple(_class_table(quiver, q, dims).values())


@lru_cache(maxsize=256)
def _least_points(quiver: Quiver, q: int, dims: tuple) -> MappingProxyType:
    """Class key -> least point of the class on Dynkin data, in the order
    of the points.  Walking in the order of `<`, the first point with a
    key is the least point of its class; Gabriel's theorem says how many
    classes to expect, and each must be a class of the table."""
    bricks = _bricks(quiver, q)
    table = _class_table(quiver, q, dims)
    want = kostant_count(bricks.roots, dims)
    least = {}
    for p in _points(quiver, q, dims):
        key = bricks.key(QuiverRep(quiver, q, dims, p))
        if key not in least:
            if key not in table:
                raise RuntimeError(f"{p} has Hom dimensions {key[1]}, of no class")
            least[key] = p
            if len(least) == want:
                return MappingProxyType(least)
    raise RuntimeError(
        f"found {len(least)} iso-classes of dimension {dims} where the "
        f"Kostant partition count is {want}"
    )


def iso_classes(
    quiver: Quiver, q: int, dims: tuple, budget: int = DEFAULT_BUDGET
) -> tuple:
    """G-orbit decomposition of the representation space: a sorted tuple
    of (canonical representative, orbit size), the representative being
    the least point of the orbit."""
    # the class table, then on Dynkin data a walk over every point
    require_class_budget(quiver, q, dims, budget)
    require_budget(quiver, q, dims, budget)
    table = _class_table(quiver, q, dims)
    if _bricks(quiver, q) is None:
        return tuple(table.values())
    least = _least_points(quiver, q, dims)
    return tuple((p, table[key][1]) for key, p in least.items())


def gl_order(q: int, n: int) -> int:
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


def group_order(q: int, dims: tuple) -> int:
    out = 1
    for n in dims:
        out *= gl_order(q, n)
    return out


# ---------------------------------------------------------------------------
# subrepresentations and Hall numbers


def _subspaces(F: Fq, n: int, k: int):
    """All k-dimensional subspaces of F^n as rref basis-row matrices."""
    for pivots in combinations(range(n), k):
        free_positions = [
            (r, c)
            for r, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivots
        ]
        count = len(free_positions)
        for code in range(F.q ** count):
            rows = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            c = code
            for (r, col) in free_positions:
                rows[r][col] = c % F.q
                c //= F.q
            yield tuple(tuple(r) for r in rows)


def subspace_count(q: int, n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (a Gaussian binomial)."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for j in range(k):
        num *= q ** (n - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def _require_subspaces(q: int, dims: tuple, sub_dims: tuple, budget: int) -> None:
    """Raise BudgetExceeded when walking the graded subspaces of the given
    dimension vector would pass the budget."""
    needed = 1
    for n, k in zip(dims, sub_dims):
        needed *= subspace_count(q, n, k)
    if needed > budget:
        raise BudgetExceeded(needed, budget, "graded subspaces")


def graded_subreps(M: QuiverRep, sub_dims: tuple, budget: int = DEFAULT_BUDGET):
    """`_subreps` once the budget is met."""
    _require_subspaces(M.q, M.dims, sub_dims, budget)
    return _subreps(M, sub_dims)


def _subreps(M: QuiverRep, sub_dims: tuple):
    """All arrow-stable graded subspaces of the given dimension vector,
    as tuples of basis-row matrices per vertex."""
    F = field(M.q)
    quiver = M.quiver
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    per_vertex = [
        list(_subspaces(F, M.dims[i], sub_dims[i])) for i in range(len(M.dims))
    ]

    def stable(choice):
        # the images of the source rows must not raise the rank of the
        # (independent) target rows
        for (s, t), m in zip(quiver.arrows, M.mats):
            images = [_apply_mat(F, m, row) for row in choice[idx[s]]]
            target = choice[idx[t]]
            if images and mat_rank(F, [*target, *images]) > len(target):
                return False
        return True

    def rec(k, acc):
        if k == len(per_vertex):
            if stable(acc):
                yield tuple(acc)
            return
        for s in per_vertex[k]:
            acc.append(s)
            yield from rec(k + 1, acc)
            acc.pop()

    yield from rec(0, [])


def _apply_mat(F: Fq, m, vec):
    out = []
    for row in m:
        s = 0
        for x, y in zip(row, vec):
            if x and y:
                s = F.add(s, F.mul(x, y))
        out.append(s)
    return tuple(out)


def sub_quotient_reps(M: QuiverRep, sub_basis: tuple):
    """Induced representations on a stable graded subspace and on the
    quotient by it.  Each vertex's basis rows b_r must be in reduced row
    echelon form, as `graded_subreps` yields them: the unit vectors e_c
    off their pivot columns then complete them to a basis, and span the
    quotient.  A vector y has coordinate y[pivot_r] on b_r and
    y[c] - sum_r y[pivot_r] b_r[c] on e_c, so no basis is inverted."""
    F = field(M.q)
    quiver = M.quiver
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    pivots = [[row.index(1) for row in b] for b in sub_basis]
    free = [[c for c in range(n) if c not in p] for n, p in zip(M.dims, pivots)]
    sub_mats, quo_mats = [], []
    for (s, t), m in zip(quiver.arrows, M.mats):
        si, ti = idx[s], idx[t]
        images = [_apply_mat(F, m, row) for row in sub_basis[si]]
        sub_mats.append(tuple(tuple(y[p] for y in images) for p in pivots[ti]))
        cols = [tuple(row[c] for row in m) for c in free[si]]
        quo = []
        for c in free[ti]:
            out = []
            for y in cols:
                x = y[c]
                for p, b in zip(pivots[ti], sub_basis[ti]):
                    x = F.sub(x, F.mul(y[p], b[c]))
                out.append(x)
            quo.append(tuple(out))
        quo_mats.append(tuple(quo))
    sub = QuiverRep(quiver, M.q, tuple(map(len, sub_basis)), tuple(sub_mats))
    quo = QuiverRep(quiver, M.q, tuple(map(len, free)), tuple(quo_mats))
    return sub, quo


def hall_number(
    M: QuiverRep, N: QuiverRep, L: QuiverRep, budget: int = DEFAULT_BUDGET
) -> int:
    """Count arrow-stable graded subspaces of M isomorphic to L with
    quotient isomorphic to N."""
    if tuple(a + b for a, b in zip(N.dims, L.dims)) != M.dims:
        raise ValueError("dimension vectors of quotient and sub must add up")
    # the tally walks the subspaces of M and keys its quotients and subs,
    # whose orbit searches are bounded by that of M
    _require_subspaces(M.q, M.dims, L.dims, budget)
    tally = _hall_tally(M.quiver, M.q, class_key(M, budget), L.dims)
    return tally.get((_point_key(N), _point_key(L)), 0)


@lru_cache(maxsize=4096)
def _hall_tally(
    quiver: Quiver, q: int, key_m: tuple, sub_dims: tuple
) -> MappingProxyType:
    """Every Hall number of the class of M with a sub of dimension sub_dims,
    in one pass over the graded subreps of one point of that class (on
    Dynkin data the direct sum of bricks): (quotient key, sub key) ->
    count, read-only since every caller shares it."""
    bricks = _bricks(quiver, q)
    dims, inv = key_m
    point = inv if bricks is None else bricks.direct_sum(quiver, q, dims, inv)
    M = QuiverRep(quiver, q, dims, point)
    tally: dict = {}
    for sub_basis in _subreps(M, sub_dims):
        sub, quo = sub_quotient_reps(M, sub_basis)
        key = (_point_key(quo), _point_key(sub))
        tally[key] = tally.get(key, 0) + 1
    return MappingProxyType(tally)


# ---------------------------------------------------------------------------
# the twisted composition product


class HallElement(LinComb):
    """Linear combination of iso-classes with exact rational coefficients,
    keyed by class key."""

    __slots__ = SPACE = ("quiver", "q")

    @staticmethod
    def unit(quiver: Quiver, q: int) -> "HallElement":
        return HallElement._zero_class(quiver, q, (0,) * len(quiver.vertices))

    @staticmethod
    def simple(quiver: Quiver, q: int, vertex: int) -> "HallElement":
        # without loops the space of a simple is one point: its own class
        dims = tuple(1 if v == vertex else 0 for v in quiver.vertices)
        return HallElement._zero_class(quiver, q, dims)

    @staticmethod
    def _zero_class(quiver: Quiver, q: int, dims: tuple) -> "HallElement":
        # the zero point is its own orbit, so keying it needs no budget
        x = QuiverRep(quiver, q, dims, _zero_point(quiver, dims))
        return HallElement(quiver, q, {_point_key(x): Fraction(1)})

    def __repr__(self):
        return f"HallElement({self.terms})"


def _sqrt_q(q: int) -> int:
    """v = sqrt(q), whose powers twist the Hall product.  q must be a
    field size too: the budget checks that follow divide by q^k - 1."""
    v = isqrt(q)
    if v * v != q:
        raise ValueError("comparison needs a perfect-square q")
    _prime_power(q)
    return v


def _require_products(quiver: Quiver, q: int, pairs, budget: int) -> None:
    """Raise BudgetExceeded when a product of classes of dims_a and dims_b,
    for some (dims_a, dims_b) in pairs, would pass the budget: it walks the
    graded subspaces of dims_b in dims_m = dims_a + dims_b and builds the
    class table of dims_m, whose orbit search bounds those of the factors.
    Each distinct pair is checked once, in order."""
    for dims_a, dims_b in dict.fromkeys(pairs):
        dims_m = add_vec(dims_a, dims_b)
        _require_subspaces(q, dims_m, dims_b, budget)
        require_class_budget(quiver, q, dims_m, budget)


def hall_product(
    a: HallElement, b: HallElement, budget: int = DEFAULT_BUDGET
) -> HallElement:
    """Twisted composition product: the Euler-form power of v = sqrt(q)
    times the Hall-number sum, with the left factor the quotient side."""
    if (a.quiver, a.q) != (b.quiver, b.q):
        raise ValueError("operands live over different Hall algebras")
    _sqrt_q(a.q)
    dims_a, dims_b = (dict.fromkeys(key[0] for key in x.terms) for x in (a, b))
    _require_products(a.quiver, a.q, product(dims_a, dims_b), budget)
    return _product(a, b)


def _product(a: HallElement, b: HallElement) -> HallElement:
    """hall_product with no check."""

    def image(key_a, key_b):
        return _class_product(a.quiver, a.q, key_a, key_b)

    return a._like(bilinear(a.terms.items(), b.terms.items(), image))


# one entry per pair of classes multiplied: a cold A3 `verify hall` reads
# it for 883 pairs of terms and fills it to 237 entries, one
# `scripts/run_verify.py` process to 4,008
@lru_cache(maxsize=1 << 13)
def _class_product(quiver: Quiver, q: int, key_a: tuple, key_b: tuple) -> tuple:
    """The product of the classes of two keys, as rows (class key of M,
    v^<a,b> g^M_ab), one per class M whose Hall number is nonzero."""
    dims_a, dims_b = key_a[0], key_b[0]
    dims_m = add_vec(dims_a, dims_b)
    twist = Fraction(_sqrt_q(q)) ** quiver.euler_form(dims_a, dims_b)
    rows = []
    for key_m in _class_table(quiver, q, dims_m):
        if g := _hall_tally(quiver, q, key_m, dims_b).get((key_a, key_b), 0):
            rows.append((key_m, twist * g))
    return tuple(rows)


def hall_word(
    quiver: Quiver, q: int, word: tuple, budget: int = DEFAULT_BUDGET
) -> HallElement:
    """Image of a theta-word: the ordered product of simple-class
    generators."""
    _sqrt_q(q)
    _require_products(quiver, q, _word_steps(quiver, word), budget)
    return _hall_word(quiver, q, word)


def _word_steps(quiver: Quiver, word: tuple) -> list:
    """(dims of the prefix, dims of the letter) for each letter of a word:
    the products that build its image."""
    dims = [tuple(map(word[:k].count, quiver.vertices)) for k in range(len(word) + 1)]
    return [(a, sub_vec(b, a)) for a, b in zip(dims, dims[1:])]


# the one memo of word images, each built on that of its prefix: one
# `verify hall` per process fills it to 113 entries on A3, 86 on the
# Kronecker quiver, 511 on E6 at hall bound (1,1,1,0,0,0) and 714 on D4,
# and `scripts/run_verify.py` to 1,894
@lru_cache(maxsize=1 << 12)
def _hall_word(quiver: Quiver, q: int, word: tuple) -> HallElement:
    """hall_word with no check."""
    if not word:
        return HallElement.unit(quiver, q)
    simple = HallElement.simple(quiver, q, word[-1])
    return _product(_hall_word(quiver, q, word[:-1]), simple)


# ---------------------------------------------------------------------------
# strata and reflection functors


def _joined_incoming(x: QuiverRep, vertex: int):
    """The arrows into a vertex as (arrow index, width) pairs, and their
    matrices joined side by side into one dim V_i x (sum of widths)
    matrix."""
    idx = {v: i for i, v in enumerate(x.quiver.vertices)}
    incoming = [
        (k, x.dims[idx[s]]) for k, (s, t) in enumerate(x.quiver.arrows) if t == vertex
    ]
    rows = [
        tuple(e for k, _w in incoming for e in x.mats[k][r])
        for r in range(x.dims[idx[vertex]])
    ]
    return incoming, rows


def stratum_index(x: QuiverRep, vertex: int) -> int:
    """At a sink: codimension of the total incoming image; at a source:
    dimension of the total outgoing kernel, which is the sink index of the
    dual."""
    if is_sink(vertex, x.quiver):
        _incoming, rows = _joined_incoming(x, vertex)
        return len(rows) - mat_rank(field(x.q), rows)
    if is_source(vertex, x.quiver):
        return stratum_index(_dual(x), vertex)
    raise ValueError(f"vertex {vertex} is neither a sink nor a source")


def stratum_counts(
    quiver: Quiver, dims: tuple, q: int, vertex: int, budget: int = DEFAULT_BUDGET
) -> list[int]:
    ni = dims[quiver.index(vertex)]
    if not (is_sink(vertex, quiver) or is_source(vertex, quiver)):
        raise ValueError(f"vertex {vertex} is neither a sink nor a source")
    counts = [0] * (ni + 1)
    # the stratum index is constant on an iso-class
    for rep, size in class_points(quiver, q, dims, budget):
        counts[stratum_index(QuiverRep(quiver, q, dims, rep), vertex)] += size
    return counts


def _dual(x: QuiverRep) -> QuiverRep:
    """The dual representation: every arrow reversed in place and every
    matrix transposed, its shape read from the dimension vector."""
    quiver = x.quiver.reversed_arrows(frozenset(range(len(x.quiver.arrows))))
    mats = tuple(
        tuple(tuple(m[c][r] for c in range(cols)) for r in range(rows))
        for m, (rows, cols) in zip(x.mats, _arrow_shapes(quiver, x.dims))
    )
    return QuiverRep(quiver, x.q, x.dims, mats)


def bgp_reflect(vertex: int, x: QuiverRep) -> QuiverRep:
    """Reflection functor at a stratum-0 sink; at a kernel-stratum-0
    source its inverse, the sink functor conjugated by duality
    (Bernstein-Gelfand-Ponomarev).  Errors off the open stratum."""
    quiver = x.quiver
    if is_source(vertex, quiver) and not is_sink(vertex, quiver):
        return _dual(bgp_reflect(vertex, _dual(x)))
    # raises at a vertex that is neither a sink nor a source
    if stratum_index(x, vertex) != 0:
        raise ValueError(
            "reflection functor is only an equivalence on the open stratum"
        )
    incoming, rows = _joined_incoming(x, vertex)
    kern = nullspace(field(x.q), rows, sum(w for _k, w in incoming))
    mats = list(x.mats)
    pos = 0
    for k, w in incoming:
        mats[k] = tuple(tuple(vec[pos + r] for vec in kern) for r in range(w))
        pos += w
    dims = list(x.dims)
    dims[quiver.vertices.index(vertex)] = len(kern)
    return QuiverRep(sigma_i(vertex, quiver), x.q, tuple(dims), tuple(mats))


# ---------------------------------------------------------------------------
# comparison against the symbolic quotient algebra


def specialize_compare(
    quiver: Quiver, nu_a: tuple, nu_b: tuple, q: int, budget: int = DEFAULT_BUDGET
) -> list[tuple]:
    """(left word, right word, Hall product, symbolic product at
    v = sqrt(q)) for every pair of theta-words of weights nu_a and nu_b:
    the composition-algebra product of their functions, and their
    symbolic product in f with each basis word replaced by its function."""
    v = _sqrt_q(q)
    datum = load_datum(quiver)
    words_a, words_b = words_of_weight(datum, nu_a), words_of_weight(datum, nu_b)
    # the estimates only grow along a word, and every word of a weight
    # meets the largest for each letter, so the first word of each weight
    # bounds the others; a word of weight nu_a + nu_b, on the symbolic
    # side, is bounded by those two and their product
    first = (*_word_steps(quiver, words_a[0]), *_word_steps(quiver, words_b[0]))
    _require_products(quiver, q, (*first, (nu_a, nu_b)), budget)

    def image(word):
        return _hall_word(quiver, q, word).terms.items()

    report = []
    for w1 in words_a:
        h1 = _hall_word(quiver, q, w1)
        for w2 in words_b:
            lhs = _product(h1, _hall_word(quiver, q, w2))
            prod = normal_form(FreeElement(datum, {w1 + w2: RF_ONE}))
            at_v = ((w, c.eval_at(v)) for w, c in prod.terms.items())
            report.append((w1, w2, lhs, lhs._like(linear(at_v, image))))
    return report

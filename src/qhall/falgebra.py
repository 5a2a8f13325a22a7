"""The quotient of the free theta algebra by the radical of the form.

A weight space f_nu is presented by its basis words, the inverse of
their Gram block, and normal forms computed from the two on demand.
The basis words are the lexicographically greedy ones, found on every
datum without a pass over the words of nu: in the reversed alphabet
order they are the non-increasing products of good Lyndon words
(Lalonde and Ram 1995; Leclerc 2004), the Lyndon basis words of lower
weights and, at nu itself, Lyndon words with good standard factors.
Bordering those candidates into the inverse in lex order keeps exactly
the greedy words; every product must be kept, and the count must be the
Weyl-Kac dimension of cartan.weyl_kac_dim.  The quantum Serre relations
hold because Serre elements lie in the radical.  Pairings are the form
of qhall.freealg at generator normalization 1, iterated twisted
derivations with nonnegative integer coefficients, from the one memo
that every weight and lusztig_form share; a normalization c scales f_nu
by c^|nu| and changes no basis or coordinate.  Bases and normal forms
and the divided-power decompositions are memoized per (datum, weight),
(datum, word) and (datum, vertex, weight, side), and immutable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import linalg
from .cartan import CartanDatum, add_vec, dims_upto, scale_vec, sub_vec, weyl_kac_dim
from .freealg import FreeElement, Word, _derive_word, _form_words, words_of_weight
from .lincomb import LinComb, _share, _share_terms, _shared, bilinear, linear
from .ratfunc import ONE, ZERO, ZERO_POLY, RatFunc, common_denominator, qfact, v_pow


@dataclass(frozen=True)
class WeightBasis:
    datum: CartanDatum
    weight: tuple
    basis_words: tuple[Word, ...]    # lex order
    inv_rows: tuple                  # Gram block inverse, (den, nums) per row

    @property
    def dim(self) -> int:
        return len(self.basis_words)

    def coordinates(self, word: Word) -> tuple:
        """Coordinates of a word of this weight on the basis words: its
        pairings with them times the inverse of their Gram block."""
        k = bisect_left(self.basis_words, word)
        if k < self.dim and self.basis_words[k] == word:
            return ((word, ONE),)
        polys = [_form_words(self.datum, word, u) for u in self.basis_words]
        coeffs = [
            RatFunc(sum(map(mul, nums, polys), ZERO_POLY), den)
            for den, nums in self.inv_rows
        ]
        return tuple((u, c) for u, c in zip(self.basis_words, coeffs) if c)


def _reversed(word: Word) -> tuple:
    """Sort key of the reversed alphabet order on words."""
    return tuple(-x for x in word)


def _is_lyndon(word: Word) -> bool:
    """Whether a word is Lyndon in the reversed alphabet order: smaller
    than each of its proper suffixes."""
    key = _reversed(word)
    return all(key < key[k:] for k in range(1, len(key)))


def _products(good: list, nu: tuple):
    """Every non-increasing product of weight nu of the good Lyndon words,
    given as (word, weight) pairs in non-increasing reversed order."""
    if not any(nu):
        yield ()
        return
    for k, (word, mu) in enumerate(good):
        rest = sub_vec(nu, mu)
        if min(rest) >= 0:
            yield from (word + tail for tail in _products(good[k:], rest))


def _lyndon_candidates(good: list, nu: tuple) -> list:
    """Each l1 l2 of weight nu with l1 < l2 good whose standard
    factorization is (l1, l2): no longer proper suffix is Lyndon."""
    return [
        l1 + l2
        for l1, m1 in good
        for l2, m2 in good
        if add_vec(m1, m2) == nu
        and _reversed(l1) < _reversed(l2)
        and not any(_is_lyndon((l1 + l2)[k:]) for k in range(1, len(l1)))
    ]


def _border(datum: CartanDatum, nu: tuple, candidates) -> WeightBasis:
    """Border the Gram block and its inverse by each candidate in turn,
    keeping exactly the candidates whose component orthogonal to the span
    of those kept before pairs nontrivially with itself.  Over every word
    in lex order this is the row rank of the full Gram matrix, since the
    form is definite for large v."""
    kept: list = []
    gram_inv: list[list] = []
    inv_rows: list = []  # gram_inv row by row over one denominator
    for w in candidates:
        polys = [_form_words(datum, w, u) for u in kept]
        coeffs = [RatFunc(sum(map(mul, n, polys), ZERO_POLY), d) for d, n in inv_rows]
        den, nums = common_denominator(coeffs)
        self_pair = _form_words(datum, w, w)
        residual_num = self_pair * den - sum(map(mul, nums, polys), ZERO_POLY)
        residual = RatFunc(residual_num, den)
        if not residual:
            continue
        # border the Gram block and its inverse by the new word
        inv_scale = residual.inverse()
        corner = [c * inv_scale for c in coeffs]
        gram_inv = [
            [g + ci * cj for g, cj in zip(row, corner)] + [-cs]
            for row, ci, cs in zip(gram_inv, coeffs, corner)
        ]
        gram_inv.append([-c for c in corner] + [inv_scale])
        inv_rows = [common_denominator(r) for r in gram_inv]
        kept.append(w)
    rows = tuple((d, tuple(map(_shared, n))) for d, n in inv_rows)
    return WeightBasis(datum, nu, tuple(kept), rows)


def greedy_basis(datum: CartanDatum, nu: tuple) -> WeightBasis:
    """The lexicographically greedy basis, bordered over every word of nu."""
    return _border(datum, nu, words_of_weight(datum, nu))


# weight_basis, _normal_form_word, sub_if_basis and _decomposition are
# bounded above the largest fill measured: scripts/run_verify.py leaves
# 385, 3,545, 1,110 and 1,110 entries in them before its E6-f row, one
# symbolic-verify round 93, 572, 180 and 180, and the u-queries stream
# 47, 183, 30 and 30.  A basis builds those of the lower root weights (20
# bases in Kronecker ti-subalgebra-equivalence at weight bound 3).  E6-f
# adds 451 bases and leaves 12,858, 3,630 and 3,630 entries in the other
# three; at bounds of 8,192 and 2,048 the next two recomputed 3,136 and
# 276 entries they had evicted.  The Gram inverse numerators of
# weight_basis, the kernel bases of sub_if_basis and the rows of
# _decomposition are stored through lincomb._shared: after the round
# they hold 229, 8 and 35 objects for 910, 188 and 448 values.  The
# coefficients of _normal_form_word are not (see lincomb).
@lru_cache(maxsize=2048)
def weight_basis(datum: CartanDatum, nu: tuple) -> WeightBasis:
    """The greedy basis of f_nu, bordered over the products of lower good
    Lyndon words and, if those fall short of the Weyl-Kac dimension, the
    Lyndon candidates of weight nu."""
    dim = weyl_kac_dim(datum.cartan, nu)
    if sum(nu) <= 1:
        products = candidates = list(words_of_weight(datum, nu))
    else:
        lower = (mu for mu in dims_upto(nu) if 0 < sum(mu) < sum(nu))
        # good Lyndon words lie in root weights, and a positive root mu has
        # (mu, mu) <= 2 (Kac, ch. 5); on Dynkin data these are the roots
        good = [
            (w, mu)
            for mu in lower
            if datum.sym_form(mu, mu) <= 2
            for w in weight_basis(datum, mu).basis_words
            if _is_lyndon(w)
        ]
        good.sort(key=lambda wm: _reversed(wm[0]), reverse=True)
        products = list(_products(good, nu))
        extra = _lyndon_candidates(good, nu) if len(products) < dim else []
        candidates = products + extra
    wb = _border(datum, nu, sorted(candidates))
    if wb.dim != dim or not set(products) <= set(wb.basis_words):
        raise RuntimeError(
            f"f_{nu} keeps {wb.dim} words, not the Weyl-Kac {dim}, "
            "or a product of good Lyndon words is dependent"
        )
    return wb


class FElement(LinComb):
    """Element of the quotient algebra in canonical coordinates.

    Terms are supported on selected basis words only, so equality of
    coordinates is equality in the quotient.
    """

    __slots__ = SPACE = ("datum",)

    @staticmethod
    def unit(datum: CartanDatum) -> "FElement":
        return FElement(datum, {(): ONE})

    @staticmethod
    def generator(datum: CartanDatum, vertex: int) -> "FElement":
        if vertex not in datum.vertices:
            raise ValueError(f"unknown vertex {vertex}")
        return FElement(datum, {(vertex,): ONE})

    def __mul__(self, other):
        return f_mul(self, other)

    def weights(self):
        return {self.datum.weight_of_word(w) for w in self.terms}

    def __str__(self):
        from .exprs import format_element

        return format_element(self)

    def __repr__(self):
        return f"FElement({self})"


@lru_cache(maxsize=1 << 14)
def _normal_form_word(datum: CartanDatum, word: Word) -> tuple:
    """Coordinates of a word on the basis of its weight."""
    return weight_basis(datum, datum.weight_of_word(word)).coordinates(word)


def normal_form(x: FreeElement | FElement) -> FElement:
    """Canonical coordinates of a free element in the quotient; zero
    exactly on the radical."""
    if isinstance(x, FElement):
        return x
    d = x.datum
    return FElement(d)._like(linear(x.terms.items(), lambda w: _normal_form_word(d, w)))


def f_mul(x: FElement, y: FElement) -> FElement:
    if x.datum != y.datum:
        raise ValueError("operands live over different data")
    d = x.datum

    def image(w1: Word, w2: Word) -> tuple:
        return _normal_form_word(d, w1 + w2)

    return x._like(bilinear(x.terms.items(), y.terms.items(), image))


def theta_divided(datum: CartanDatum, vertex: int, n: int) -> FElement:
    """Divided power th_vertex^n / [n]!."""
    if n < 0:
        raise ValueError("negative divided power")
    if n == 0:
        return FElement.unit(datum)
    return FElement(datum, {(vertex,) * n: qfact(n).inverse()})


def serre_element(datum: CartanDatum, i: int, j: int) -> FreeElement:
    """The quantum Serre relator for an ordered pair of distinct vertices."""
    if i == j:
        raise ValueError("Serre relator needs distinct vertices")
    n = 1 - datum.a(i, j)
    terms: dict = {}
    for k in range(n + 1):
        coeff = (qfact(k) * qfact(n - k)).inverse()
        terms[(i,) * k + (j,) + (i,) * (n - k)] = -coeff if k % 2 else coeff
    return FreeElement(datum, terms)


def i_r_component(vertex: int, side: str, x: FElement) -> FElement:
    """Tensor-slot extraction from the coproduct: coefficient of
    th_vertex x (.) for side="left", of (.) x th_vertex for side="right",
    read off the twisted derivation on each word."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    d = x.datum

    def image(w):
        return ((sub, v_pow(e)) for sub, e in _derive_word(d, vertex, w, side))

    return normal_form(FreeElement(d)._like(linear(x.terms.items(), image)))


@lru_cache(maxsize=4096)
def sub_if_basis(
    datum: CartanDatum, vertex: int, nu: tuple, side: str
) -> tuple[FElement, ...]:
    """Basis of the kernel of the slot extraction on f_nu: side="left"
    cuts out the T-stable left subalgebra, side="right" its mirror."""
    wb = weight_basis(datum, nu)
    idx = datum.index(vertex)
    if nu[idx] == 0:
        return tuple(FElement(datum, {w: ONE}) for w in wb.basis_words)
    target = sub_vec(nu, datum.unit_vec(vertex))
    target_wb = weight_basis(datum, target)
    comps = [
        i_r_component(vertex, side, FElement(datum, {w: ONE}))
        for w in wb.basis_words
    ]
    rows = [[c.terms.get(bw, ZERO) for c in comps] for bw in target_wb.basis_words]
    kernel = linalg.nullspace(linalg.QV, rows, len(wb.basis_words))
    return tuple(
        _share_terms(FElement(datum, dict(zip(wb.basis_words, vec)))) for vec in kernel
    )


@lru_cache(maxsize=4096)
def _decomposition(datum: CartanDatum, vertex: int, nu: tuple, side: str) -> dict:
    """Basis word of f_nu -> its ((t, basis word), coefficient) rows in the
    divided-power decomposition f_nu = sum_t th^(t) (kernel part): the
    piece at level t is the sum of the rows with that t.  One elimination
    of [C | I] inverts the columns C = th^(t) k over the kernel bases k."""
    wb = weight_basis(datum, nu)
    columns, labels = [], []
    for t in range(nu[datum.index(vertex)] + 1):
        level = sub_vec(nu, scale_vec(t, datum.unit_vec(vertex)))
        power = theta_divided(datum, vertex, t)
        for ker in sub_if_basis(datum, vertex, level, side):
            prod = f_mul(power, ker) if side == "left" else f_mul(ker, power)
            columns.append([prod.terms.get(w, ZERO) for w in wb.basis_words])
            labels.append((t, ker))
    n = len(columns)
    eye = ([ONE if j == k else ZERO for k in range(n)] for j in range(n))
    red, pivots = linalg.rref(linalg.QV, [[*r, *e] for r, e in zip(zip(*columns), eye)])
    if n != wb.dim or pivots != list(range(n)):
        raise RuntimeError(
            "divided-power decomposition failed; the direct-sum invariant is broken"
        )

    def image(label):
        t, ker = label
        return (((t, w), c) for w, c in ker.terms.items())

    return {
        w: _share(linear(zip(labels, (row[n + k] for row in red)), image).items())
        for k, w in enumerate(wb.basis_words)
    }


def i_decompose(vertex: int, x: FElement) -> list:
    """Unique pieces x_t in the left kernel subalgebra with
    x = sum_t th^(t) x_t; only nonzero pieces are returned."""
    return _i_decompose_side(vertex, x, "left")


def i_decompose_right(vertex: int, x: FElement) -> list:
    """Mirror decomposition x = sum_t x_t th^(t) with right-kernel pieces."""
    return _i_decompose_side(vertex, x, "right")


def _i_decompose_side(vertex: int, x: FElement, side: str) -> list:
    x.datum.index(vertex)  # an unknown vertex fails on every input, zero too
    if len(x.weights()) > 1:
        raise ValueError("decomposition needs a homogeneous element")
    pieces: dict = {}
    for nu in x.weights():
        table = _decomposition(x.datum, vertex, nu, side)
        off = x.terms.keys() - table.keys()
        if off:
            raise ValueError(f"word {min(off)} is not a basis word of f_{nu}")
        for (t, w), c in linear(x.terms.items(), table.__getitem__).items():
            pieces.setdefault(t, {})[w] = c
    return [(t, x._like(p)) for t, p in sorted(pieces.items())]

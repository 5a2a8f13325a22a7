"""The quotient of the free theta algebra by the radical of the form.

A weight space f_nu is presented by its Gram matrix: words of weight nu
are pairwise paired, a lexicographically-greedy independent subset of
rows is selected, and coordinates of any element are obtained by solving
against the invertible selected Gram block.  The quantum Serre relations
hold automatically because Serre elements lie in the radical.

Weight bases are memoized per (datum, weight); the cached objects are
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .cartan import CartanDatum, scale_vec, sub_vec
from .freealg import (
    FreeElement,
    Word,
    coproduct_word,
    _form_words,
    DEFAULT_FORM_CONSTANT,
    words_of_weight,
)
from .lincomb import LinComb, merge
from .ratfunc import ONE, ZERO, qfact


@dataclass(frozen=True)
class WeightBasis:
    weight: tuple
    words: tuple[Word, ...]          # all words of this weight, lex order
    selected: tuple[int, ...]        # indices of the greedy basis words
    gram: tuple                      # form values on selected x selected
    gram_inv: tuple

    @property
    def basis_words(self) -> tuple[Word, ...]:
        return tuple(self.words[i] for i in self.selected)

    @property
    def dim(self) -> int:
        return len(self.selected)


@lru_cache(maxsize=None)
def weight_basis(datum: CartanDatum, nu: tuple) -> WeightBasis:
    """Greedy basis selection in lexicographic word order.

    A word is kept exactly when its component orthogonal to the span of
    the kept words pairs nontrivially with itself; the form is definite
    for large v, so this is the same subset the row rank of the full
    Gram matrix selects, at a fraction of the pairings.
    """
    words = words_of_weight(datum, nu)
    selected: list[int] = []
    gram: list[list] = []
    gram_inv: list[list] = []
    for k, w in enumerate(words):
        cross = [
            _form_words(datum, words[i], w, DEFAULT_FORM_CONSTANT)
            for i in selected
        ]
        coeffs = linalg.mat_vec(gram_inv, cross) if selected else []
        residual = _form_words(datum, w, w, DEFAULT_FORM_CONSTANT)
        for c, g in zip(coeffs, cross):
            if c and g:
                residual = residual - c * g
        if not residual:
            continue
        # border the Gram block and its inverse by the new word
        if selected:
            inv_scale = residual.inverse()
            corner = [c * inv_scale for c in coeffs]
            n = len(selected)
            new_inv = [
                [
                    gram_inv[i][j] + coeffs[i] * corner[j]
                    for j in range(n)
                ]
                + [-corner[i]]
                for i in range(n)
            ]
            new_inv.append([-corner[j] for j in range(n)] + [inv_scale])
            gram_inv = new_inv
            for row, g in zip(gram, cross):
                row.append(g)
            gram.append(cross + [_form_words(datum, w, w, DEFAULT_FORM_CONSTANT)])
        else:
            gram = [[residual]]
            gram_inv = [[residual.inverse()]]
        selected.append(k)
    return WeightBasis(
        nu,
        words,
        tuple(selected),
        tuple(tuple(r) for r in gram),
        tuple(tuple(r) for r in gram_inv),
    )


def dim_f(datum: CartanDatum, nu: tuple) -> int:
    return weight_basis(datum, nu).dim


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
        from .exprs import format_free

        return format_free(self)

    def __repr__(self):
        return f"FElement({self})"


@lru_cache(maxsize=None)
def _normal_form_word(datum: CartanDatum, word: Word) -> tuple:
    """Coordinates of a word on the selected basis of its weight."""
    nu = datum.weight_of_word(word)
    wb = weight_basis(datum, nu)
    if word in wb.basis_words:
        return ((word, ONE),)
    rhs = [
        _form_words(datum, bw, word, DEFAULT_FORM_CONSTANT)
        for bw in wb.basis_words
    ]
    coords = linalg.mat_vec(wb.gram_inv, rhs)
    return tuple(
        (bw, c) for bw, c in zip(wb.basis_words, coords) if c
    )


def normal_form(x: FreeElement | FElement) -> FElement:
    """Canonical coordinates of a free element in the quotient; zero
    exactly on the radical."""
    if isinstance(x, FElement):
        return x
    out: dict = {}
    for w, c in x.terms.items():
        for bw, coeff in _normal_form_word(x.datum, w):
            merge(out, bw, c * coeff)
    return FElement(x.datum, out)


def f_mul(x: FElement, y: FElement) -> FElement:
    if x.datum != y.datum:
        raise ValueError("operands live over different data")
    out: dict = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            for bw, coeff in _normal_form_word(x.datum, w1 + w2):
                merge(out, bw, c1 * c2 * coeff)
    return FElement(x.datum, out)


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
        w = (i,) * k + (j,) + (i,) * (n - k)
        coeff = (qfact(k) * qfact(n - k)).inverse()
        if k % 2:
            coeff = -coeff
        merge(terms, w, coeff)
    return FreeElement(datum, terms)


def i_r_component(vertex: int, side: str, x: FElement) -> FElement:
    """Tensor-slot extraction from the coproduct: coefficient of
    th_vertex x (.) for side="left", of (.) x th_vertex for side="right"."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    d = x.datum
    single = (vertex,)
    out: dict = {}
    for w, c in x.terms.items():
        for (w1, w2), coeff in coproduct_word(d, w):
            if side == "left" and w1 == single:
                keep = w2
            elif side == "right" and w2 == single:
                keep = w1
            else:
                continue
            for bw, nf in _normal_form_word(d, keep):
                merge(out, bw, c * coeff * nf)
    return FElement(d, out)


@lru_cache(maxsize=None)
def sub_if_basis(
    datum: CartanDatum, vertex: int, nu: tuple, side: str
) -> tuple[FElement, ...]:
    """Basis of the kernel of the slot extraction on f_nu: side="left"
    cuts out the T-stable left subalgebra, side="right" its mirror."""
    wb = weight_basis(datum, nu)
    idx = datum.index(vertex)
    if nu[idx] == 0:
        return tuple(
            FElement(datum, {w: ONE}) for w in wb.basis_words
        )
    target = sub_vec(nu, datum.unit_vec(vertex))
    target_wb = weight_basis(datum, target)
    cols = []
    for w in wb.basis_words:
        comp = i_r_component(vertex, side, FElement(datum, {w: ONE}))
        cols.append([comp.terms.get(bw, ZERO) for bw in target_wb.basis_words])
    rows = [
        [cols[c][r] for c in range(len(cols))] for r in range(target_wb.dim)
    ]
    kernel = linalg.nullspace(rows, len(wb.basis_words))
    return tuple(FElement(datum, dict(zip(wb.basis_words, vec))) for vec in kernel)


@lru_cache(maxsize=None)
def _decompose_word(datum: CartanDatum, vertex: int, word: Word, side: str) -> tuple:
    """Coordinates of a basis word in the divided-power decomposition
    f_nu = sum_t th^(t) (kernel part); returns ((t, FElement), ...)."""
    nu = datum.weight_of_word(word)
    idx = datum.index(vertex)
    wb = weight_basis(datum, nu)
    columns = []
    labels = []
    for t in range(nu[idx] + 1):
        level = sub_vec(nu, scale_vec(t, datum.unit_vec(vertex)))
        power = theta_divided(datum, vertex, t)
        for k, ker in enumerate(sub_if_basis(datum, vertex, level, side)):
            prod = f_mul(power, ker) if side == "left" else f_mul(ker, power)
            columns.append([prod.terms.get(w, ZERO) for w in wb.basis_words])
            labels.append((t, k))
    rows = [
        [columns[c][r] for c in range(len(columns))] for r in range(wb.dim)
    ]
    rhs = [ONE if w == word else ZERO for w in wb.basis_words]
    sol = linalg.solve(rows, rhs)
    if sol is None or len(columns) != wb.dim:
        raise RuntimeError(
            "divided-power decomposition failed; the direct-sum invariant is broken"
        )
    pieces: dict = {}
    for (t, k), c in zip(labels, sol):
        if not c:
            continue
        level = sub_vec(nu, scale_vec(t, datum.unit_vec(vertex)))
        ker = sub_if_basis(datum, vertex, level, side)[k]
        piece = pieces.get(t, FElement(datum))
        pieces[t] = piece + ker.scale(c)
    return tuple(sorted((t, p) for t, p in pieces.items() if not p.is_zero()))


def i_decompose(vertex: int, x: FElement) -> list:
    """Unique pieces x_t in the left kernel subalgebra with
    x = sum_t th^(t) x_t; only nonzero pieces are returned."""
    return _i_decompose_side(vertex, x, "left")


def i_decompose_right(vertex: int, x: FElement) -> list:
    """Mirror decomposition x = sum_t x_t th^(t) with right-kernel pieces."""
    return _i_decompose_side(vertex, x, "right")


def _i_decompose_side(vertex: int, x: FElement, side: str) -> list:
    weights = x.weights()
    if len(weights) > 1:
        raise ValueError("decomposition needs a homogeneous element")
    pieces: dict = {}
    for w, c in x.terms.items():
        for t, piece in _decompose_word(x.datum, vertex, w, side):
            acc = pieces.get(t, FElement(x.datum))
            pieces[t] = acc + piece.scale(c)
    return sorted((t, p) for t, p in pieces.items() if not p.is_zero())


def dim_decomposition_check(datum: CartanDatum, vertex: int, nu: tuple) -> bool:
    """dim f_nu equals the sum over t of the kernel-subspace dimensions."""
    idx = datum.index(vertex)
    total = 0
    for t in range(nu[idx] + 1):
        level = sub_vec(nu, scale_vec(t, datum.unit_vec(vertex)))
        total += len(sub_if_basis(datum, vertex, level, "left"))
    return total == weight_basis(datum, nu).dim


def in_kernel(vertex: int, side: str, x: FElement) -> bool:
    return i_r_component(vertex, side, x).is_zero()


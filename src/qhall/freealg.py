"""The free graded algebra on the generators th_i over Q(v).

Carries the twisted coproduct determined by th_i |-> th_i x 1 + 1 x th_i,
its twisted derivations i_r and r_i, and the symmetric bilinear form.
The form is read off the derivation i_r alone (Lusztig 1.2.13): one
memoized recursion pairs words at generator normalization 1, with
nonnegative integer coefficients, and a normalization c scales a pairing
of weight nu by c^|nu|.  The weight bases of f, lusztig_form and the
double all read this one pairing.  Words are tuples of vertex ids;
elements map words to Q(v) coefficients.

The word-level coproduct and form are memoized per datum in bounded
caches; cached values are pure, so an evicted entry is recomputed alike.
So are each word's weight and pairing vector p, with sym_form(wt w, mu)
== p . mu for every mu: the twisted tensor product reads its twist
v^(|y|,|x'|) as p(y) . wt(x'), and the quantum group and the symmetries
read the same memo for their torus twists.  Each term pair's two
coefficients and twist make one product, RatFunc.times.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .cartan import CartanDatum
from .lincomb import LinComb, _share, _shared, bilinear, linear, merge
from .ratfunc import ONE, ONE_POLY, IntPoly, RatFunc, ZERO, v_pow

Word = tuple[int, ...]

# default generator normalization (th_i, th_i) = 1/(1 - v^-2)
DEFAULT_FORM_CONSTANT = (ONE - v_pow(-2)).inverse()


class FreeElement(LinComb):
    """Linear combination of words; weights may mix across terms."""

    __slots__ = SPACE = ("datum",)

    @staticmethod
    def generator(datum: CartanDatum, vertex: int) -> "FreeElement":
        if vertex not in datum.vertices:
            raise ValueError(f"unknown vertex {vertex}")
        return FreeElement(datum, {(vertex,): ONE})

    @staticmethod
    def unit(datum: CartanDatum) -> "FreeElement":
        return FreeElement(datum, {(): ONE})

    @staticmethod
    def word(datum: CartanDatum, word: Word, coeff: RatFunc = ONE) -> "FreeElement":
        return FreeElement(datum, {tuple(word): coeff})

    def __mul__(self, other: "FreeElement") -> "FreeElement":
        return free_mul(self, other)

    def __str__(self):
        from .exprs import format_element

        return format_element(self)

    def __repr__(self):
        return f"FreeElement({self})"


class TensorElement(LinComb):
    """Linear combination of word pairs in the twisted tensor square."""

    __slots__ = SPACE = ("datum",)

    @staticmethod
    def unit(datum: CartanDatum) -> "TensorElement":
        return TensorElement(datum, {((), ()): ONE})

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        return twisted_tensor_mul(self, other)


def free_mul(x: FreeElement, y: FreeElement) -> FreeElement:
    if x.datum != y.datum:
        raise ValueError("operands live over different data")
    return x._like(bilinear(x.terms.items(), y.terms.items(), _concat))


def _concat(w1: Word, w2: Word) -> tuple:
    return ((w1 + w2, ONE),)


def twisted_tensor_mul(t1: TensorElement, t2: TensorElement) -> TensorElement:
    """(x ⊗ y)(x' ⊗ y') = v^(|y|,|x'|) xx' ⊗ yy', the twist p(y) . wt(x')
    read off the word memos and taken into the coefficient product
    (RatFunc.times)."""
    if t1.datum != t2.datum:
        raise ValueError("operands live over different data")
    d = t1.datum
    ys = [(x, y, _word_weight(d, x), c) for (x, y), c in t2.terms.items()]
    out: dict = {}
    for (x1, y1), c1 in t1.terms.items():
        p = _word_pairing(d, y1)
        for x2, y2, wt_x2, c2 in ys:
            merge(out, (x1 + x2, y1 + y2), c1.times(c2, sum(map(mul, p, wt_x2))))
    return t1._like(out)


# _word_weight and _word_pairing are bounded above the largest fill
# measured: one scripts/run_verify.py process leaves 1,204 and 592 entries
# in them, one symbolic-verify round 223 and 171, and the u-queries stream
# 102 and 102.
@lru_cache(maxsize=1 << 11)
def _word_weight(datum: CartanDatum, word: Word) -> tuple:
    return datum.weight_of_word(word)


@lru_cache(maxsize=1 << 11)
def _word_pairing(datum: CartanDatum, word: Word) -> tuple:
    """The pairing vector p of the word's weight nu: sym_form(nu, mu) ==
    p . mu for every mu.  It is linear in nu, so the pairing vector of a
    difference of word weights is the difference of theirs."""
    nu = _word_weight(datum, word)
    return tuple(sum(map(mul, row, nu)) for row in datum.cartan)


# coproduct_word and words_of_weight are bounded above the largest fill
# measured: one scripts/run_verify.py process leaves 3,059 and 389 entries
# in them, one symbolic-verify round 427 and 35, and the u-queries stream
# none.
@lru_cache(maxsize=4096)
def coproduct_word(datum: CartanDatum, word: Word) -> tuple:
    """Coproduct of a single word as a tuple of ((w1, w2), coeff), each
    word pair and coefficient shared with every other row (lincomb._share)."""
    if not word:
        return ((((), ()), ONE),)
    head, rest = word[0], word[1:]
    gen = TensorElement(
        datum, {((head,), ()): ONE, ((), (head,)): ONE}
    )
    tail = TensorElement(datum, dict(coproduct_word(datum, rest)))
    return _share(twisted_tensor_mul(gen, tail).terms.items())


def coproduct_r(x: FreeElement) -> TensorElement:
    """The algebra homomorphism into the twisted tensor square."""
    d = x.datum
    terms = linear(x.terms.items(), lambda w: coproduct_word(d, w))
    return TensorElement(d)._like(terms)


def _derive_word(datum: CartanDatum, vertex: int, word: Word, side: str) -> list:
    """Twisted derivation of a word: (word without letter k, exponent of v)
    for each k with word[k] == vertex; the exponent pairs alpha_vertex with
    the weight of word[:k] (side="left", i_r) or word[k+1:] (r_i)."""
    a = dict(zip(datum.vertices, datum.cartan[datum.index(vertex)]))
    order = range(len(word)) if side == "left" else range(len(word) - 1, -1, -1)
    out, e = [], 0
    for k in order:
        if word[k] == vertex:
            out.append((word[:k] + word[k + 1:], e))
        e += a[word[k]]
    return out


# _form_words is shared by every weight and every caller: one
# scripts/run_verify.py process leaves 20,875 entries in it before its
# E6-f row, which fills it to the bound, one symbolic-verify round 2,045,
# the u-queries stream 582 and one hall-verify round 372.  Its values are
# stored through lincomb._shared: the 2,045 forms of the round are 240
# objects, one per value.
@lru_cache(maxsize=1 << 16)
def _form_words(datum: CartanDatum, w: Word, u: Word) -> IntPoly:
    """The form (w, u) at generator normalization 1, for words w and u of
    the same weight (the caller checks this): the sum of v^e (w', u[1:])
    over (w', e) in i_r w, i = u[0].  Its coefficients are nonnegative
    integers."""
    if not u:
        return _shared(ONE_POLY)
    acc: dict = {}
    for sub, e in _derive_word(datum, u[0], w, "left"):
        for x, c in _form_words(datum, sub, u[1:]).coeffs.items():
            acc[x + e] = acc.get(x + e, 0) + c
    return _shared(IntPoly(acc))


def word_form(datum: CartanDatum, w1: Word, w2: Word, c_gen: RatFunc) -> RatFunc:
    """The form (w1, w2) at generator normalization (th_i, th_i) = c_gen:
    zero across weights, else c_gen^|w1| times the form at normalization 1,
    since the recursion takes one factor c_gen per letter."""
    if datum.weight_of_word(w1) != datum.weight_of_word(w2):
        return ZERO
    return c_gen ** len(w1) * RatFunc(_form_words(datum, w1, w2))


def lusztig_form(x: FreeElement, y: FreeElement) -> RatFunc:
    """Symmetric bilinear form with (1,1) = 1, (th_i, th_j) = delta_ij
    DEFAULT_FORM_CONSTANT, and multiplicativity against the twisted
    coproduct.  Distinct weights pair to zero."""
    if x.datum != y.datum:
        raise ValueError("operands live over different data")
    forms = (
        c1 * c2 * word_form(x.datum, w1, w2, DEFAULT_FORM_CONSTANT)
        for w1, c1 in x.terms.items()
        for w2, c2 in y.terms.items()
    )
    return sum(forms, ZERO)


@lru_cache(maxsize=1024)
def words_of_weight(datum: CartanDatum, nu: tuple) -> tuple[Word, ...]:
    """All words with the given weight, in lexicographic vertex order."""
    letters = []
    for v, n in zip(datum.vertices, nu):
        letters.extend([v] * n)
    if not letters:
        return ((),)
    out = []

    def rec(remaining: dict, acc: list):
        if not remaining:
            out.append(tuple(acc))
            return
        for v in sorted(remaining):
            nxt = dict(remaining)
            nxt[v] -= 1
            if not nxt[v]:
                del nxt[v]
            acc.append(v)
            rec(nxt, acc)
            acc.pop()

    counts: dict = {}
    for v in letters:
        counts[v] = counts.get(v, 0) + 1
    rec(counts, [])
    return tuple(out)


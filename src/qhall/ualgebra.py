"""The quantum group U over Q(v) in triangular normal form.

A term is (F-word, coweight, E-word) with the F/E words drawn from the
canonical quotient-algebra bases, so the term keys realize the tensor
factorization U- x U0 x U+.  Multiplication straightens every E.F
adjacency through the commutator relation, moves torus elements past
E/F letters with the usual v-powers, and re-reduces the E/F words.

Straightening of (E-word, F-word) pairs is memoized per datum,
letter-local, and terminates because each step strictly shrinks the
total word length on one side of the recursion.

The product of two terms reads memos keyed by one or two words, and the
coproduct and antipode of terms are memoized on their words alone; the
torus costs nothing extra (Lusztig, Introduction to Quantum Groups,
3.1.4).  The coproduct and antipode of a word pair are built from the
memoized pair less its last letter, by one product with that letter:
Delta(prefix) Delta(last) and S(last) S(prefix).  Two small memos keep the
coproduct and antipode of the last terms read, torus included, since the
Hopf identities read the factors of the terms of Delta x again and again.
Moving K_mu past an F- or E-word of weight nu costs v^(+-sym_form(nu,
mu)), a linear function of mu, so a torus-free memo keeps rows (key,
coefficient, pairing vector), and one torus twist, _twisted, moves the
rows to a torus element: each key's coweight is shifted, and its
v-exponent is the pairing vector dotted with the twist.
Each memo stores its pairing vectors with the sign its identity needs,
and its rows through lincomb._share, so that equal keys, coefficients and
pairing vectors across all rows are one object.
u_mul, the antipode and the symmetries read their memos so:

- F_f1 K_m1 E_e1 . F_f2 K_m2 E_e2 (_product_rows): each straightened
  middle term F_fw K_kappa E_ew of E_e1 F_f2, read from _straighten with
  the pairing vectors pf and pe of -wt fw and -wt ew, gets
  v^(pf . m1 + pe . m2) and coweight kappa + m1 + m2, and its outer words
  are renormalized by the word normal forms of f1 fw and ew e2
  (falgebra._normal_form_word): one row per pair of their basis words.
  No memo holds whole products: a stream of products meets the pair
  (e1, f2) and the concatenations again and again, and the quadruple
  (f1, e1, f2, e2) seldom.  _collect_products, which u_mul, the antipode
  and symmetries._apply_inverse share, collects the products
  c2 (c1 c) v^k per output key, and each key is reduced once
  (ratfunc.sum_products), as symmetries._apply_table does.
- S(F_fw K_mu E_ew) = S(E_ew) K_-mu S(F_fw): S(F_fw E_ew) at twist mu
  and shift -mu, so a term (fa, kappa, ea) gets
  v^(alpha(wt ew, mu) + alpha(wt fa, mu)).
- Delta(F_fw K_mu E_ew): Delta(F_fw E_ew) with mu added to both
  coweights and no v-power, since every left and right factor of
  Delta(F_fw) is an F-word then a torus element, and of Delta(E_ew) a
  torus element then an E-word.
- Each Hopf identity on x is one pass over the terms c a x b of Delta x
  (hopf_sides): both sides of coassociativity merge _delta_key rows in
  place, each counit side merges the terms whose a (or b) is a torus
  element, and each antipode side collects every product c S(a) . b (or
  a . c S(b)) through _collect_products and reduces each key once.  The
  product of UTensor, which _delta_words builds on, collects the
  _product_rows pairs of both factors the same way.

Every pairing vector is read from one bounded memo, freealg._word_pairing,
of the pairing vector of each word's weight.  The pairing is linear in the
weight, p(a - b) = p(a) - p(b), so the straightening memo, the antipode,
and the pair rows and T_i^-1 of symmetries negate, add or subtract
memoized vectors rather than weigh each row's words and pair the result.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .cartan import CartanDatum, add_vec, neg_vec
from .falgebra import FElement, _normal_form_word
from .freealg import Word, _word_pairing
from .lincomb import LinComb, _share, linear, merge
from .ratfunc import MINUS_ONE, ONE, RatFunc, ZERO, sum_products, v_pow

UKey = tuple[Word, tuple, Word]


class UElement(LinComb):
    __slots__ = SPACE = ("datum",)

    @staticmethod
    def unit(datum: CartanDatum) -> "UElement":
        return UElement(datum, {((), datum.zero_vec(), ()): ONE})

    @staticmethod
    def E(datum: CartanDatum, vertex: int) -> "UElement":
        if vertex not in datum.vertices:
            raise ValueError(f"unknown vertex {vertex}")
        return UElement(datum, {((), datum.zero_vec(), (vertex,)): ONE})

    @staticmethod
    def F(datum: CartanDatum, vertex: int) -> "UElement":
        if vertex not in datum.vertices:
            raise ValueError(f"unknown vertex {vertex}")
        return UElement(datum, {((vertex,), datum.zero_vec(), ()): ONE})

    @staticmethod
    def K(datum: CartanDatum, mu: tuple) -> "UElement":
        return UElement(datum, {((), tuple(mu), ()): ONE})

    def __mul__(self, other: "UElement") -> "UElement":
        return u_mul(self, other)

    def sorted_terms(self):
        def key(item):
            (fw, mu, ew), _ = item
            return (len(fw), fw, mu, len(ew), ew)

        return sorted(self.terms.items(), key=key)

    def __str__(self):
        from .exprs import format_u

        return format_u(self)

    def __repr__(self):
        return f"UElement({self})"


def embed_plus(x: FElement) -> UElement:
    zero = x.datum.zero_vec()
    return UElement(x.datum, {((), zero, w): c for w, c in x.terms.items()})


def embed_minus(x: FElement) -> UElement:
    zero = x.datum.zero_vec()
    return UElement(x.datum, {((w), zero, ()): c for w, c in x.terms.items()})


def plus_part(x: UElement) -> FElement:
    """The E-slot of a pure U+ element; raises when F or K slots appear."""
    zero = x.datum.zero_vec()
    out = {}
    for (fw, mu, ew), c in x.terms.items():
        if fw or mu != zero:
            raise ValueError("element does not lie in the positive part")
        out[ew] = c
    return FElement(x.datum, out)


# _straighten is bounded above the largest fill measured: one
# scripts/run_verify.py process leaves 936 entries in it, one
# symbolic-verify round 300 and the u-queries stream 232.  The stream's
# 30 timed rounds miss it 18 times, while their products alone meet
# 3,000 distinct word quadruples (f1, e1, f2, e2).
@lru_cache(maxsize=1 << 10)
def _straighten(datum: CartanDatum, ew: Word, fw: Word) -> tuple:
    """Normal form of (E-word).(F-word), as rows (key, coefficient, pf,
    pe): pf and pe are the pairing vectors of -wt of the key's F-word and
    of -wt of its E-word, so that K_m1 moved in from the left and K_m2
    from the right cost v^(pf . m1 + pe . m2).  With a the last letter of
    ew and b the first of fw, E_a F_b = F_b E_a + delta_ab (K_a -
    K_-a)/(v - v^-1), and each part is a product of shorter pairs."""
    zero = datum.zero_vec()
    if not ew and not fw:
        terms = ((((), zero, ()), ONE),)
    elif not ew:
        terms = (((bw, zero, ()), c) for bw, c in _normal_form_word(datum, fw))
    elif not fw:
        terms = ((((), zero, bw), c) for bw, c in _normal_form_word(datum, ew))
    else:
        a, b = ew[-1], fw[0]
        ew_head, fw_tail = ew[:-1], fw[1:]
        groups: dict = {}
        _collect_products(
            datum,
            _middle(datum, ew_head, (b,)),
            _middle(datum, (a,), fw_tail),
            groups,
        )
        if a == b:
            # E_head K_+-a F_tail
            #   = v^-+alpha(wt F_tail, h) (E_head F_tail) K_+-a
            h = datum.unit_vec(a)
            k = datum.sym_form(datum.weight_of_word(fw_tail), h)
            denom = (v_pow(1) - v_pow(-1)).inverse()
            torus = (
                (((), h, ()), denom.shift(-k)),
                (((), neg_vec(h), ()), -denom.shift(k)),
            )
            _collect_products(datum, _middle(datum, ew_head, fw_tail), torus, groups)
        terms = sum_products(groups).items()
    return _share(
        (
            key,
            c,
            neg_vec(_word_pairing(datum, key[0])),
            neg_vec(_word_pairing(datum, key[2])),
        )
        for key, c in terms
    )


def _middle(datum: CartanDatum, ew: Word, fw: Word) -> tuple:
    """E_ew F_fw as (key, coefficient) pairs."""
    return tuple((key, c) for key, c, _pf, _pe in _straighten(datum, ew, fw))


def _twisted(rows, twist: tuple, shift: tuple):
    """Rows (key, coefficient, pairing vector) of a torus-free memo at one
    torus element: each key's coweight moved by shift, with v-exponent
    pairing . twist, as (key, coefficient, exponent)."""
    if not any(twist) and not any(shift):
        return ((key, c, 0) for key, c, _p in rows)
    return (
        ((fw, add_vec(kappa, shift), ew), c, sum(map(mul, p, twist)))
        for (fw, kappa, ew), c, p in rows
    )


def _product_rows(datum: CartanDatum, t1: UKey, t2: UKey):
    """F_f1 K_m1 E_e1 . F_f2 K_m2 E_e2 as rows (key, coefficient,
    exponent), one per straightened middle term (fw, kappa, ew) of
    E_e1 F_f2 and per pair of basis words of the normal forms of f1 fw
    and ew e2: K_m1 moves right past F_fw and K_m2 left past E_ew, at
    v^(pf . m1 + pe . m2) from the middle row's pairing vectors, and both
    join kappa.  Rows of one middle term share that exponent; the rows
    are not merged per key."""
    (f1, m1, e1), (f2, m2, e2) = t1, t2
    twisted = any(m1) or any(m2)
    shift = add_vec(m1, m2)
    for (fw, kappa, ew), c, pf, pe in _straighten(datum, e1, f2):
        k = 0
        if twisted:
            k = sum(map(mul, pf, m1)) + sum(map(mul, pe, m2))
            kappa = add_vec(kappa, shift)
        ftotal = _normal_form_word(datum, f1 + fw) if f1 else ((fw, ONE),)
        etotal = _normal_form_word(datum, ew + e2) if e2 else ((ew, ONE),)
        for bf, cf in ftotal:
            cf = c * cf
            for be, ce in etotal:
                yield (bf, kappa, be), cf * ce, k


def _collect_products(datum: CartanDatum, xs, ys, groups: dict) -> None:
    """Every pair of terms F_f1 K_m1 E_e1 of xs and F_f2 K_m2 E_e2 of ys
    ((key, coefficient) pairs; ys is read once per term of xs) is
    multiplied out by _product_rows; the triples (c2, c1 * row
    coefficient, exponent) are appended to groups per output key, for
    ratfunc.sum_products.  Row coefficients are mostly Laurent
    polynomials, so with c1 one too (as in T_i^-1(F_a)) that product needs
    no gcd and the triples keep the denominators of ys.  c1 is ONE for a
    term of T_i^-1(F_a) that several F-word groups share, whose
    coefficients symmetries._apply_inverse has summed into ys."""
    for t1, c1 in xs:
        for t2, c2 in ys:
            for key, c, k in _product_rows(datum, t1, t2):
                groups.setdefault(key, []).append((c2, c1 * c, k))


def u_mul(x: UElement, y: UElement) -> UElement:
    """x y: the term pairs collected by _collect_products, each key's sum
    reduced once."""
    if x.datum != y.datum:
        raise ValueError("operands live over different data")
    groups: dict = {}
    _collect_products(x.datum, x.terms.items(), y.terms.items(), groups)
    return x._like(sum_products(groups))


def u_product(factors) -> UElement:
    it = iter(factors)
    out = next(it)
    for f in it:
        out = u_mul(out, f)
    return out


def counit(x: UElement) -> RatFunc:
    return sum((c for (fw, _mu, ew), c in x.terms.items() if not fw and not ew), ZERO)


# ---------------------------------------------------------------------------
# comultiplication and antipode


class UTensor(LinComb):
    __slots__ = SPACE = ("datum",)

    @staticmethod
    def unit(datum: CartanDatum) -> "UTensor":
        one = ((), datum.zero_vec(), ())
        return UTensor(datum, {(one, one): ONE})

    def __mul__(self, other: "UTensor") -> "UTensor":
        """(a1 x b1)(a2 x b2) = a1 a2 x b1 b2: the products c1 ca . c2 cb
        v^(i + j) of the rows of both factors collected per key pair, each
        pair's sum reduced once."""
        if self.datum != other.datum:
            raise ValueError("operands live over different data")
        d, groups = self.datum, {}

        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                right = [(kb, c2 * cb, j) for kb, cb, j in _product_rows(d, b1, b2)]
                for ka, ca, i in _product_rows(d, a1, a2):
                    ca = c1 * ca
                    for kb, cb, j in right:
                        groups.setdefault((ka, kb), []).append((ca, cb, i + j))
        return self._like(sum_products(groups))


def _delta_generator(datum: CartanDatum, kind: str, vertex: int) -> UTensor:
    one = ((), datum.zero_vec(), ())
    h = datum.unit_vec(vertex)
    if kind == "E":
        ek = ((), datum.zero_vec(), (vertex,))
        kk = ((), h, ())
        return UTensor(datum, {(ek, one): ONE, (kk, ek): ONE})
    fk = ((vertex,), datum.zero_vec(), ())
    kneg = ((), neg_vec(h), ())
    return UTensor(datum, {(fk, kneg): ONE, (one, fk): ONE})


@lru_cache(maxsize=1 << 10)
def _delta_words(datum: CartanDatum, fw: Word, ew: Word) -> tuple:
    """Delta(F_fw E_ew) as ((left key, right key), coefficient) pairs: the
    memoized Delta of the words less their last letter times Delta of that
    letter."""
    if ew:
        head, last = (fw, ew[:-1]), _delta_generator(datum, "E", ew[-1])
    elif fw:
        head, last = (fw[:-1], ()), _delta_generator(datum, "F", fw[-1])
    else:
        return _share(UTensor.unit(datum).terms.items())
    prefix = UTensor(datum, dict(_delta_words(datum, *head)))
    return _share((prefix * last).terms.items())


# The per-term memos keep the rows of the last terms read: hopf_sides meets
# the factors of the terms of Delta x again and again.  Both fill to their
# bound.  One symbolic-verify round reads _delta_key 10,054 times and
# _antipode_key 9,244 times, with 3,361 misses each; one
# scripts/run_verify.py process 31,264 and 28,802 times, with 11,357
# misses each; the u-queries stream not at all.  At 256 entries the round
# was no faster and its peak RSS 0.4 MB higher; at 64 it was slower.
# Their rows are lists, which their callers only read: a tuple of up to 20
# items that an eviction frees stays on CPython's tuple free list, and
# tuples held the round's peak RSS 0.3 MB higher.  _delta_words and _antipode_words hold
# 159 word pairs each after one symbolic-verify round, 443 after one
# scripts/run_verify.py process and none after the u-queries stream; both
# store their rows through lincomb._share, and the 916 coefficients of
# _delta_words after the round are 10 objects.
@lru_cache(maxsize=128)
def _delta_key(datum: CartanDatum, key: UKey) -> list:
    """Delta of one term: Delta(F_fw E_ew) with mu added to both
    coweights."""
    fw, mu, ew = key
    return [
        (((fa, add_vec(ka, mu), ea), (fb, add_vec(kb, mu), eb)), c)
        for ((fa, ka, ea), (fb, kb, eb)), c in _delta_words(datum, fw, ew)
    ]


def delta(x: UElement) -> UTensor:
    """Comultiplication E |-> E x 1 + K x E, F |-> F x K^-1 + 1 x F,
    K |-> K x K, extended multiplicatively."""
    d = x.datum
    return UTensor(d)._like(linear(x.terms.items(), lambda key: _delta_key(d, key)))


@lru_cache(maxsize=1 << 10)
def _antipode_words(datum: CartanDatum, fw: Word, ew: Word) -> tuple:
    """S(F_fw E_ew) as rows for _twisted at twist mu and shift -mu: the
    pairing vector is that of wt(ew) + wt(F-word of the key).  With x the
    last letter, S(prefix . x) = S(x) S(prefix), the prefix read from this
    memo; S(E_i) = -K_-i E_i and S(F_i) = -F_i K_i."""
    if ew:
        head, last = (fw, ew[:-1]), ((), neg_vec(datum.unit_vec(ew[-1])), ew[-1:])
    elif fw:
        head, last = (fw[:-1], ()), (fw[-1:], datum.unit_vec(fw[-1]), ())
    else:
        zero = datum.zero_vec()
        return _share(((((), zero, ()), ONE, zero),))
    groups: dict = {}
    prefix = ((key, c) for key, c, _p in _antipode_words(datum, *head))
    _collect_products(datum, ((last, MINUS_ONE),), prefix, groups)
    pew = _word_pairing(datum, ew)
    return _share(
        (key, c, add_vec(pew, _word_pairing(datum, key[0])))
        for key, c in sum_products(groups).items()
    )


@lru_cache(maxsize=128)
def _antipode_key(datum: CartanDatum, key: UKey) -> list:
    """S of one term as (key, coefficient) pairs: S(F_fw E_ew) with K_-mu
    moved in from between S(E_ew) and S(F_fw)."""
    fw, mu, ew = key
    rows = _twisted(_antipode_words(datum, fw, ew), mu, neg_vec(mu))
    return [(term, c.shift(k)) for term, c, k in rows]


def antipode(x: UElement) -> UElement:
    """Antihomomorphism with S(E) = -K^-1 E, S(F) = -F K, S(K_mu) = K_-mu.

    The F-generator image is the one forced by the Hopf axioms for the
    comultiplication above.
    """
    d = x.datum
    return x._like(linear(x.terms.items(), lambda key: _antipode_key(d, key)))


def hopf_sides(x: UElement):
    """(identity, got, want) for coassociativity, (eps x 1)Delta = id,
    (1 x eps)Delta = id, m(S x 1)Delta = eps and m(1 x S)Delta = eps on x,
    in that order; each side is built only once the ones before it have
    been read.  The counit sides keep the terms c a x b of Delta x whose
    a (or b) is a torus element, where eps is 1.  Each antipode side
    collects the products c S(a) . b (or a . c S(b)) over the terms of
    Delta x and reduces each key once."""
    d = x.datum
    dx = delta(x).terms.items()
    left: dict = {}
    right: dict = {}
    for (a, b), c in dx:
        for (a1, a2), ca in _delta_key(d, a):
            merge(left, (a1, a2, b), c * ca)
        for (b1, b2), cb in _delta_key(d, b):
            merge(right, (a, b1, b2), c * cb)
    yield "coassociativity", left, right
    left, right = {}, {}
    for (a, b), c in dx:
        if not a[0] and not a[2]:
            merge(left, b, c)
        if not b[0] and not b[2]:
            merge(right, a, c)
    yield "(eps x 1)Delta = id", x._like(left), x
    yield "(1 x eps)Delta = id", x._like(right), x
    left, right = {}, {}
    for (a, b), c in dx:
        _collect_products(d, _antipode_key(d, a), ((b, c),), left)
        _collect_products(d, ((a, c),), _antipode_key(d, b), right)
    eps = UElement.unit(d).scale(counit(x))
    yield "m(S x 1)Delta = eps", x._like(sum_products(left)), eps
    yield "m(1 x S)Delta = eps", x._like(sum_products(right)), eps


def u_degree(datum: CartanDatum, key: UKey) -> tuple:
    """ZI-degree of a triangular term: weight(E) - weight(F)."""
    fw, _mu, ew = key
    return tuple(
        e - f
        for e, f in zip(
            datum.weight_of_word(ew), datum.weight_of_word(fw)
        )
    )

"""Braid-group symmetries of the quantum group.

ti_apply extends the generator table

    T_i(E_i) = -F_i K_i                 T_i(F_i) = -K_-i E_i
    T_i(E_j) = sum (-1)^r v^-r E_i^(s) E_j E_i^(r)      (r+s = -a_ij)
    T_i(F_j) = sum (-1)^r v^r  F_i^(r) F_j F_i^(s)
    T_i(K_mu) = K_(mu - alpha_i(mu) h_i)

multiplicatively.  The inverse table is the sigma-image of this one, as
T_i^-1 = sigma T_i sigma (Lusztig, Introduction to Quantum Groups,
37.2.4), and is not trusted: it is certified against T_i o T_i^-1 = id on
every generator the first time a (datum, i) pair is used, and a failure
raises.

On a triangular term the extension is

    T_i(F_a K_mu E_b) = T_i(F_a) K_lam T_i(E_b)
                      = v^alpha_delta(lam) T_i(F_a) T_i(E_b) K_lam

with lam = s_i mu and delta the U-degree (E-weight minus F-weight) of
T_i(E_b), since K_lam Y = v^alpha_delta(lam) Y K_lam for homogeneous Y
of degree delta, and K_lam then moves past each term's E-word.  So the
word-pair product T_i(F_a) T_i(E_b) does not depend on the coweight: it
is kept as torus-free rows in a bounded cache, and the one torus twist of
ualgebra (_twisted, which the antipode reads too) moves each row to
lam.  The products c * pc * v^k (a coefficient of x, a row's
coefficient, the twist) are collected per output key and each key is
reduced once (ratfunc.sum_products).

t_tilde_apply is the decomposition-based route: each pure F-word or
E-word is split through the divided-power decomposition, the kernel
pieces are moved by the restricted symmetry, and the minus side is
rescaled by the transport factor (-v)^-(nu,i) that makes the reassembly
agree with ti_apply exactly.  The forward routes T_i and T~_i differ
only in their word images: both read their word-pair rows from one
bounded memo keyed by the route, and twist them the same way.  So they
agree on every monomial once their word images agree, which is what
ti-decomposition-route compares.

T_i^-1 reads no pair rows.  Its inputs are mostly images of T_i, whose
terms share few F-words and whose pair products are large and rarely
met twice, so it writes x = sum_a F_a Y_a by F-word, builds each
R_a = T_i^-1(Y_a) from the word images of the E-words, and multiplies by
T_i^-1(F_a) through u_mul's term-pair loop.  The F-words of such an image
often share a weight, and then their images T_i^-1(F_a) share terms: a
shared term t is multiplied once, by the sum of c_(a,t) R_a over the
groups that have it.  Both twists are checked against products that
carry every K_mu through the computation.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .cartan import CartanDatum, add_vec, neg_vec, scale_vec, sub_vec
from .falgebra import (
    FElement,
    i_decompose,
    normal_form,
    sub_if_basis,
    theta_divided,
    weight_basis,
)
from .freealg import FreeElement, Word, _word_pairing
from . import linalg
from .lincomb import _share, _share_terms, linear
from .ratfunc import MINUS_ONE, ONE, RatFunc, ZERO, sum_products, v_pow
from .ualgebra import (
    UElement,
    _collect_products,
    _twisted,
    embed_minus,
    embed_plus,
    plus_part,
    u_mul,
    u_product,
)


def _sigma(x: UElement) -> UElement:
    """Lusztig's algebra anti-automorphism sigma: every E_j and F_j fixed,
    K_mu sent to K_-mu, and the factor order of every product reversed."""
    d = x.datum

    def image(key):
        fw, mu, ew = key
        e_rev, f_rev = (normal_form(FreeElement.word(d, w[::-1])) for w in (ew, fw))
        k = UElement.K(d, neg_vec(mu))
        return u_product([embed_plus(e_rev), k, embed_minus(f_rev)]).terms.items()

    return x._like(linear(x.terms.items(), image))


# _table, _certified, _word_image, _pair_image, _divided_image,
# _t_tilde_word and _reflected are bounded above the largest fill
# measured: one scripts/run_verify.py process leaves 18, 9, 1,102, 664,
# 72, 408 and 105 entries in them, one symbolic-verify round 10, 5, 370,
# 280, 34, 124 and 62, and the u-queries stream 6, 3, 363, 856, 18, 72
# and 189.  The rows of _pair_image hold shared keys, coefficients and
# pairing vectors (lincomb._shared), and so do the terms of _word_image
# and _t_tilde_word (lincomb._share_terms): the 1,145 coefficients of
# _word_image after the u-queries stream are 254 objects.
@lru_cache(maxsize=64)
def _table(datum: CartanDatum, vertex: int, inverse: bool) -> dict:
    """Generator images of T_i; for T_i^-1 = sigma T_i sigma, since sigma
    fixes every E_j and F_j, the sigma-images of those of T_i."""
    if inverse:
        return {g: _sigma(img) for g, img in _table(datum, vertex, False).items()}
    h = datum.unit_vec(vertex)
    fi = UElement.F(datum, vertex)
    ei = UElement.E(datum, vertex)
    images = {
        ("E", vertex): u_mul(fi, UElement.K(datum, h)).scale(MINUS_ONE),
        ("F", vertex): u_mul(UElement.K(datum, neg_vec(h)), ei).scale(MINUS_ONE),
    }
    zero = UElement(datum)
    for j in datum.vertices:
        if j == vertex:
            continue
        n = -datum.a(vertex, j)
        e = [embed_plus(theta_divided(datum, vertex, k)) for k in range(n + 1)]
        f = [embed_minus(theta_divided(datum, vertex, k)) for k in range(n + 1)]
        e_j, f_j = UElement.E(datum, j), UElement.F(datum, j)
        signs = [MINUS_ONE if r % 2 else ONE for r in range(n + 1)]
        e_sum = linear(
            ((r, sign * v_pow(-r)) for r, sign in enumerate(signs)),
            lambda r: u_product([e[n - r], e_j, e[r]]).terms.items(),
        )
        f_sum = linear(
            ((r, sign * v_pow(r)) for r, sign in enumerate(signs)),
            lambda r: u_product([f[r], f_j, f[n - r]]).terms.items(),
        )
        images[("E", j)] = zero._like(e_sum)
        images[("F", j)] = zero._like(f_sum)
    return images


@lru_cache(maxsize=32)
def _certified(datum: CartanDatum, vertex: int) -> bool:
    """Check T_i o T_i^-1 = id and T_i^-1 o T_i = id on all generators."""

    def forward(g):
        return _apply_table(vertex, g, "T")

    def inverse(g):
        return _apply_inverse(vertex, g)

    for j in datum.vertices:
        for maker in (UElement.E, UElement.F):
            g = maker(datum, j)
            if forward(inverse(g)) != g or inverse(forward(g)) != g:
                raise RuntimeError(
                    f"inverse symmetry table failed certification at vertex {j}"
                )
        k = UElement.K(datum, datum.unit_vec(j))
        if forward(inverse(k)) != k:
            raise RuntimeError("inverse symmetry table failed on the torus")
    return True


@lru_cache(maxsize=2048)
def _word_image(
    datum: CartanDatum, vertex: int, kind: str, word: Word, inverse: bool
) -> UElement:
    if not word:
        return UElement.unit(datum)
    table = _table(datum, vertex, inverse)
    head = table[(kind, word[0])]
    return _share_terms(u_mul(head, _word_image(datum, vertex, kind, word[1:], inverse)))


def _pair_rows(f_img: UElement, e_img: UElement) -> tuple:
    """f_img e_img as rows for _twisted at twist and shift lam, with e_img
    homogeneous of U-degree delta.  Moving K_lam from between the two
    images to the right of a term with E-word e costs
    v^sym_form(delta - wt(e), lam), so the row keeps the pairing vector
    of delta - wt(e)."""
    d = f_img.datum
    # the pairing vector of delta, from any term of e_img
    fw, _mu, ew = next(iter(e_img.terms))
    p_delta = sub_vec(_word_pairing(d, ew), _word_pairing(d, fw))
    prod = u_mul(f_img, e_img).terms
    # many rows share an E-word, so each pairing vector is computed once
    ewords = {e for _f, _kappa, e in prod}
    pairing = {e: sub_vec(p_delta, _word_pairing(d, e)) for e in ewords}
    return _share((key, c, pairing[key[2]]) for key, c in prod.items())


@lru_cache(maxsize=4096)
def _pair_image(
    datum: CartanDatum, vertex: int, route: str, fw: Word, ew: Word
) -> tuple:
    """T(F_fw) T(E_ew) as _pair_rows, where T is T_i on route "T" and the
    decomposition route T~_i on "T~"."""
    if route == "T~":
        return _pair_rows(
            _t_tilde_word(datum, vertex, "minus", fw),
            _t_tilde_word(datum, vertex, "plus", ew),
        )
    if route != "T":
        raise ValueError(f"no pair rows for route {route!r}")
    return _pair_rows(
        _word_image(datum, vertex, "F", fw, False),
        _word_image(datum, vertex, "E", ew, False),
    )


@lru_cache(maxsize=1 << 10)
def _reflected(datum: CartanDatum, vertex: int, mu: tuple) -> tuple:
    """The coweight s_i mu; the inputs of T_i and T_i^-1 meet few
    coweights."""
    return datum.reflect_coweight(vertex, mu)


def _apply_table(vertex: int, x: UElement, route: str) -> UElement:
    """T(F_a K_mu E_b) = v^alpha_delta(lam) T(F_a) T(E_b) K_lam with
    lam = s_i mu: one pair image of (a, b) on the route per term, twisted
    by lam.  The (c, pc, exponent) triples are collected per output key
    and each key's sum is reduced once."""
    d = x.datum
    groups: dict = {}
    for (fw, mu, ew), c in x.terms.items():
        lam = _reflected(d, vertex, mu)
        for key, pc, k in _twisted(_pair_image(d, vertex, route, fw, ew), lam, lam):
            groups.setdefault(key, []).append((c, pc, k))
    return x._like(sum_products(groups))


def _apply_inverse(vertex: int, x: UElement) -> UElement:
    """T_i^-1(x) with x = sum_a F_a Y_a grouped by F-word a: each
    R_a = T_i^-1(Y_a) = sum c K_lam T_i^-1(E_b), lam = s_i mu, is read
    off the word images, K_lam moved past each term's F-word f at
    v^-sym_form(wt f, lam), and reduced once.  Each term t of
    T_i^-1(F_a) that no other group has is multiplied by R_a.  A term
    that two or more groups share is multiplied once, by
    Z_t = sum_a c_(a,t) R_a reduced once, since
    t R_a + t R_b = t (c_a R_a + c_b R_b).  The products go through
    u_mul's term-pair loop, and the whole result is reduced once.  In a
    group of one term every key has one product, which
    ratfunc.sum_products takes as it is."""
    d = x.datum
    by_fword: dict = {}
    for (fw, mu, ew), c in x.terms.items():
        by_fword.setdefault(fw, []).append((c, _reflected(d, vertex, mu), ew))
    # T_i^-1(F_a) is homogeneous of degree s_i(-wt a), so two groups can
    # share a term only if their F-words have one weight, so one length
    n = len(by_fword)
    merge = n > 1 and len(set(map(len, by_fword))) < n
    groups: dict = {}
    lefts: dict = {}
    for fw, parts in by_fword.items():
        y: dict = {}
        for c, lam, ew in parts:
            for (f, kappa, e), pc in _word_image(d, vertex, "E", ew, True).terms.items():
                k = -sum(map(mul, _word_pairing(d, f), lam))
                y.setdefault((f, add_vec(kappa, lam), e), []).append((c, pc, k))
        right = sum_products(y).items()
        left = _word_image(d, vertex, "F", fw, True).terms.items()
        if not merge:
            _collect_products(d, left, right, groups)
            continue
        for t, c in left:
            lefts.setdefault(t, []).append((c, right))
    for t, factors in lefts.items():
        if len(factors) > 1:
            z: dict = {}
            for c, right in factors:
                for key, r in right:
                    z.setdefault(key, []).append((c, r, 0))
            factors = ((ONE, sum_products(z).items()),)
        for c, right in factors:
            _collect_products(d, ((t, c),), right, groups)
    return x._like(sum_products(groups))


def ti_apply(vertex: int, x: UElement) -> UElement:
    """Lusztig's symmetry at the given vertex."""
    x.datum.index(vertex)  # an unknown vertex fails on every input, zero too
    return _apply_table(vertex, x, "T")


def ti_inverse_apply(vertex: int, x: UElement) -> UElement:
    """The inverse symmetry; the table is certified on first use."""
    x.datum.index(vertex)
    _certified(x.datum, vertex)
    return _apply_inverse(vertex, x)


def ti_restricted(vertex: int, x: FElement) -> FElement:
    """The symmetry restricted to the left kernel subalgebra; the image
    must land in the positive part, which doubles as the membership
    check."""
    try:
        return plus_part(ti_apply(vertex, embed_plus(x)))
    except ValueError:
        raise ValueError(
            "image leaves the positive part; the input is not in the "
            "left kernel subalgebra"
        ) from None


def subalgebra_sides(datum: CartanDatum, vertex: int, nu: tuple):
    """(side, T-side, kernel) on f_nu for side "left", whose T-side is the
    x with T_i(x) in the positive part, and "right", with T_i^-1.  The
    kernel is sub_if_basis of that side.  Both are tuples of FElements
    built from linalg.nullspace in basis-word coordinates, and
    nullspace(A) depends only on ker A: the rref of A is fixed by the row
    space (ker A)^perp.  So the two bases are equal exactly when the two
    subspaces are."""
    wb = weight_basis(datum, nu)
    n = wb.dim
    zero_mu = datum.zero_vec()
    for side, apply_fn in (("left", ti_apply), ("right", ti_inverse_apply)):
        bad_rows: dict = {}
        for col, w in enumerate(wb.basis_words):
            img = apply_fn(vertex, embed_plus(FElement(datum, {w: ONE})))
            for key, c in img.terms.items():
                fw, mu, _ew = key
                if fw or mu != zero_mu:
                    bad_rows.setdefault(key, [ZERO] * n)[col] = c
        rows = [bad_rows[k] for k in sorted(bad_rows)]
        t_side = tuple(
            FElement(datum, dict(zip(wb.basis_words, vec)))
            for vec in linalg.nullspace(linalg.QV, rows, n)
        )
        yield side, t_side, sub_if_basis(datum, vertex, nu, side)


def minus_transport(datum: CartanDatum, vertex: int, nu: tuple) -> RatFunc:
    """Scalar carrying the restricted symmetry from the plus to the
    minus embedding: T(x^-) = (-v)^-(nu,i) T(x)^- on kernel elements."""
    e = datum.sym_form(nu, datum.unit_vec(vertex))
    val = v_pow(-e)
    return val if e % 2 == 0 else -val


@lru_cache(maxsize=256)
def _divided_image(
    datum: CartanDatum, vertex: int, sign: str, r: int
) -> UElement:
    power = theta_divided(datum, vertex, r)
    emb = embed_minus(power) if sign == "minus" else embed_plus(power)
    return ti_apply(vertex, emb)


@lru_cache(maxsize=1024)
def _t_tilde_word(
    datum: CartanDatum, vertex: int, sign: str, word: Word
) -> UElement:
    """Decomposition-route image of a pure F-word (sign="minus") or
    E-word (sign="plus")."""
    pieces = dict(i_decompose(vertex, FElement(datum, {word: ONE})))
    nu = datum.weight_of_word(word)
    embed = embed_minus if sign == "minus" else embed_plus

    def transport(r):
        if sign == "plus":
            return ONE
        level = sub_vec(nu, scale_vec(r, datum.unit_vec(vertex)))
        return minus_transport(datum, vertex, level)

    def image(r):
        moved = embed(ti_restricted(vertex, pieces[r]))
        return u_mul(_divided_image(datum, vertex, sign, r), moved).terms.items()

    terms = linear(((r, transport(r)) for r in pieces), image)
    return _share_terms(UElement(datum)._like(terms))


def t_tilde_apply(vertex: int, x: UElement) -> UElement:
    """Symmetry computed through the direct-sum decomposition of each
    triangular slot; agrees exactly with ti_apply."""
    x.datum.index(vertex)
    return _apply_table(vertex, x, "T~")


def braid_sides(datum: CartanDatum, i: int, j: int):
    """(generator, lhs, rhs) of the braid relation T_iT_jT_i = T_jT_iT_j
    when a_ij = -1, and of T_iT_j = T_jT_i when a_ij = 0, on every
    generator and two mixed monomials.  Other a_ij, or i == j, raise
    ValueError on the first step."""
    if i == j:
        raise ValueError("braid relation needs distinct vertices")
    a = datum.a(i, j)
    if a not in (0, -1):
        raise ValueError(
            f"braid order for a_ij = {a} is outside the supported cases"
        )
    gens = []
    for k in datum.vertices:
        gens.append(UElement.E(datum, k))
        gens.append(UElement.F(datum, k))
        gens.append(UElement.K(datum, datum.unit_vec(k)))
    # defense in depth: a few short mixed monomials
    e0 = UElement.E(datum, datum.vertices[0])
    f1 = UElement.F(datum, datum.vertices[-1])
    gens.append(u_mul(e0, f1))
    gens.append(u_mul(f1, e0))
    for g in gens:
        if a == -1:
            lhs = ti_apply(i, ti_apply(j, ti_apply(i, g)))
            rhs = ti_apply(j, ti_apply(i, ti_apply(j, g)))
        else:
            lhs = ti_apply(i, ti_apply(j, g))
            rhs = ti_apply(j, ti_apply(i, g))
        yield g, lhs, rhs

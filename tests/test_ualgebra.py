import inspect
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from qhall import ualgebra, verify
from qhall.cartan import A2, A3, add_vec, load_datum, neg_vec, quiver_from_shorthand
from qhall.falgebra import (
    FElement,
    _normal_form_word,
    normal_form,
    theta_divided,
    weight_basis,
)
from qhall.freealg import FreeElement, _word_pairing
from qhall.lincomb import merge
from qhall.ratfunc import MINUS_ONE, ONE, ONE_POLY, IntPoly, RatFunc, v_pow
from qhall.symmetries import ti_apply
from qhall.ualgebra import (
    UElement,
    UTensor,
    _antipode_key,
    _antipode_words,
    _delta_generator,
    _delta_key,
    _delta_words,
    _straighten,
    _twisted,
    antipode,
    counit,
    delta,
    embed_minus,
    embed_plus,
    hopf_sides,
    plus_part,
    u_degree,
    u_mul,
    u_product,
)
from qhall.verify import _mu_samples, _u_monomial_keys

from helpers import parse_scalar


def E(d, i):
    return UElement.E(d, i)


def F(d, i):
    return UElement.F(d, i)


def K(d, mu):
    return UElement.K(d, mu)


def hopf_axiom_check(x):
    return all(got == want for _name, got, want in hopf_sides(x))


def test_embed_generators():
    assert embed_plus(FElement.generator(A2, 1)) == E(A2, 1)
    assert embed_minus(FElement.generator(A2, 1)) == F(A2, 1)
    assert embed_plus(FElement.unit(A2)) == UElement.unit(A2)


def test_commutator_relation():
    got = u_mul(E(A2, 1), F(A2, 1))
    dd = (v_pow(1) - v_pow(-1)).inverse()
    want = (
        u_mul(F(A2, 1), E(A2, 1))
        + (K(A2, (1, 0)) - K(A2, (-1, 0))).scale(dd)
    )
    assert got == want
    assert u_mul(E(A2, 1), F(A2, 2)) == u_mul(F(A2, 2), E(A2, 1))


def test_torus_commutation():
    k1 = K(A2, (1, 0))
    assert u_mul(k1, E(A2, 1)) == u_mul(E(A2, 1), k1).scale(v_pow(2))
    assert u_mul(k1, F(A2, 1)) == u_mul(F(A2, 1), k1).scale(v_pow(-2))
    assert u_mul(k1, E(A2, 2)) == u_mul(E(A2, 2), k1).scale(v_pow(-1))
    assert u_mul(K(A2, (1, 1)), K(A2, (0, -1))) == k1


def test_serre_relations_in_u():
    for d in (A2, A3):
        for i in d.vertices:
            for j in d.vertices:
                if i == j:
                    continue
                n = 1 - d.a(i, j)
                for maker, emb in ((E, embed_plus), (F, embed_minus)):
                    acc = UElement(d)
                    for k in range(n + 1):
                        sign = MINUS_ONE if k % 2 else ONE
                        acc = acc + u_product(
                            [
                                emb(theta_divided(d, i, k)),
                                maker(d, j),
                                emb(theta_divided(d, i, n - k)),
                            ]
                        ).scale(sign)
                    assert acc.is_zero()


def test_embed_is_homomorphism():
    words = [(1,), (2,), (1, 2), (2, 1), (1, 1, 2)]
    for w1 in words:
        for w2 in words:
            x = normal_form(FreeElement.word(A2, w1))
            y = normal_form(FreeElement.word(A2, w2))
            from qhall.falgebra import f_mul

            assert embed_plus(f_mul(x, y)) == u_mul(embed_plus(x), embed_plus(y))
            assert embed_minus(f_mul(x, y)) == u_mul(embed_minus(x), embed_minus(y))


def test_triangular_uniqueness():
    gens = [E(A2, 1), E(A2, 2), F(A2, 1), F(A2, 2), K(A2, (1, 0)), K(A2, (0, 1))]
    for seq in itertools.product(range(6), repeat=3):
        a, b, c = (gens[k] for k in seq)
        assert u_mul(u_mul(a, b), c) == u_mul(a, u_mul(b, c))
    # F_fw K_mu E_ew of basis words is exactly the term (fw, mu, ew)
    keys = _u_monomial_keys(A2, 2, _mu_samples(A2))
    for fw, mu, ew in keys:
        f = embed_minus(FElement(A2, {fw: ONE}))
        e = embed_plus(FElement(A2, {ew: ONE}))
        assert u_product([f, K(A2, mu), e]).terms == {(fw, mu, ew): ONE}
    assert len(set(keys)) == len(keys) > 30


def test_delta_on_generators():
    d1 = delta(E(A2, 1))
    one = ((), (0, 0), ())
    e1 = ((), (0, 0), (1,))
    k1 = ((), (1, 0), ())
    assert d1.terms == {(e1, one): ONE, (k1, e1): ONE}
    f1 = ((1,), (0, 0), ())
    km1 = ((), (-1, 0), ())
    assert delta(F(A2, 1)).terms == {(f1, km1): ONE, (one, f1): ONE}
    kmu = ((), (1, -1), ())
    assert delta(K(A2, (1, -1))).terms == {(kmu, kmu): ONE}


def test_antipode_on_generators():
    assert antipode(E(A2, 1)) == u_mul(K(A2, (-1, 0)), E(A2, 1)).scale(MINUS_ONE)
    # the Hopf-consistent F image carries K_i on the right
    assert antipode(F(A2, 1)) == u_mul(F(A2, 1), K(A2, (1, 0))).scale(MINUS_ONE)
    assert antipode(K(A2, (2, -1))) == K(A2, (-2, 1))
    lhs = antipode(u_mul(E(A2, 1), E(A2, 2)))
    rhs = u_mul(antipode(E(A2, 2)), antipode(E(A2, 1)))
    assert lhs == rhs


def test_counit():
    assert counit(E(A2, 1)).is_zero()
    assert counit(F(A2, 2)).is_zero()
    assert counit(K(A2, (3, -2))) == ONE
    x = UElement.unit(A2) + u_mul(E(A2, 1), F(A2, 1))
    assert counit(x) == ONE


def test_hopf_axiom_check():
    assert hopf_axiom_check(E(A2, 1))
    assert hopf_axiom_check(K(A2, (1, 1)))
    assert hopf_axiom_check(u_product([F(A2, 1), E(A2, 2), K(A2, (1, 0))]))


def test_plus_part_extraction():
    x = embed_plus(normal_form(FreeElement.word(A2, (1, 2))))
    assert plus_part(x) == normal_form(FreeElement.word(A2, (1, 2)))
    import pytest

    with pytest.raises(ValueError):
        plus_part(F(A2, 1))


def test_u_degree():
    key = ((1,), (0, 0), (1, 2))
    assert u_degree(A2, key) == (0, 1)


# ---------------------------------------------------------------------------
# reference routes without the coweight twist: every term carries its torus
# element through the computation, as in Lusztig 3.1.4 taken literally


def _u_mul_reference(x, y):
    """The per-term product: straighten E_e1 F_f2, move K_m1 left and K_m2
    right past its F- and E-word, and renormalize F_f1 fw and ew E_e2."""
    d = x.datum
    out = {}
    for (f1, m1, e1), c1 in x.terms.items():
        for (f2, m2, e2), c2 in y.terms.items():
            for (fw, kappa, ew), cc in _straighten_reference(d, e1, f2).terms.items():
                shift = v_pow(
                    -d.sym_form(d.weight_of_word(fw), m1)
                    - d.sym_form(d.weight_of_word(ew), m2)
                )
                mu = add_vec(add_vec(m1, kappa), m2)
                coeff = c1 * c2 * cc * shift
                ftotal = ((fw, ONE),) if not f1 else _normal_form_word(d, f1 + fw)
                etotal = ((ew, ONE),) if not e2 else _normal_form_word(d, ew + e2)
                for bf, cf in ftotal:
                    for be, ce in etotal:
                        merge(out, (bf, mu, be), coeff * cf * ce)
    return UElement(d, out)


@lru_cache(maxsize=None)
def _straighten_reference(d, ew, fw):
    """E_ew F_fw by the commutator relation, with the reference product."""
    zero = d.zero_vec()
    if not ew or not fw:
        if not ew and not fw:
            return UElement.unit(d)
        if not ew:
            return UElement(d, {(w, zero, ()): c for w, c in _normal_form_word(d, fw)})
        return UElement(d, {((), zero, w): c for w, c in _normal_form_word(d, ew)})
    a, b = ew[-1], fw[0]
    total = _u_mul_reference(
        _straighten_reference(d, ew[:-1], (b,)), _straighten_reference(d, (a,), fw[1:])
    )
    if a == b:
        # E_head (K_a - K_-a)/(v - v^-1) F_tail, multiplied out literally
        h = d.unit_vec(a)
        k = UElement.K(d, h) - UElement.K(d, neg_vec(h))
        e_head = UElement(d, {((), zero, ew[:-1]): ONE})
        f_tail = UElement(d, {(fw[1:], zero, ()): ONE})
        middle = _u_mul_reference(_u_mul_reference(e_head, k), f_tail)
        total = total + middle.scale((v_pow(1) - v_pow(-1)).inverse())
    return total


def _tensor_mul_reference(s, t):
    d = s.datum
    out = {}
    for (a1, b1), c1 in s.terms.items():
        for (a2, b2), c2 in t.terms.items():
            left = _u_mul_reference(UElement(d, {a1: ONE}), UElement(d, {a2: ONE}))
            right = _u_mul_reference(UElement(d, {b1: ONE}), UElement(d, {b2: ONE}))
            for ka, ca in left.terms.items():
                for kb, cb in right.terms.items():
                    merge(out, (ka, kb), c1 * c2 * ca * cb)
    return UTensor(d, out)


def _delta_key_reference(d, key):
    """Delta(F_fw K_mu E_ew) as the product of the generators' coproducts."""
    fw, mu, ew = key
    t = UTensor.unit(d)
    for letter in fw:
        t = _tensor_mul_reference(t, _delta_generator(d, "F", letter))
    kk = ((), mu, ())
    t = _tensor_mul_reference(t, UTensor(d, {(kk, kk): ONE}))
    for letter in ew:
        t = _tensor_mul_reference(t, _delta_generator(d, "E", letter))
    return t


def _antipode_key_reference(d, key):
    """S(F_fw K_mu E_ew) as the reversed product of the generators'
    antipodes, K_-mu included."""
    fw, mu, ew = key
    out = UElement.unit(d)
    for letter in reversed(ew):
        h = d.unit_vec(letter)
        s_e = _u_mul_reference(UElement.K(d, neg_vec(h)), UElement.E(d, letter))
        out = _u_mul_reference(out, s_e.scale(MINUS_ONE))
    out = _u_mul_reference(out, UElement.K(d, neg_vec(mu)))
    for letter in reversed(fw):
        h = d.unit_vec(letter)
        s_f = _u_mul_reference(UElement.F(d, letter), UElement.K(d, h))
        out = _u_mul_reference(out, s_f.scale(MINUS_ONE))
    return out


def _basis_words(d, height):
    out = []
    for nu in itertools.product(range(height + 1), repeat=d.rank):
        if sum(nu) <= height:
            out.extend(weight_basis(d, nu).basis_words)
    return out


def _check_twists(d, key):
    x = UElement(d, {key: ONE})
    assert delta(x) == _delta_key_reference(d, key)
    assert antipode(x) == _antipode_key_reference(d, key)


def test_twisted_coproduct_and_antipode_match_reference_a2():
    words = _basis_words(A2, 2)
    for fw in words:
        for ew in words:
            for mu in itertools.product(range(-2, 3), repeat=2):
                _check_twists(A2, (fw, mu, ew))


def test_twisted_product_matches_reference_a2():
    # every straightening pair (e1, f2) and every pair of coweights, with
    # seeded outer words and coefficients off the unit monomials
    words = _basis_words(A2, 2)
    coweights = list(itertools.product(range(-2, 3), repeat=2))
    rng = random.Random(11)
    c1, c2 = parse_scalar("v^2 + 1"), parse_scalar("1/(v - v^-1)")
    for e1 in words:
        for f2 in words:
            for m1 in coweights:
                for m2 in coweights:
                    x = UElement(A2, {(rng.choice(words), m1, e1): c1})
                    y = UElement(A2, {(f2, m2, rng.choice(words)): c2})
                    assert u_mul(x, y) == _u_mul_reference(x, y)


def test_twists_match_reference_a3_sample():
    rng = random.Random(5)
    words = _basis_words(A3, 3)

    def key():
        mu = tuple(rng.randint(-2, 2) for _ in range(3))
        return (rng.choice(words), mu, rng.choice(words))

    for _ in range(150):
        a, b = key(), key()
        _check_twists(A3, a)
        x = UElement(A3, {a: ONE}) + UElement(A3, {key(): v_pow(-1) + v_pow(3)})
        y = UElement(A3, {b: MINUS_ONE})
        assert u_mul(x, y) == _u_mul_reference(x, y)


def _delta_words_by_letters(d, fw, ew):
    """Delta(F_fw E_ew) as the product of the generators' coproducts, from
    the unit, one letter at a time."""
    t = UTensor.unit(d)
    for letter in fw:
        t = t * _delta_generator(d, "F", letter)
    for letter in ew:
        t = t * _delta_generator(d, "E", letter)
    return t


def _antipode_words_by_letters(d, fw, ew):
    """S(F_fw E_ew) as the reversed product of the generators' antipodes,
    from the unit, one letter at a time."""
    out = UElement.unit(d)
    for letter in reversed(ew):
        s_e = u_mul(K(d, neg_vec(d.unit_vec(letter))), E(d, letter))
        out = u_mul(out, s_e.scale(MINUS_ONE))
    for letter in reversed(fw):
        s_f = u_mul(F(d, letter), K(d, d.unit_vec(letter)))
        out = u_mul(out, s_f.scale(MINUS_ONE))
    return out


@pytest.mark.parametrize("spec", ["1->2,2->3", "2->1,2->3,2->4", "1->2,1->2"])
def test_prefix_built_word_tables_match_letter_products(spec, cold_memos):
    # every pair of basis words of total length at most 4
    d = load_datum(quiver_from_shorthand(spec))
    words = _basis_words(d, 4)
    for fw in words:
        for ew in words:
            if len(fw) + len(ew) > 4:
                continue
            rows = _delta_words(d, fw, ew)
            assert UTensor(d, dict(rows)) == _delta_words_by_letters(d, fw, ew)
            rows = _antipode_words(d, fw, ew)
            assert UElement(d, {key: c for key, c, _p in rows}) == (
                _antipode_words_by_letters(d, fw, ew)
            )
            pew = _word_pairing(d, ew)
            for key, _c, p in rows:
                assert p == add_vec(pew, _word_pairing(d, key[0]))


def _scaled_at_two(got, x, m):
    """got == x.scale(m), read off at v = 2 so that no product by m is
    taken: a shift the wrong way round on both sides still shows."""
    two = Fraction(2)
    return got.terms.keys() == x.terms.keys() and all(
        c.eval_at(two) == x.terms[key].eval_at(two) * m.eval_at(two)
        for key, c in got.terms.items()
    )


def test_unit_monomial_scalars_pass_through_the_twists_a2():
    # nonzero coweights give nonzero twist exponents
    words = _basis_words(A2, 2)
    coweights = [mu for mu in itertools.product(range(-2, 3), repeat=2) if any(mu)]
    rng = random.Random(19)

    def term(c):
        key = (rng.choice(words), rng.choice(coweights), rng.choice(words))
        return UElement(A2, {key: c})

    for _ in range(40):
        x, y = term(ONE), term(parse_scalar("(v^2 + 1)/(v - v^-1)"))
        xy, s = u_mul(x, y), antipode(x)
        t = {i: ti_apply(i, x) for i in A2.vertices}
        for k in (-3, -1, 2):
            for m in (v_pow(k), -v_pow(k)):
                for got in (u_mul(x.scale(m), y), u_mul(x, y.scale(m))):
                    assert got == xy.scale(m) and _scaled_at_two(got, xy, m)
                got = antipode(x.scale(m))
                assert got == s.scale(m) and _scaled_at_two(got, s, m)
                for i in A2.vertices:
                    got = ti_apply(i, x.scale(m))
                    assert got == t[i].scale(m) and _scaled_at_two(got, t[i], m)


def _u_mul_merge_reference(x, y):
    """x y from the straightened middles that u_mul reads, with K_m1 and
    K_m2 moved past each middle term by v_pow of the form, the outer words
    renormalized by falgebra.normal_form, and every product reduced and
    merged into its key one at a time."""
    d = x.datum
    out = {}
    for (f1, m1, e1), c1 in x.terms.items():
        for (f2, m2, e2), c2 in y.terms.items():
            for (fw, kappa, ew), c, _pf, _pe in _straighten(d, e1, f2):
                twist = v_pow(
                    -d.sym_form(d.weight_of_word(fw), m1)
                    - d.sym_form(d.weight_of_word(ew), m2)
                )
                mu = add_vec(add_vec(m1, kappa), m2)
                left = normal_form(FreeElement(d, {f1 + fw: ONE})).terms
                right = normal_form(FreeElement(d, {ew + e2: ONE})).terms
                for bf, cf in left.items():
                    for be, ce in right.items():
                        merge(out, (bf, mu, be), c1 * c2 * c * twist * cf * ce)
    return UElement(d, out)


KRONECKER = load_datum(quiver_from_shorthand("1->2,1->2"))
D4 = load_datum(quiver_from_shorthand("2->1,2->3,2->4"))
# 3, v + 1, v^2 - 1, v^2 + 1 and v^2 + v + 1: the third shares the
# factor v + 1 with the second, the others are coprime
DENOMINATORS = [
    IntPoly(d)
    for d in ({0: 3}, {0: 1, 1: 1}, {0: -1, 2: 1}, {0: 1, 2: 1}, {0: 1, 1: 1, 2: 1})
]


def _coefficient(rng):
    """A seeded Q(v) value over one of DENOMINATORS, never +-v^k."""
    while True:
        num = IntPoly({
            rng.randint(-2, 2): rng.choice((-3, -1, 1, 2)),
            rng.randint(-2, 2): rng.choice((-2, 1, 3)),
        })
        c = RatFunc(num, rng.choice(DENOMINATORS))
        if c and not (c.den == ONE_POLY and len(c.num.coeffs) == 1):
            return c


def _seeded_element(d, rng, words, coweights, n):
    """n terms with seeded keys and coefficients from _coefficient."""
    keys = [
        (rng.choice(words), rng.choice(coweights), rng.choice(words))
        for _ in range(n)
    ]
    return UElement(d, {key: _coefficient(rng) for key in keys})


def test_u_mul_reduces_once_per_key():
    for d in (A3, KRONECKER):
        rng = random.Random(23)
        words = _basis_words(d, 2)
        coweights = [
            mu for mu in itertools.product(range(-2, 3), repeat=d.rank) if any(mu)
        ]

        def element(n):
            return _seeded_element(d, rng, words, coweights, n)

        for _ in range(60):
            x, y = element(rng.randint(1, 3)), element(rng.randint(1, 3))
            assert u_mul(x, y) == _u_mul_merge_reference(x, y)
        # K_mu E_i . F_i K_nu and F_i K_mu . K_nu E_i meet on the key
        # (F_i, mu + nu, E_i): first with coefficients over different
        # denominators, then with coefficients chosen to cancel there
        for i in d.vertices:
            mu, nu = rng.choice(coweights), rng.choice(coweights)
            t1, s1 = ((), mu, (i,)), ((i,), nu, ())
            t2, s2 = ((i,), mu, ()), ((), nu, (i,))
            met = ((i,), add_vec(mu, nu), (i,))
            r1, r2 = (
                _u_mul_merge_reference(UElement(d, {t: ONE}), UElement(d, {s: ONE})).terms[met]
                for t, s in ((t1, s1), (t2, s2))
            )
            ct1, cs1, ct2 = _coefficient(rng), _coefficient(rng), _coefficient(rng)
            x = UElement(d, {t1: ct1, t2: ct2})
            for cs2 in (_coefficient(rng), -(ct1 * cs1 * r1) / (ct2 * r2)):
                y = UElement(d, {s1: cs1, s2: cs2})
                got = u_mul(x, y)
                assert got == _u_mul_merge_reference(x, y)
            assert met not in got.terms


def _several_term_forms(x, y) -> int:
    """How many concatenations f1 fw and ew e2 of the products of x and y
    have normal forms of several terms."""
    d = x.datum
    count = 0
    for f1, _m1, e1 in x.terms:
        for f2, _m2, e2 in y.terms:
            for (fw, _kappa, ew), *_rest in _straighten(d, e1, f2):
                for word in (f1 + fw, ew + e2):
                    count += len(normal_form(FreeElement(d, {word: ONE})).terms) > 1
    return count


@pytest.mark.parametrize(
    "d", [A2, A3, D4, KRONECKER], ids=["A2", "A3", "D4", "Kronecker"]
)
def test_u_mul_matches_merge_reference_on_several_term_normal_forms(d):
    # outer words of height 3 meet the middle words in concatenations off
    # the basis, so the normal forms of f1 fw and ew e2 have several terms
    rng = random.Random(37)
    words = _basis_words(d, 3)
    coweights = list(itertools.product(range(-1, 2), repeat=d.rank))
    several = 0
    for _ in range(25):
        x = _seeded_element(d, rng, words, coweights, rng.randint(1, 3))
        y = _seeded_element(d, rng, words, coweights, rng.randint(1, 3))
        assert u_mul(x, y) == _u_mul_merge_reference(x, y)
        several += _several_term_forms(x, y)
    assert several >= 10


UALGEBRA_MEMOS = (
    _delta_words,
    _delta_key,
    _antipode_words,
    _antipode_key,
    _straighten,
)


def test_term_memos_bounded_and_transparent(qhall_memos):
    memos = {m for name, m in qhall_memos.items() if name.startswith("ualgebra.")}
    assert memos == set(UALGEBRA_MEMOS)
    for memo in UALGEBRA_MEMOS:
        assert memo.cache_parameters()["maxsize"] is not None
        assert memo.__module__ == "qhall.ualgebra"
    src = Path(ualgebra.__file__).read_text()
    assert src.count("maxsize=None") == 0
    d = A3
    x = UElement(d, {((2, 1), (1, -1, 0), (3, 2)): ONE}) + UElement(
        d, {((1,), (0, 2, -1), (2,)): v_pow(-1) + v_pow(2)}
    )
    y = UElement(d, {((3,), (-1, 0, 2), (1, 2)): ONE})
    before = (u_mul(x, y), delta(x), antipode(x), hopf_axiom_check(x))
    for memo in UALGEBRA_MEMOS:
        memo.cache_clear()
    assert (u_mul(x, y), delta(x), antipode(x), hopf_axiom_check(x)) == before
    assert before[3]


# words in a memo argument of each annotation; the datum holds none
WORDS_IN = {"CartanDatum": 0, "Word": 1, "UKey": 2}


def test_u_mul_reads_only_middles_and_word_normal_forms(qhall_memos):
    # once _straighten holds every (E-word of x, F-word of y) pair and
    # _normal_form_word every concatenation, a product fills no memo of
    # ualgebra, and none of them is keyed by more than two words
    memos = {n: m for n, m in qhall_memos.items() if n.startswith("ualgebra.")}
    for name, memo in memos.items():
        params = inspect.signature(memo.__wrapped__).parameters.values()
        assert sum(WORDS_IN[p.annotation] for p in params) <= 2, name
    memos["falgebra._normal_form_word"] = _normal_form_word
    for d in (A3, D4, KRONECKER):
        rng = random.Random(41)
        words = _basis_words(d, 3)
        coweights = list(itertools.product(range(-1, 2), repeat=d.rank))
        for _ in range(10):
            x = _seeded_element(d, rng, words, coweights, rng.randint(1, 3))
            y = _seeded_element(d, rng, words, coweights, rng.randint(1, 3))
            # reads _straighten at every (e1, f2) and _normal_form_word at
            # every concatenation
            _several_term_forms(x, y)
            before = {name: m.cache_info() for name, m in memos.items()}
            u_mul(x, y)
            after = {name: m.cache_info() for name, m in memos.items()}
            for name in memos:
                assert after[name].misses == before[name].misses, name
                assert after[name].currsize == before[name].currsize, name


@pytest.mark.parametrize("spec", ["1->2,2->3", "2->1,2->3,2->4", "1->2,1->2"])
def test_word_pairing_is_the_form_against_every_coweight(spec):
    # every word up to height 4, against every coweight with entries -1..1
    d = load_datum(quiver_from_shorthand(spec))
    coweights = list(itertools.product((-1, 0, 1), repeat=d.rank))
    for n in range(5):
        for word in itertools.product(d.vertices, repeat=n):
            p = _word_pairing(d, word)
            nu = d.weight_of_word(word)
            for mu in coweights:
                assert sum(a * b for a, b in zip(p, mu)) == d.sym_form(nu, mu)


def _seeded_tensor(d, rng, n):
    """n terms with seeded keys and Q(v) coefficients off the unit
    monomials; the keys repeat words, so products meet on output keys."""
    words = _basis_words(d, 2)
    coweights = list(itertools.product(range(-1, 2), repeat=d.rank))

    def key():
        return (rng.choice(words), rng.choice(coweights), rng.choice(words))

    return UTensor(d, {(key(), key()): _coefficient(rng) for _ in range(n)})


def test_tensor_mul_matches_term_by_term_reference():
    for d in (A2, A3, KRONECKER):
        rng = random.Random(29)
        for _ in range(8):
            s = _seeded_tensor(d, rng, rng.randint(1, 3))
            t = _seeded_tensor(d, rng, rng.randint(1, 3))
            assert s * t == _tensor_mul_reference(s, t)
        assert delta(E(d, 1)) * delta(F(d, 1)) == delta(u_mul(E(d, 1), F(d, 1)))


def test_tensor_mul_rejects_mixed_data():
    with pytest.raises(ValueError, match="operands live over different data"):
        delta(E(A2, 1)) * delta(E(KRONECKER, 1))


def test_hopf_axiom_check_reduces_once_per_antipode_side(monkeypatch):
    x = UElement(A3, {((2, 1), (1, -1, 0), (3, 2)): ONE}) + UElement(
        A3, {((1,), (0, 2, -1), (2,)): v_pow(-1) + v_pow(2)}
    )
    # the first call fills the memos, which call u_mul themselves
    assert hopf_axiom_check(x)
    calls = {"sum_products": 0, "u_mul": 0}

    def counted(name):
        real = getattr(ualgebra, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ualgebra, name, counted(name))
    assert hopf_axiom_check(x)
    assert calls == {"sum_products": 2, "u_mul": 0}


def _at_words(real, words, change):
    """real(datum, fw, ew) with change applied to the rows of one word
    pair."""

    def planted(datum, fw, ew):
        rows = real(datum, fw, ew)
        return change(rows) if (fw, ew) == words else rows

    return planted


def _antipode_key_shifted_up(datum, key):
    """S of one term with its coweight moved by +mu instead of -mu."""
    fw, mu, ew = key
    rows = _twisted(_antipode_words(datum, fw, ew), mu, mu)
    return [(term, c.shift(k)) for term, c, k in rows]


def _flip_first(rows):
    (key, c, p), *rest = rows
    return ((key, -c, p), *rest)


def _torus_left_dropped(rows):
    """The rows whose left factor is not a torus element: Delta(E_i) loses
    K_i x E_i and is left as E_i x 1, which is still coassociative."""
    return tuple(((a, b), c) for (a, b), c in rows if a[0] or a[2])


# fault -> (ualgebra name, planted replacement of it, a term it breaks,
# the first identity that fails there)
PLANTED = {
    "antipode-row-sign": (
        "_antipode_words",
        lambda real: _at_words(real, ((), (1,)), _flip_first),
        ((), (0, 0), (1,)),
        "m(S x 1)Delta = eps",
    ),
    "delta-row-dropped": (
        "_delta_words",
        lambda real: _at_words(real, ((2,), (1,)), lambda rows: rows[1:]),
        ((2,), (1, 0), (1,)),
        "coassociativity",
    ),
    "delta-torus-row-dropped": (
        "_delta_words",
        lambda real: _at_words(real, ((), (1,)), _torus_left_dropped),
        ((), (0, 0), (1,)),
        "(eps x 1)Delta = id",
    ),
    "antipode-shift-plus-mu": (
        "_antipode_key",
        lambda real: _antipode_key_shifted_up,
        ((), (1, 0), ()),
        "m(S x 1)Delta = eps",
    ),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_hopf_fault_is_caught_and_named(fault, monkeypatch, cold_memos):
    name, plant, key, identity = PLANTED[fault]
    monkeypatch.setattr(ualgebra, name, plant(getattr(ualgebra, name)))
    x = UElement(A2, {key: ONE})
    assert not hopf_axiom_check(x)
    failed = [n for n, got, want in hopf_sides(x) if got != want]
    assert failed[0] == identity
    r = verify._run("u-hopf-axioms", verify._check_u_hopf, verify.Session(A2))
    assert r.status == "fail"
    assert r.detail.startswith(f"Hopf axiom {identity} on ")
    assert ": got " in r.detail and ", want " in r.detail

import itertools
import random
from pathlib import Path

import pytest

from qhall import symmetries
from qhall.cartan import A2, A3, add_vec, load_datum, quiver_from_shorthand
from qhall.exprs import parse_scalar
from qhall.falgebra import (
    FElement,
    i_r_component,
    normal_form,
    theta_divided,
    weight_basis,
)
from qhall.freealg import FreeElement
from qhall.lincomb import _shared, merge
from qhall.ratfunc import MINUS_ONE, ONE, v_pow
from qhall.symmetries import (
    _pair_image,
    _t_tilde_word,
    _word_image,
    braid_sides,
    minus_transport,
    subalgebra_sides,
    t_tilde_apply,
    ti_apply,
    ti_inverse_apply,
    ti_restricted,
)
from qhall.ualgebra import (
    UElement,
    _straighten,
    embed_minus,
    embed_plus,
    plus_part,
    u_mul,
    u_product,
)


def felt(d, *letters):
    return normal_form(FreeElement.word(d, tuple(letters)))


def test_generator_images():
    got = ti_apply(1, UElement.E(A2, 1))
    want = u_mul(UElement.F(A2, 1), UElement.K(A2, (1, 0))).scale(MINUS_ONE)
    assert got == want
    got = ti_apply(1, UElement.F(A2, 1))
    want = u_mul(UElement.K(A2, (-1, 0)), UElement.E(A2, 1)).scale(MINUS_ONE)
    assert got == want
    # rank-two image: E2 -> E1 E2 - v^-1 E2 E1
    got = ti_apply(1, UElement.E(A2, 2))
    want = u_mul(UElement.E(A2, 1), UElement.E(A2, 2)) - u_mul(
        UElement.E(A2, 2), UElement.E(A2, 1)
    ).scale(v_pow(-1))
    assert got == want
    got = ti_apply(1, UElement.F(A2, 2))
    want = u_mul(UElement.F(A2, 2), UElement.F(A2, 1)) - u_mul(
        UElement.F(A2, 1), UElement.F(A2, 2)
    ).scale(v_pow(1))
    assert got == want
    assert ti_apply(1, UElement.K(A2, (1, 0))) == UElement.K(A2, (-1, 0))
    assert ti_apply(1, UElement.K(A2, (0, 1))) == UElement.K(A2, (1, 1))


def test_inverse_certified_round_trip():
    for d in (A2, A3):
        for i in d.vertices:
            for j in d.vertices:
                for g in (UElement.E(d, j), UElement.F(d, j), UElement.K(d, d.unit_vec(j))):
                    assert ti_apply(i, ti_inverse_apply(i, g)) == g
                    assert ti_inverse_apply(i, ti_apply(i, g)) == g
    x = u_mul(UElement.F(A2, 1), UElement.K(A2, (0, 1)))
    assert ti_inverse_apply(1, ti_apply(1, x)) == x


def test_inverse_certification_rejects_a_corrupt_table(monkeypatch):
    caches = (symmetries._certified, _word_image, _pair_image)

    def clear():
        for cache in caches:
            cache.cache_clear()

    # T_1^-1(E2) replaced by E2 itself: T_1 T_1^-1 E2 is then no longer E2
    table = symmetries._table(A2, 1, True)
    monkeypatch.setitem(table, ("E", 2), UElement.E(A2, 2))
    clear()
    try:
        with pytest.raises(RuntimeError, match="failed certification"):
            ti_inverse_apply(1, UElement.F(A2, 1))
    finally:
        monkeypatch.undo()
        clear()
    x = UElement.E(A2, 2)
    assert ti_inverse_apply(1, ti_apply(1, x)) == x


def test_homomorphism_on_generator_pairs():
    gens = [
        UElement.E(A2, 1),
        UElement.E(A2, 2),
        UElement.F(A2, 1),
        UElement.F(A2, 2),
        UElement.K(A2, (1, 0)),
    ]
    for i in (1, 2):
        for a in gens:
            for b in gens:
                assert ti_apply(i, u_mul(a, b)) == u_mul(
                    ti_apply(i, a), ti_apply(i, b)
                )


def test_restricted_symmetry():
    got = ti_restricted(1, felt(A2, 2))
    want = felt(A2, 1, 2) - felt(A2, 2, 1).scale(v_pow(-1))
    assert got == want
    assert ti_restricted(1, FElement.unit(A2)) == FElement.unit(A2)
    x = felt(A2, 1, 2) - felt(A2, 2, 1).scale(v_pow(1))
    y = ti_restricted(1, x)
    # computed image: -v th2, of weight (0,1), in the right-kernel side
    assert y == felt(A2, 2).scale(-v_pow(1))
    assert i_r_component(1, "right", y).is_zero()


def test_restricted_rejects_outsiders():
    with pytest.raises(ValueError):
        ti_restricted(1, felt(A2, 1))


def test_membership_crosscheck():
    for d, i, nu in ((A2, 1, (1, 1)), (A2, 1, (0, 0)), (A3, 2, (1, 1, 1))):
        sides = list(subalgebra_sides(d, i, nu))
        assert [side for side, _t, _k in sides] == ["left", "right"]
        assert all(t_side == kernel for _side, t_side, kernel in sides)


def test_minus_transport_factor():
    # T(x^-) = (-v)^-(nu,i) (T x)^- certified on a worked example
    x = felt(A2, 2)
    lhs = ti_apply(1, embed_minus(x))
    rhs = embed_minus(ti_restricted(1, x)).scale(minus_transport(A2, 1, (0, 1)))
    assert lhs == rhs
    assert minus_transport(A2, 1, (0, 1)) == -v_pow(1)
    assert minus_transport(A2, 1, (1, 1)) == -v_pow(-1)
    assert minus_transport(A2, 1, (0, 0)) == ONE


def test_t_tilde_equals_ti():
    for i in (1, 2):
        for key in [
            ((2,), (0, 0), ()),
            ((2, 1), (0, 0), ()),
            ((), (1, -1), (1, 2)),
            ((1, 2), (1, 0), (2, 1)),
            ((1, 1, 2), (0, 1), (2,)),
        ]:
            x = UElement(A2, {key: ONE})
            assert t_tilde_apply(i, x) == ti_apply(i, x)
    assert t_tilde_apply(1, UElement.K(A2, (1, 0))) == UElement.K(A2, (-1, 0))


def _t_tilde_reference(i, x):
    """T~(F_a) K_(s_i mu) T~(E_b) by two plain products per term."""
    d = x.datum
    out = {}
    for (fw, mu, ew), c in x.terms.items():
        img = _t_tilde_word(d, i, "minus", fw)
        img = u_mul(img, UElement.K(d, d.reflect_coweight(i, mu)))
        img = u_mul(img, _t_tilde_word(d, i, "plus", ew))
        for key, ic in img.terms.items():
            merge(out, key, c * ic)
    return UElement(d, out)


@pytest.mark.parametrize("spec", ["1->2", "1->2,1->2"])
def test_t_tilde_matches_two_plain_products(spec):
    # every key of basis words up to height 2 at coweights in {-2..2}^2, on
    # A2 and on the Kronecker quiver (a_12 = -2)
    d = load_datum(quiver_from_shorthand(spec))
    words = _basis_words(d, 2)
    for i in d.vertices:
        for fw, ew in itertools.product(words, repeat=2):
            for mu in itertools.product(range(-2, 3), repeat=2):
                x = UElement(d, {(fw, mu, ew): ONE})
                assert t_tilde_apply(i, x) == _t_tilde_reference(i, x), (i, fw, mu, ew)


def test_braid_relations():
    for d, i, j in ((A2, 1, 2), (A3, 1, 3)):
        assert all(lhs == rhs for _g, lhs, rhs in braid_sides(d, i, j))
    with pytest.raises(ValueError):
        next(braid_sides(A2, 1, 1))
    kron = load_datum(quiver_from_shorthand("1->2,1->2"))
    with pytest.raises(ValueError):
        next(braid_sides(kron, 1, 2))


def ti_restricted_inverse(vertex, x):
    """The inverse symmetry restricted to the right kernel subalgebra:
    plus_part raises when the image leaves the positive part."""
    return plus_part(ti_inverse_apply(vertex, embed_plus(x)))


def test_inverse_restricted_lands_in_plus():
    x = felt(A2, 1, 2) - felt(A2, 2, 1).scale(v_pow(-1))
    y = ti_restricted_inverse(1, x)
    assert i_r_component(1, "left", y).is_zero()


def _basis_words(d, height):
    out = []
    for nu in itertools.product(range(height + 1), repeat=d.rank):
        if sum(nu) <= height:
            out.extend(weight_basis(d, nu).basis_words)
    return out


def _untwisted_reference(d, i, x, inverse):
    """The sum over the terms c F_a K_mu E_b of x of
    c T(F_a) K_(s_i mu) T(E_b), by two plain products per term, without
    the twist."""
    out = {}
    for (fw, mu, ew), c in x.terms.items():
        k = UElement.K(d, d.reflect_coweight(i, mu))
        left = u_mul(_word_image(d, i, "F", fw, inverse), k)
        image = u_mul(left, _word_image(d, i, "E", ew, inverse))
        for key, ic in image.terms.items():
            merge(out, key, c * ic)
    return UElement(d, out)


def _check_twisted_route(d, i, key):
    x = UElement(d, {key: ONE})
    assert ti_apply(i, x) == _untwisted_reference(d, i, x, False), key
    assert ti_inverse_apply(i, x) == _untwisted_reference(d, i, x, True), key


def test_twisted_route_a2_exhaustive():
    words = _basis_words(A2, 2)
    coweights = list(itertools.product(range(-2, 3), repeat=2))
    for i in A2.vertices:
        for fw in words:
            for ew in words:
                for mu in coweights:
                    _check_twisted_route(A2, i, (fw, mu, ew))


def test_twisted_route_a3_sample():
    rng = random.Random(7)
    words = _basis_words(A3, 3)
    for _ in range(120):
        mu = tuple(rng.randint(-2, 2) for _ in range(3))
        key = (rng.choice(words), mu, rng.choice(words))
        _check_twisted_route(A3, rng.choice(A3.vertices), key)


def test_pair_cache_bounded_and_transparent():
    assert _pair_image.cache_parameters()["maxsize"] is not None
    src = Path(symmetries.__file__).read_text()
    assert src.count("maxsize=None") == 0
    x = UElement(A3, {((2, 1), (1, -1, 0), (3, 2)): ONE}) + UElement(
        A3, {((1,), (0, 2, -1), (2,)): v_pow(-1) + v_pow(2)}
    )
    apply = (ti_apply, ti_inverse_apply, t_tilde_apply)
    before = [(i, [f(i, x) for f in apply]) for i in A3.vertices]
    _pair_image.cache_clear()
    for i, images in before:
        assert [f(i, x) for f in apply] == images
        assert images[2] == images[0]


def test_t_tilde_pair_cache_bounded_and_transparent():
    # T~_i keeps its rows in the shared, bounded _pair_image memo under
    # its own route; clearing that memo and _t_tilde_word changes no image
    assert _pair_image.cache_parameters()["maxsize"] is not None
    assert _t_tilde_word.cache_parameters()["maxsize"] is not None
    x = UElement(A3, {((2, 1), (1, -1, 0), (3, 2)): ONE}) + UElement(
        A3, {((1,), (0, 2, -1), (2,)): v_pow(-1) + v_pow(2)}
    )
    _pair_image.cache_clear()
    before = [(i, t_tilde_apply(i, x)) for i in A3.vertices]
    assert _pair_image.cache_info().currsize > 0
    for memo in (_pair_image, _t_tilde_word):
        memo.cache_clear()
    for i, tt in before:
        assert t_tilde_apply(i, x) == tt == ti_apply(i, x)


def test_route_is_part_of_the_pair_memo_key():
    # T~_i = T_i, so no image shows a memo that hands one route the rows
    # of the other; a cold _t_tilde_word call after T_i has filled the
    # pair does
    x = UElement(A2, {((2, 1), (0, 1), (1, 2)): ONE})
    for memo in (_pair_image, _t_tilde_word):
        memo.cache_clear()
    ti_apply(1, x)
    assert _t_tilde_word.cache_info().misses == 0
    assert t_tilde_apply(1, x) == ti_apply(1, x)
    assert _t_tilde_word.cache_info().misses > 0


def test_memo_rows_share_equal_values(cold_a3_verify, one_object_per_coefficient):
    # after a cold A3 verify of f, u and ti, the middles, pair rows, word
    # images and T~ word images hold each coefficient value as one object
    d = cold_a3_verify
    words = _basis_words(d, 2)
    one_object_per_coefficient(
        [
            [_straighten(d, ew, fw) for ew in words for fw in words],
            [
                _pair_image(d, i, route, fw, ew)
                for i in d.vertices
                for route in ("T", "T~")
                for fw in words[:4]
                for ew in words[:4]
            ],
            [
                _word_image(d, i, kind, w, inverse)
                for i in d.vertices
                for kind in ("E", "F")
                for w in words
                for inverse in (False, True)
            ],
            [
                _t_tilde_word(d, i, sign, w)
                for i in d.vertices
                for sign in ("minus", "plus")
                for w in words
            ],
        ]
    )
    # equal keys, coefficients and pairing vectors stored by different
    # entries of the straightening memo and the pair memo are one object,
    # and the rows equal those rebuilt once the intern memo is cleared
    for d in (A2, A3):
        words, letters = _basis_words(d, 2), _basis_words(d, 1)

        def tables():
            middles = [_straighten(d, ew, fw) for ew in words for fw in words]
            pairs = [
                _pair_image(d, i, route, fw, ew)
                for i in d.vertices
                for route in ("T", "T~")
                for fw in letters
                for ew in letters
            ]
            return middles + pairs

        for memo in (_straighten, _pair_image, _shared):
            memo.cache_clear()
        before = tables()
        parts = [part for rows in before for row in rows for part in row]
        first: dict = {}
        for part in parts:
            assert first.setdefault((type(part), part), part) is part
        assert len(first) < len(parts)
        assert _shared.cache_info().hits > 0
        for memo in (_straighten, _pair_image, _shared):
            memo.cache_clear()
        assert tables() == before


def test_word_memos_bounded_and_transparent():
    names = (
        "_table",
        "_certified",
        "_word_image",
        "_pair_image",
        "_divided_image",
        "_t_tilde_word",
        "_reflected",
    )
    memos = [getattr(symmetries, name) for name in names]
    for memo in memos:
        assert memo.cache_parameters()["maxsize"] is not None
        assert memo.__module__ == "qhall.symmetries"
    x = UElement(A3, {((2, 1), (1, -1, 0), (3, 2)): ONE}) + UElement(
        A3, {((1,), (0, 2, -1), (2,)): v_pow(-1) + v_pow(2)}
    )
    apply = (ti_apply, ti_inverse_apply, t_tilde_apply)
    before = [f(i, x) for i in A3.vertices for f in apply]
    for memo in memos:
        memo.cache_clear()
        assert memo.cache_info().currsize == 0
    assert [f(i, x) for i in A3.vertices for f in apply] == before


def test_pair_memo_serves_the_forward_routes_only():
    # T_i^-1 reads word images grouped by F-word, never a pair entry
    with pytest.raises(ValueError, match="no pair rows"):
        _pair_image(A2, 1, "T-1", (2,), (1,))
    x = UElement(A3, {((2, 1), (1, -1, 0), (3, 2)): ONE})
    images = [(i, ti_apply(i, x)) for i in A3.vertices]
    for i, y in images:
        ti_inverse_apply(i, y)  # certifies the table on first use
    _pair_image.cache_clear()
    for i, y in images:
        assert ti_inverse_apply(i, y) == x
    assert _pair_image.cache_info().currsize == 0


def _per_product_reference(i, x, route):
    """The pair-image route with every product c * pc * v^(pairing . lam)
    reduced and merged into its key one at a time."""
    d = x.datum
    out = {}
    for (fw, mu, ew), c in x.terms.items():
        lam = d.reflect_coweight(i, mu)
        for (f, kappa, e), pc, pairing in _pair_image(d, i, route, fw, ew):
            coeff = c * pc * v_pow(sum(p * k for p, k in zip(pairing, lam)))
            merge(out, (f, add_vec(kappa, lam), e), coeff)
    return UElement(d, out)


# non-unit coefficients over several denominators, so that the terms
# landing on one key need a common denominator and often cancel
_COEFFS = tuple(
    parse_scalar(text)
    for text in (
        "3v^2 - v^-1",
        "(v + 2)/(v^2 + 1)",
        "(2v^-1 - 1)/(v^2 + v + 1)",
        "(v^2 + 3)/(v^2 - 1)",
        "(v - 2)/(v^4 - 1)",
        "5/2",
    )
)


def test_reduce_once_matches_per_product_sums():
    rng = random.Random(11)
    words = _basis_words(A3, 2)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mu = tuple(rng.randint(-1, 1) for _ in range(3))
            terms[(rng.choice(words), mu, rng.choice(words))] = rng.choice(_COEFFS)
        x = UElement(A3, terms)
        i = rng.choice(A3.vertices)
        y = ti_apply(i, x)
        assert y == _per_product_reference(i, x, "T")
        assert ti_inverse_apply(i, x) == _untwisted_reference(A3, i, x, True)
        assert ti_inverse_apply(i, y) == _untwisted_reference(A3, i, y, True)
        assert ti_inverse_apply(i, y) == x
        assert ti_apply(i, ti_inverse_apply(i, x)) == x


def _shared_left_terms(d, i, x) -> int:
    """The number of terms of T_i^-1(F_a) that two or more F-word groups
    a of x share."""
    seen: dict = {}
    for fw in {fw for fw, _mu, _ew in x.terms}:
        for t in _word_image(d, i, "F", fw, True).terms:
            seen[t] = seen.get(t, 0) + 1
    return sum(n > 1 for n in seen.values())


def test_grouped_inverse_matches_two_plain_products():
    # the inputs are seeded 1-3-term A3 elements and their T_i-images, the
    # inverse's traffic.  The images' terms share F-words, so T_i^-1 sums
    # several terms into one F-word group before it multiplies by
    # T_i^-1(F_a).  Many images' groups also share terms of T_i^-1(F_a),
    # which T_i^-1 multiplies once by the sum of the groups' right
    # factors; most seeded elements' groups share none.
    rng = random.Random(5)
    words = _basis_words(A3, 2)
    sizes = set()
    shared = []
    for _ in range(45):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mu = tuple(rng.randint(-1, 1) for _ in range(3))
            terms[(rng.choice(words), mu, rng.choice(words))] = rng.choice(_COEFFS)
        x = UElement(A3, terms)
        i = rng.choice(A3.vertices)
        y = ti_apply(i, x)
        fwords = [fw for fw, _mu, _ew in y.terms]
        sizes.update(fwords.count(fw) for fw in fwords)
        for z in (y, x):
            shared.append(_shared_left_terms(A3, i, z))
            assert ti_inverse_apply(i, z) == _untwisted_reference(A3, i, z, True), z
        assert ti_inverse_apply(i, y) == x
        assert ti_apply(i, ti_inverse_apply(i, x)) == x
    # groups of one term and of several both occur
    assert 1 in sizes and max(sizes) >= 3
    # inputs with shared left terms, up to several in one input, and
    # inputs without any both occur
    assert sum(n > 0 for n in shared) >= 10 and max(shared) >= 4
    assert shared.count(0) >= 10


def _expected_inverse_table(d, i):
    """T_i^-1 on E_j and F_j written out directly from the formulas."""
    h = d.unit_vec(i)
    out = {
        ("E", i): u_mul(UElement.K(d, tuple(-x for x in h)), UElement.F(d, i)).scale(
            MINUS_ONE
        ),
        ("F", i): u_mul(UElement.E(d, i), UElement.K(d, h)).scale(MINUS_ONE),
    }
    for j in d.vertices:
        if j == i:
            continue
        n = -d.a(i, j)
        esum = UElement(d)
        fsum = UElement(d)
        for r in range(n + 1):
            sign = MINUS_ONE if r % 2 else ONE
            e_r, e_s = (embed_plus(theta_divided(d, i, k)) for k in (r, n - r))
            f_r, f_s = (embed_minus(theta_divided(d, i, k)) for k in (r, n - r))
            esum = esum + u_product([e_r, UElement.E(d, j), e_s]).scale(
                sign * v_pow(-r)
            )
            fsum = fsum + u_product([f_s, UElement.F(d, j), f_r]).scale(
                sign * v_pow(r)
            )
        out[("E", j)] = esum
        out[("F", j)] = fsum
    return out


@pytest.mark.parametrize("spec", ["1->2", "1->2,2->3", "1->2,1->2"])
def test_inverse_generator_images_match_the_formulas(spec):
    # the Kronecker quiver has a_12 = -2, so divided powers up to 2 appear
    d = load_datum(quiver_from_shorthand(spec))
    for i in d.vertices:
        want = _expected_inverse_table(d, i)
        for j in d.vertices:
            assert ti_inverse_apply(i, UElement.E(d, j)) == want[("E", j)], (i, j)
            assert ti_inverse_apply(i, UElement.F(d, j)) == want[("F", j)], (i, j)
            mu = d.unit_vec(j)
            k_image = UElement.K(d, d.reflect_coweight(i, mu))
            assert ti_inverse_apply(i, UElement.K(d, mu)) == k_image, (i, j)

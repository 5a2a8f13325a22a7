from pathlib import Path

import pytest

from qhall import double
from qhall.cartan import A2, A3, load_datum, quiver_from_shorthand
from qhall.double import (
    DoubleElement,
    HalfElement,
    PAIRING_CONSTANT,
    _antipode_word,
    _cross,
    double_mul,
    half_antipode,
    half_delta,
    half_mul,
    iso_lambda,
    pairing_phi,
)
from qhall.falgebra import FElement, normal_form
from qhall.freealg import FreeElement
from qhall.ratfunc import MINUS_ONE, ONE, ZERO, v_pow
from qhall.ualgebra import UElement, antipode, embed_minus, embed_plus, u_mul


def half_counit(a):
    """The counit of a half: the sum of the coefficients of the pure torus
    terms."""
    return sum((c for (_mu, word), c in a.terms.items() if not word), ZERO)


def felt(d, *letters):
    return normal_form(FreeElement.word(d, tuple(letters)))


def hplus(x):
    return HalfElement.of_f(A2, "plus", x)


def hminus(x):
    return HalfElement.of_f(A2, "minus", x)


def test_half_mul_torus_rules():
    k = HalfElement.torus(A2, "plus", (1, 0))
    kneg = HalfElement.torus(A2, "plus", (-1, 0))
    t1 = HalfElement.generator(A2, "plus", 1)
    lhs = half_mul("plus", half_mul("plus", k, t1), kneg)
    assert lhs == t1.scale(v_pow(2))
    k2 = HalfElement.torus(A2, "plus", (0, 1))
    assert half_mul("plus", k, k2) == HalfElement.torus(A2, "plus", (1, 1))
    m1 = HalfElement.generator(A2, "minus", 1)
    km = HalfElement.torus(A2, "minus", (1, 0))
    kmneg = HalfElement.torus(A2, "minus", (-1, 0))
    assert half_mul("minus", half_mul("minus", km, m1), kmneg) == m1.scale(v_pow(-2))
    # word classes compose through the quotient product
    prod = half_mul("minus", m1, HalfElement.generator(A2, "minus", 2))
    assert prod == hminus(felt(A2, 1, 2))


def test_half_mul_sign_mismatch():
    with pytest.raises(ValueError):
        half_mul(
            "plus",
            HalfElement.generator(A2, "plus", 1),
            HalfElement.generator(A2, "minus", 1),
        )


def test_half_delta_generators():
    td = half_delta("plus", HalfElement.generator(A2, "plus", 1))
    assert td.terms == {
        (((0, 0), (1,)), ((0, 0), ())): ONE,
        (((1, 0), ()), ((0, 0), (1,))): ONE,
    }
    td = half_delta("minus", HalfElement.generator(A2, "minus", 1))
    assert td.terms == {
        (((0, 0), (1,)), ((-1, 0), ())): ONE,
        (((0, 0), ()), ((0, 0), (1,))): ONE,
    }
    k = HalfElement.torus(A2, "plus", (1, -1))
    td = half_delta("plus", k)
    assert td.terms == {(((1, -1), ()), ((1, -1), ())): ONE}


def test_half_antipode_examples():
    got = half_antipode("plus", HalfElement.generator(A2, "plus", 1))
    want = half_mul(
        "plus",
        HalfElement.torus(A2, "plus", (-1, 0)),
        HalfElement.generator(A2, "plus", 1),
    ).scale(MINUS_ONE)
    assert got == want
    assert half_antipode("plus", HalfElement.torus(A2, "plus", (2, 1))) == (
        HalfElement.torus(A2, "plus", (-2, -1))
    )
    # alternating sum over the compositions of (1,1)
    got = half_antipode("plus", hplus(felt(A2, 1, 2)))
    want = half_mul(
        "plus",
        HalfElement.torus(A2, "plus", (-1, -1)),
        hplus(felt(A2, 2, 1)),
    ).scale(v_pow(-1))
    assert got == want


def test_half_counit():
    assert half_counit(HalfElement.torus(A2, "plus", (1, 0))) == ONE
    assert half_counit(HalfElement.generator(A2, "plus", 1)).is_zero()


def test_half_hopf_axioms():
    for sign in ("plus", "minus"):
        samples = [
            HalfElement.generator(A2, sign, 1),
            HalfElement.generator(A2, sign, 2),
            HalfElement.of_f(A2, sign, felt(A2, 1, 2)),
            HalfElement.of_f(A2, sign, felt(A2, 2, 1)),
        ]
        for x in samples:
            lhs = HalfElement(A2, sign)
            rhs = HalfElement(A2, sign)
            for (k1, k2), c in half_delta(sign, x).terms.items():
                lhs = lhs + half_mul(
                    sign,
                    half_antipode(sign, HalfElement(A2, sign, {k1: ONE})),
                    HalfElement(A2, sign, {k2: ONE}),
                ).scale(c)
                rhs = rhs + half_mul(
                    sign,
                    HalfElement(A2, sign, {k1: ONE}),
                    half_antipode(sign, HalfElement(A2, sign, {k2: ONE})),
                ).scale(c)
            target = HalfElement.unit(A2, sign).scale(half_counit(x))
            assert lhs == target and rhs == target


def test_pairing_basics():
    t1p = HalfElement.generator(A2, "plus", 1)
    t1m = HalfElement.generator(A2, "minus", 1)
    t2m = HalfElement.generator(A2, "minus", 2)
    assert pairing_phi(t1p, t2m).is_zero()
    assert pairing_phi(t1p, t1m) == PAIRING_CONSTANT
    assert PAIRING_CONSTANT == -(v_pow(1) - v_pow(-1)).inverse()
    ka = HalfElement.torus(A2, "plus", (1, 0))
    kb = HalfElement.torus(A2, "minus", (0, 1))
    assert pairing_phi(ka, kb) == v_pow(1)
    with pytest.raises(ValueError):
        pairing_phi(t1m, t1p)


def test_pairing_rejects_mixed_data():
    kronecker = load_datum(quiver_from_shorthand("1->2,1->2"))
    plus = HalfElement.generator(A2, "plus", 1)
    minus = HalfElement.generator(kronecker, "minus", 1)
    with pytest.raises(ValueError, match="operands live over different data"):
        pairing_phi(plus, minus)


def test_cross_relation_is_commutator():
    dd = (v_pow(1) - v_pow(-1)).inverse()
    for i in (1, 2):
        for j in (1, 2):
            plus = DoubleElement.plus_of(A2, FElement.generator(A2, i))
            minus = DoubleElement.minus_of(A2, FElement.generator(A2, j))
            got = double_mul(plus, minus) - double_mul(minus, plus)
            if i == j:
                want = (
                    DoubleElement.torus(A2, A2.unit_vec(i))
                    - DoubleElement.torus(A2, tuple(-x for x in A2.unit_vec(i)))
                ).scale(dd)
                assert got == want
            else:
                assert got.is_zero()


def test_torus_transport():
    x = DoubleElement.plus_of(A2, FElement.generator(A2, 1))
    k = DoubleElement.torus(A2, (1, 0))
    assert double_mul(k, x) == double_mul(x, k).scale(v_pow(2))
    assert double_mul(DoubleElement.unit(A2), x) == x


def test_iso_lambda_generators():
    assert iso_lambda(
        DoubleElement.plus_of(A2, FElement.generator(A2, 1))
    ) == UElement.E(A2, 1)
    assert iso_lambda(DoubleElement.torus(A2, (1, -1))) == UElement.K(A2, (1, -1))
    x = DoubleElement(A2, {((1,), (0, 1), (2,)): ONE})
    want = u_mul(
        u_mul(UElement.F(A2, 1), UElement.K(A2, (0, 1))), UElement.E(A2, 2)
    )
    assert iso_lambda(x) == want


def test_iso_lambda_homomorphism_on_samples():
    gens = [
        DoubleElement.plus_of(A2, FElement.generator(A2, 1)),
        DoubleElement.plus_of(A2, FElement.generator(A2, 2)),
        DoubleElement.minus_of(A2, FElement.generator(A2, 1)),
        DoubleElement.minus_of(A2, FElement.generator(A2, 2)),
        DoubleElement.torus(A2, (1, 0)),
        DoubleElement.plus_of(A2, felt(A2, 1, 2)),
        DoubleElement.minus_of(A2, felt(A2, 2, 1)),
        DoubleElement(A2, {((1,), (0, 1), (2,)): ONE}),
    ]
    for a in gens:
        for b in gens:
            assert iso_lambda(double_mul(a, b)) == u_mul(iso_lambda(a), iso_lambda(b))


def test_half_structures_match_u_through_iso():
    for sign, emb in (("plus", embed_plus), ("minus", embed_minus)):
        for x in (felt(A2, 1), felt(A2, 1, 2), felt(A2, 2, 1)):
            hx = HalfElement.of_f(A2, sign, x)
            got = HalfElement(A2, sign)
            assert half_antipode(sign, hx) is not None
            u_img = UElement(A2)
            for (mu, word), c in half_antipode(sign, hx).terms.items():
                u_img = u_img + u_mul(
                    UElement.K(A2, mu),
                    emb(FElement(A2, {word: ONE})),
                ).scale(c)
            assert u_img == antipode(emb(x))


def test_memos_bounded_and_transparent():
    memos = (double.reduced_splits, _antipode_word, _cross)
    for memo in memos:
        assert memo.cache_parameters()["maxsize"] is not None
    assert Path(double.__file__).read_text().count("maxsize=None") == 0
    x = DoubleElement.plus_of(A3, felt(A3, 1, 2)) + DoubleElement.torus(A3, (1, 0, -1))
    y = DoubleElement.minus_of(A3, felt(A3, 2, 1))
    h = hplus(felt(A2, 1, 2))
    before = (double_mul(x, y), half_antipode("plus", h), half_delta("plus", h))
    for memo in memos:
        memo.cache_clear()
    assert (double_mul(x, y), half_antipode("plus", h), half_delta("plus", h)) == before

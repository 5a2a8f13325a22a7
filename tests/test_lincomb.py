from fractions import Fraction

import pytest

from qhall.cartan import A2, A3
from qhall.double import DoubleElement, HalfElement
from qhall.falgebra import FElement
from qhall.freealg import FreeElement
from qhall.hall import HallElement
from qhall.freealg import coproduct_word
from qhall.lincomb import _shared, bilinear, linear, merge
from qhall.ratfunc import MINUS_ONE, ONE, ZERO, v_pow
from qhall.ualgebra import UElement


def test_merge_keeps_dict_zero_free():
    d = {}
    merge(d, "a", ONE)
    merge(d, "a", v_pow(1))
    assert d == {"a": ONE + v_pow(1)}
    merge(d, "b", ZERO)
    assert "b" not in d
    merge(d, "a", -(ONE + v_pow(1)))
    assert d == {}


def test_linear_drops_images_that_cancel():
    # x - v^2 y with x |-> {a: v^2}, y |-> {a: 1, b: 1}: a cancels
    images = {"x": {"a": v_pow(2)}, "y": {"a": ONE, "b": ONE}}
    got = linear([("x", ONE), ("y", -v_pow(2))], lambda k: images[k].items())
    assert got == {"b": -v_pow(2)}
    assert linear([("x", ONE), ("x", MINUS_ONE)], lambda k: images[k].items()) == {}


def test_linear_and_bilinear_of_empty_operands():
    assert linear([], lambda k: [(k, ONE)]) == {}
    assert linear([("x", ONE)], lambda k: ()) == {}
    pairs = [("x", ONE)]
    assert bilinear([], pairs, lambda j, k: [((j, k), ONE)]) == {}
    assert bilinear(pairs, [], lambda j, k: [((j, k), ONE)]) == {}


def test_linear_merges_a_repeated_output_key():
    # one image names its key twice, and two inputs share it too
    got = linear(
        [("x", ONE), ("y", v_pow(1))], lambda k: [("out", ONE), ("out", v_pow(-1))]
    )
    assert got == {"out": (ONE + v_pow(-1)) * (ONE + v_pow(1))}
    assert bilinear(
        [(1, ONE), (2, ONE)], [(2, ONE), (1, ONE)], lambda j, k: [(j + k, ONE)]
    ) == {2: ONE, 3: ONE + ONE, 4: ONE}


def test_extension_over_fraction_coefficients():
    half, third = Fraction(1, 2), Fraction(1, 3)
    got = linear(
        [("x", half), ("y", third)], lambda k: [(k, Fraction(6)), ("z", Fraction(-1))]
    )
    assert got == {"x": 3, "y": 2, "z": Fraction(-5, 6)}
    assert all(type(c) is Fraction for c in got.values())
    pairs = [("y", half), ("z", -half)]
    assert bilinear([("x", half)], pairs, lambda j, k: [(j, Fraction(4))]) == {}
    s1 = HallElement.simple(A2.quiver, 4, 1)
    assert s1._like(linear(s1.terms.items(), lambda k: [(k, half)])) == s1.scale(half)


def test_bilinear_image_across_two_spaces():
    # free words of A2 against triangular terms of U(A3), keyed by both
    x = FreeElement.word(A2, (1, 2), v_pow(1)) + FreeElement.word(A2, (2,))
    y = UElement.E(A3, 3).scale(v_pow(-2)) + UElement.K(A3, (1, 0, 0))
    e3, k1 = ((), (0, 0, 0), (3,)), ((), (1, 0, 0), ())
    got = bilinear(
        x.terms.items(), y.terms.items(), lambda w, key: [((w, key), v_pow(len(w)))]
    )
    assert got == {
        ((1, 2), e3): v_pow(1),
        ((1, 2), k1): v_pow(3),
        ((2,), e3): v_pow(-1),
        ((2,), k1): v_pow(1),
    }


def test_construction_drops_zeros_and_arithmetic_round_trips():
    x = UElement(A2, {((), (0, 0), (1,)): v_pow(2), ((1,), (0, 0), ()): ZERO})
    assert list(x.terms) == [((), (0, 0), (1,))]
    y = UElement.F(A2, 2)
    assert (x + y) - y == x
    assert (x - x).is_zero()
    assert x.scale(ZERO).is_zero()
    assert x.scale(v_pow(-2)) == UElement.E(A2, 1)
    assert hash(x + y) == hash(y + x)
    assert x != FElement.generator(A2, 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda d: FreeElement.generator(d, 1),
        lambda d: FElement.generator(d, 1),
        lambda d: UElement.E(d, 1),
        lambda d: DoubleElement.torus(d, d.unit_vec(1)),
    ],
)
def test_operands_from_different_data_are_rejected(make):
    a, b = make(A2), make(A3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    assert a != b


def test_hall_elements_of_different_fields_are_rejected():
    a = HallElement.simple(A2.quiver, 2, 1)
    b = HallElement.simple(A2.quiver, 4, 1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    assert all(type(c) is Fraction for c in (a + a).scale(3).terms.values())


def test_halves_of_opposite_sign_are_rejected():
    plus = HalfElement.generator(A2, "plus", 1)
    minus = HalfElement.generator(A2, "minus", 1)
    with pytest.raises(ValueError):
        plus + minus
    with pytest.raises(ValueError):
        HalfElement(A2, "neither")


def test_elements_of_different_types_are_rejected():
    with pytest.raises(ValueError):
        FreeElement.generator(A2, 1) + FElement.generator(A2, 1)


def test_shared_memo_bounded_and_transparent():
    # the word coproducts store each word pair and coefficient once across
    # their rows, and equal the rows rebuilt once the memos are cleared
    assert _shared.cache_parameters()["maxsize"] is not None
    words = [(1, 2, 3, 2), (2, 3, 2, 1), (3, 2, 1, 2)]

    def rows():
        return [coproduct_word(A3, w) for w in words]

    for memo in (coproduct_word, _shared):
        memo.cache_clear()
    before = rows()
    parts = [part for table in before for row in table for part in row]
    first: dict = {}
    for part in parts:
        assert first.setdefault((type(part), part), part) is part
    assert len(first) < len(parts)
    assert _shared.cache_info().hits > 0
    for memo in (coproduct_word, _shared):
        memo.cache_clear()
    assert rows() == before

from fractions import Fraction

import pytest

from qhall.cartan import A2, A3
from qhall.double import DoubleElement, HalfElement
from qhall.falgebra import FElement
from qhall.freealg import FreeElement
from qhall.hall import HallElement
from qhall.lincomb import merge
from qhall.ratfunc import ONE, ZERO, v_pow
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

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from qhall import ratfunc
from qhall.ratfunc import (
    IntPoly,
    MINUS_ONE,
    ONE,
    ONE_POLY,
    ZERO_POLY,
    RatFunc,
    ZERO,
    common_denominator,
    qfact,
    qint,
    sum_products,
    v_pow,
    _cancelled,
    _dense_exact_div,
    _product,
)

from helpers import (
    const_den_ratfuncs,
    laurent_polys,
    nonzero_polys,
    parse_scalar,
    ratfuncs,
)

V = v_pow(1)


def poly(d):
    return IntPoly(d)


def test_normalize_polynomial_division():
    assert RatFunc(poly({2: 1, 0: -1}), poly({1: 1, 0: -1})) == parse_scalar(
        "v + 1"
    )


def test_normalize_zero_numerator():
    assert RatFunc(poly({}), poly({1: 1})) == ZERO


def test_normalize_content():
    assert RatFunc(poly({1: 2}), poly({0: 4})) == parse_scalar("v/2")


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(poly({0: 1}), poly({}))


def test_canonical_denominator_sign():
    a = RatFunc(poly({0: 1}), poly({1: -1, 0: 1}))
    assert a.den.lead() > 0
    assert a == parse_scalar("1/(v-1)") * MINUS_ONE


def test_qint_small_values():
    assert qint(1) == ONE
    assert qint(2) == V + v_pow(-1)
    assert qint(0) == ZERO


def test_qint_odd_symmetry():
    for n in range(-12, 13):
        assert qint(-n) == -qint(n)


def test_qfact():
    assert qfact(0) == ONE
    assert qfact(2) == V + v_pow(-1)
    # [3]! expanded by hand: (v + v^-1)(v^2 + 1 + v^-2)
    assert qfact(3) == parse_scalar("v^3 + 2v + 2v^-1 + v^-3")
    with pytest.raises(ValueError):
        qfact(-1)


def test_q_number_memos_bounded_and_transparent():
    memos = (qint, qfact)
    for memo in memos:
        assert memo.cache_parameters()["maxsize"] is not None
        assert memo.__module__ == "qhall.ratfunc"
    assert Path(ratfunc.__file__).read_text().count("maxsize=None") == 0
    # [40]! overflows the memo of quantum integers
    big = qfact(40)
    row = [qfact(n) for n in range(13)]
    for memo in memos:
        assert memo.cache_info().currsize <= memo.cache_parameters()["maxsize"]
        memo.cache_clear()
    assert qfact(40) == big and [qfact(n) for n in range(13)] == row
    assert qfact(40) == qfact(39) * qint(40)


def test_evaluation_homomorphism():
    two = Fraction(2)
    for n in range(11):
        assert qint(n).eval_at(two) == (two ** n - two ** -n) / (two - Fraction(1, 2))


def _seeded_ratfunc(rng):
    """A RatFunc with exponents down to -4 and a non-monic denominator."""
    num = {rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(rng.randint(1, 4))}
    den = {rng.randint(0, 4): rng.randint(-9, 9) for _ in range(rng.randint(1, 3))}
    den[rng.randint(0, 5)] = rng.choice([-6, -3, 2, 4, 5])
    return RatFunc(IntPoly(num), IntPoly(den))


def _term_by_term(p, x):
    """p(x) summed one term c x^e at a time, in Fractions."""
    return sum((c * x ** e for e, c in p.coeffs.items()), Fraction(0))


def test_horner_evaluation_matches_the_term_by_term_value():
    rng = random.Random(20)
    values = [_seeded_ratfunc(rng) for _ in range(300)]
    assert any(min(a.num.coeffs) < 0 for a in values if a)
    assert any(a.den.lead() > 1 for a in values)
    points = (-2, -1, 1, 2, 3, 5, Fraction(1, 2), Fraction(-5, 3))
    for a in values:
        for x in points:
            try:
                want = _term_by_term(a.num, Fraction(x)) / _term_by_term(a.den, Fraction(x))
            except ZeroDivisionError:
                for point in (x, Fraction(x)):
                    with pytest.raises(ZeroDivisionError):
                        a.eval_at(point)
                continue
            assert a.eval_at(x) == a.eval_at(Fraction(x)) == want, (a, x)
            assert type(a.eval_at(x)) is Fraction


@settings(max_examples=200, deadline=None)
@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO
    assert a * ONE == a


@settings(max_examples=150, deadline=None)
@given(ratfuncs)
def test_zero_operand_sums(a):
    for total, expected in (
        (ZERO + a, a), (a + ZERO, a), (a - ZERO, a), (ZERO - a, -a)
    ):
        assert total == expected and hash(total) == hash(expected)
        assert str(total) == str(expected)
    assert str(ZERO + parse_scalar("(v^2 + 1)/(v - v^-1)")) == "(v^3 + v)/(v^2 - 1)"


@settings(max_examples=200, deadline=None)
@given(ratfuncs)
def test_inverses(a):
    if not a.is_zero():
        assert a * a.inverse() == ONE
        assert (ONE / a) * a == ONE


@settings(max_examples=150, deadline=None)
@given(ratfuncs)
def test_canonical_form_is_stable(a):
    again = RatFunc(a.num, a.den)
    assert again == a and hash(again) == hash(a)


@settings(max_examples=150, deadline=None)
@given(ratfuncs)
def test_text_round_trip(a):
    assert parse_scalar(str(a)) == a


def test_laurent_rendering():
    assert str(V + v_pow(-1)) == "v + v^-1"
    assert str(ZERO) == "0"
    assert str(v_pow(2) * RatFunc.const(3) - ONE) == "3v^2 - 1"
    assert str((ONE - v_pow(-2)).inverse()) == "v^2/(v^2 - 1)"


@settings(max_examples=150, deadline=None)
@given(st.one_of(ratfuncs, const_den_ratfuncs))
def test_unit_monomial_products(a):
    _cancelled.cache_clear()
    for s in (1, -1, 2, -3, 6):
        for k in range(-3, 4):
            m = RatFunc(IntPoly({k: s}))
            want = RatFunc(a.num * m.num, a.den * m.den)
            for got in (a * m, m * a):
                assert got == want and hash(got) == hash(want)
                assert str(got) == str(want)
        if s in (1, -1):
            # a signed shift never reaches the general product's
            # cancellation memo
            assert _cancelled.cache_info().currsize == 0


@settings(max_examples=150, deadline=None)
@given(st.one_of(ratfuncs, const_den_ratfuncs))
def test_shift_is_the_product_by_a_v_power(a):
    _cancelled.cache_clear()
    for k in range(-6, 7):
        got = a.shift(k)
        # rebuilt through the normalizing constructor, and through the
        # general product that the unit-monomial path skips
        rebuilt = RatFunc(a.num.shift(k), a.den)
        assert got == a * v_pow(k) == _product(a, v_pow(k)) == rebuilt
        assert hash(got) == hash(rebuilt) and str(got) == str(rebuilt)
    assert a.shift(0) is a
    assert ZERO.shift(3) is ZERO


@settings(max_examples=150, deadline=None)
@given(st.one_of(ratfuncs, const_den_ratfuncs))
def test_one_factor_returns_the_other_operand(a):
    assert ONE * a == a == a * ONE
    assert ONE * a is a and a * ONE is a
    assert ONE.times(a, 0) is a and a.times(ONE, 0) is a
    # with a twist, ONE is a unit monomial like any other
    for k in (-3, -1, 1, 2):
        want = a.shift(k)
        for got in (ONE.times(a, k), a.times(ONE, k)):
            assert got == want and hash(got) == hash(want)
            assert str(got) == str(want)


# a few fixed denominators, so that sums meet equal, coprime and
# overlapping denominators
shared_den_ratfuncs = st.builds(
    RatFunc,
    nonzero_polys,
    st.sampled_from(
        [poly({0: 1}), poly({0: 1, 2: 1}), poly({0: 1, 1: 1, 2: 1}),
         poly({0: -1, 2: 1}), poly({0: 1, 2: -2, 4: 1}), poly({0: 3})]
    ),
)
# c v^e over 1, which sum_products folds into the other factor: c = +-1,
# and |c| > 1, which shares a factor with some denominators above
unit_monomials = st.builds(
    lambda c, e: RatFunc(IntPoly({e: c})),
    st.sampled_from([1, -1, 2, -2, 3, -6]),
    st.integers(-4, 4),
)
coefficients = st.one_of(
    ratfuncs, const_den_ratfuncs, shared_den_ratfuncs, unit_monomials, laurent_polys
).filter(bool)
triples = st.tuples(coefficients, coefficients, st.integers(-4, 4))
# per key: its triples, and whether to append their negatives
key_sums = st.tuples(st.lists(triples, min_size=1, max_size=4), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(key_sums, max_size=4))
# a unit factor 3v that shares its 3 with the other factor's denominator
@example([([(parse_scalar("3v"), parse_scalar("1/(3v + 3)"), 1)], False)])
def test_sum_products_matches_left_to_right_sums(spec):
    groups = {}
    for key, (ts, cancel) in enumerate(spec):
        groups[key] = ts + [(-a, b, k) for a, b, k in ts] if cancel else ts
    want = {}
    for key, ts in groups.items():
        total = ZERO
        for a, b, k in ts:
            # each product through the normalizing constructor, which
            # folds no unit factor
            total = total + RatFunc((a.num * b.num).shift(k), a.den * b.den)
        if total:
            want[key] = total
    got = sum_products(groups)
    assert got.keys() == want.keys()
    assert not any(spec[key][1] for key in got)  # cancelled keys are gone
    for key, total in want.items():
        assert got[key] == total and hash(got[key]) == hash(total)
        assert str(got[key]) == str(total)
        # a denominator 1 is ONE_POLY itself, whichever route made it
        assert (got[key].den is ONE_POLY) == (got[key].den == ONE_POLY)


general_factors = st.one_of(
    ratfuncs, const_den_ratfuncs, shared_den_ratfuncs, unit_monomials
)


@settings(max_examples=150, deadline=None)
@given(general_factors, general_factors)
def test_a_unit_denominator_is_the_one_polynomial(a, b):
    # products tell a denominator 1 by identity, so every route that can
    # make one must hand back ONE_POLY itself
    values = [a, b, a * b, b * a, _product(a, b), a + b, a - b, -a, a.shift(3)]
    values += [RatFunc(a.num, a.den), RatFunc(a.num * b.den, IntPoly(dict(b.den.coeffs)))]
    values += [x.inverse() for x in (a, b, a * b) if x]
    for x in values:
        assert (x.den is ONE_POLY) == (x.den == ONE_POLY), x


@settings(max_examples=200, deadline=None)
@given(general_factors, general_factors)
def test_general_product_through_the_cancellation_memo(a, b):
    want = RatFunc(a.num * b.num, a.den * b.den)
    _cancelled.cache_clear()
    cold = [a * b, b * a, _product(a, b), _product(b, a)]
    warm = [a * b, b * a, _product(a, b), _product(b, a)]
    for got in cold + warm:
        assert got == want and hash(got) == hash(want)
        assert str(got) == str(want)
    # only a denominator other than 1 is cancelled against
    assert _cancelled.cache_info().currsize <= 2


def test_cancellation_memo_bounded_and_transparent():
    assert _cancelled.cache_parameters()["maxsize"] is not None
    assert _cancelled.__module__ == "qhall.ratfunc"
    a = parse_scalar("(v^2 - 1)/(v^2 + v + 1)")
    b = parse_scalar("(v^3 - 1)/(3v + 3)")
    _cancelled.cache_clear()
    assert str(a * b) == "(v^2 - 2v + 1)/3"
    assert _cancelled.cache_info().currsize == 2
    assert str(a * b) == "(v^2 - 2v + 1)/3"
    assert _cancelled.cache_info().hits == 2


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(ratfuncs, shared_den_ratfuncs), max_size=6))
def test_common_denominator(values):
    den, nums = common_denominator(values)
    assert [RatFunc(n, den) for n in nums] == values


def test_exact_division_raises_on_a_non_dividing_pair():
    # the check is a raise, not an assert, so python -O keeps it
    assert _dense_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
    for a, b in (([1, 0, 1], [1, 1]), ([1, 2], [0, 2]), ([3], [1, 1])):
        with pytest.raises(ArithmeticError):
            _dense_exact_div(a, b)


def _is_shared(p):
    """p is the one object the denominator memo holds for its value."""
    return p is ratfunc._den(tuple(ratfunc._dense(p.coeffs, 0)))


def _same_value(got, want):
    assert got == want and hash(got) == hash(want), (got, want)
    assert str(got) == str(want)
    assert _is_shared(got.den), got


# nonzero, as sum_products takes them, and with a denominator other than 1
# in most draws
fraction_factors = st.one_of(
    ratfuncs, const_den_ratfuncs, shared_den_ratfuncs
).filter(bool)
nonzero_factors = general_factors.filter(bool)
twists = st.integers(-6, 6)


@settings(max_examples=200, deadline=None)
@given(nonzero_factors, fraction_factors, twists)
def test_every_route_matches_the_normalizing_constructor(a, b, k):
    # each result equals the constructor's reduction of the same fraction,
    # and holds the one shared object for its denominator
    for x, y in ((a, b), (b, a)):
        want = RatFunc((x.num * y.num).shift(k), x.den * y.den)
        for got in (
            _product(x, y, k),
            x.times(y, k),
            (x * y).shift(k),
            sum_products({0: [(x, y, k)]}).get(0, ZERO),
        ):
            _same_value(got, want)
    cross = (a.num * b.den, b.num * a.den)
    _same_value(a + b, RatFunc(cross[0] + cross[1], a.den * b.den))
    _same_value(a - b, RatFunc(cross[0] - cross[1], a.den * b.den))
    _same_value(a.shift(k), RatFunc(a.num.shift(k), a.den))
    for x in (a, b):
        _same_value(x.inverse(), RatFunc(x.den, x.num))
    den, nums = common_denominator([a, b, a * b])
    assert _is_shared(den)
    assert [RatFunc(n, den) for n in nums] == [a, b, a * b]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(nonzero_factors, fraction_factors, twists), min_size=1, max_size=8))
def test_sum_products_matches_one_normalized_fraction(triples):
    # the reference puts every product over the product of all their
    # denominators and reduces once, in the constructor
    nums = [(a.num * b.num).shift(k) for a, b, k in triples]
    dens = [a.den * b.den for a, b, _k in triples]
    total, den = ZERO_POLY, ONE_POLY
    for n, d in zip(nums, dens):
        total, den = total * d + n * den, den * d
    got = sum_products({"key": triples})
    if not total:
        assert got == {}
    else:
        _same_value(got["key"], RatFunc(total, den))


def _reference_reduction(num, den):
    """num/den reduced by Euclid's algorithm over Q, with no code from
    qhall.ratfunc, as (numerator, denominator, what changed): the shift
    that makes the denominator an ordinary polynomial with a nonzero
    constant term, a polynomial gcd, a common integer content, or the
    sign of the denominator's leading coefficient."""

    def dense(p, low):
        out = [Fraction(0)] * (max(p.coeffs) - low + 1)
        for e, c in p.coeffs.items():
            out[e - low] = Fraction(c)
        return out

    def trim(a):
        while a and not a[-1]:
            a.pop()
        return a

    def divmod_q(a, b):
        a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 1)
        while len(trim(a)) >= len(b):
            k, c = len(a) - len(b), a[-1] / b[-1]
            q[k] = c
            for j, y in enumerate(b):
                a[k + j] -= c * y
        return trim(q), a

    nlow, dlow = min(num.coeffs), min(den.coeffs)
    n, d = dense(num, nlow), dense(den, dlow)
    a, b = n, d
    while b:
        a, b = b, divmod_q(a, b)[1]
    n, d = divmod_q(n, a)[0], divmod_q(d, a)[0]
    ints = [x * math.lcm(*(y.denominator for y in n + d)) for x in n + d]
    content = math.gcd(*(int(x) for x in ints))
    sign = -1 if ints[-1] < 0 else 1
    ints = [int(x) // (sign * content) for x in ints]
    top, bottom = ints[: len(n)], ints[len(n):]
    size = math.gcd(*(int(x) for x in dense(num, nlow) + dense(den, dlow)))
    changed = {
        "shift": dlow != 0,
        "gcd": len(a) > 1,
        "content": size != 1,
        "sign": den.coeffs[max(den.coeffs)] < 0,
    }
    return (
        IntPoly({e + nlow - dlow: c for e, c in enumerate(top)}),
        IntPoly(dict(enumerate(bottom))),
        {k for k, v in changed.items() if v},
    )


@st.composite
def fractions_to_reduce(draw):
    """A numerator and a denominator that share, in some draws, a
    polynomial factor, an integer factor or a sign, and have an ordinary
    denominator in others."""
    num = draw(nonzero_polys)
    den = draw(st.one_of(nonzero_polys, ordinary_polys))
    factor = draw(st.one_of(st.just(ONE_POLY), nonzero_polys, ordinary_polys))
    scale = draw(st.sampled_from([1, 1, 1, -1, 2, -3, 6]))
    scale = IntPoly.const(scale)
    return num * factor * scale, den * factor * scale


ordinary_polys = st.dictionaries(
    st.integers(1, 4), st.integers(-9, 9), max_size=3
).flatmap(
    lambda d: st.integers(1, 9).map(lambda c: IntPoly({**d, 0: c}))
)


@settings(max_examples=300, deadline=None)
@given(fractions_to_reduce())
@example((poly({0: 1, 1: 2}), poly({0: 1, 2: 1})))  # nothing to reduce
@example((poly({0: 2, 1: 4}), poly({0: 2, 2: 6})))  # content 2
@example((poly({0: 1, 1: 2}), poly({0: 3, 2: 1})))  # content 1, not 1 each
@example((poly({0: -1, 2: 1}), poly({0: 1, 1: 1})))  # gcd v + 1
@example((poly({0: 1, 1: 2}), poly({0: -1, 2: -1})))  # sign
@example((poly({0: 1, 1: 2}), poly({1: 1, 3: 1})))  # shift
@example((poly({0: 5}), poly({0: 1, 1: 1})))  # one-term numerator
def test_constructor_keeps_a_numerator_that_nothing_reduces(pair):
    num, den = pair
    want_num, want_den, changed = _reference_reduction(num, den)
    got = RatFunc(num, den)
    assert got.num == want_num and got.den == want_den, (num, den, changed)
    assert (got.num is num) == (not changed), (num, den, changed)


def test_denominator_memos_bounded_and_transparent():
    memos = (ratfunc._den, ratfunc._den_product, ratfunc._lcm_cofactors)
    for memo in memos:
        assert memo.cache_parameters()["maxsize"] is not None
        assert memo.__module__ == "qhall.ratfunc"
    a = parse_scalar("(v^2 - 1)/(v^2 + v + 1)")
    b = parse_scalar("(v^3 + 2)/(3v + 3)")
    c = parse_scalar("v/(v^2 + 1)")

    def values():
        return (
            a * b,
            b * c,
            sum_products({0: [(a, b, 1), (c, b, -2), (a, c, 0)]}),
            common_denominator([a, b, c]),
            c.inverse(),
        )

    before = values()
    assert all(memo.cache_info().currsize for memo in memos)
    for memo in memos:
        memo.cache_clear()
    assert values() == before
    # equal denominators built on different routes are one object
    assert (a * c).den is (c * a).den is ratfunc._den_product(a.den, c.den)
    assert ratfunc._den((1,)) is ONE_POLY

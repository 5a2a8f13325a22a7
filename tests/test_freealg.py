import itertools
import random
from pathlib import Path

from qhall import freealg
from qhall.cartan import A2, A3, load_datum, quiver_from_shorthand
from qhall.freealg import (
    FreeElement,
    TensorElement,
    _form_words,
    _word_pairing,
    _word_weight,
    coproduct_r,
    coproduct_word,
    free_mul,
    lusztig_form,
    twisted_tensor_mul,
    words_of_weight,
)
from qhall.lincomb import merge
from qhall.ratfunc import ONE, ZERO, v_pow

from helpers import parse_scalar


def th(d, *letters):
    return FreeElement.word(d, tuple(letters))


def test_free_mul():
    x = free_mul(th(A2, 1), th(A2, 2))
    assert x.terms == {(1, 2): ONE}
    assert free_mul(FreeElement.unit(A2), x) == x
    y = free_mul(th(A2, 1) + th(A2, 2), th(A2, 1))
    assert y.terms == {(1, 1): ONE, (2, 1): ONE}


def test_twisted_tensor_rule():
    one = ((), ())
    t1 = TensorElement(A2, {((), (1,)): ONE})
    t2 = TensorElement(A2, {((2,), ()): ONE})
    prod = twisted_tensor_mul(t1, t2)
    assert prod.terms == {((2,), (1,)): v_pow(-1)}
    a = TensorElement(A2, {((1,), ()): ONE})
    b = TensorElement(A2, {((), (2,)): ONE})
    assert twisted_tensor_mul(a, b).terms == {((1,), (2,)): ONE}
    c = TensorElement(A2, {((), (1,)): ONE})
    d = TensorElement(A2, {((1,), ()): ONE})
    assert twisted_tensor_mul(c, d).terms == {((1,), (1,)): v_pow(2)}


def _twisted_tensor_reference(s, t):
    """The twisted tensor product term by term, each twist a fresh v-power."""
    d = s.datum
    out = {}
    for (x1, y1), c1 in s.terms.items():
        for (x2, y2), c2 in t.terms.items():
            twist = d.sym_form(d.weight_of_word(y1), d.weight_of_word(x2))
            merge(out, (x1 + x2, y1 + y2), c1 * c2 * v_pow(twist))
    return TensorElement(d, out)


def test_twisted_tensor_mul_matches_term_by_term_reference():
    kronecker = load_datum(quiver_from_shorthand("1->2,1->2"))
    # unit monomials c v^e with c = 1, 2, -1, -3, mixed with non-units; the
    # denominators with content 2 and 3 keep a factor 2 or -3 from being
    # folded into their numerators
    scalars = [
        parse_scalar(c)
        for c in (
            "1", "-v^2", "2", "2v^3", "-v^-1", "-3", "-3v^2", "v + 1",
            "1/(v^2 + 1)", "(v - 3)/(v + 1)", "1/(2v^2 + 2)", "v/(3v + 3)",
        )
    ]
    for d in (A2, A3, kronecker):
        rng = random.Random(31)

        def word():
            return tuple(rng.choice(d.vertices) for _ in range(rng.randint(0, 2)))

        def tensor():
            n = rng.randint(1, 4)
            return TensorElement(d, {(word(), word()): rng.choice(scalars) for _ in range(n)})

        for _ in range(40):
            s, t = tensor(), tensor()
            assert twisted_tensor_mul(s, t) == _twisted_tensor_reference(s, t)


def test_coproduct_generator_and_unit():
    r = coproduct_r(th(A2, 1))
    assert r.terms == {((1,), ()): ONE, ((), (1,)): ONE}
    assert coproduct_r(FreeElement.unit(A2)).terms == {((), ()): ONE}


def test_coproduct_of_length_two_word():
    r = coproduct_r(th(A2, 1, 2))
    assert r.terms == {
        ((1, 2), ()): ONE,
        ((1,), (2,)): ONE,
        ((2,), (1,)): v_pow(-1),
        ((), (1, 2)): ONE,
    }


def test_coproduct_is_algebra_homomorphism():
    for d in (A2, A3):
        words = [()]
        for ln in (1, 2, 3):
            words.extend(itertools.product(d.vertices, repeat=ln))
        sample = words[:25]
        for w1 in sample:
            for w2 in sample:
                if len(w1) + len(w2) > 5:
                    continue
                x, y = FreeElement.word(d, w1), FreeElement.word(d, w2)
                assert coproduct_r(free_mul(x, y)) == twisted_tensor_mul(
                    coproduct_r(x), coproduct_r(y)
                )


def test_form_weight_orthogonality():
    assert lusztig_form(th(A2, 1), th(A2, 2)) == ZERO
    assert lusztig_form(th(A2, 1, 2), th(A2, 1)) == ZERO


def test_form_values():
    c2 = parse_scalar("(1 - v^-2)^2")
    x, y = th(A2, 1, 2), th(A2, 2, 1)
    assert lusztig_form(x, x) == c2.inverse()
    assert lusztig_form(x, y) == v_pow(-1) * c2.inverse()


def test_form_symmetry():
    for d in (A2, A3):
        for total in range(5):
            from qhall.cartan import dims_of_height

            for nu in dims_of_height(d.rank, total):
                words = words_of_weight(d, nu)
                for w1 in words:
                    for w2 in words:
                        assert lusztig_form(
                            FreeElement.word(d, w1), FreeElement.word(d, w2)
                        ) == lusztig_form(
                            FreeElement.word(d, w2), FreeElement.word(d, w1)
                        )


def test_coproduct_grading():
    from qhall.cartan import add_vec

    for w in [(1, 2, 1), (2, 2, 1), (1, 1, 2)]:
        nu = A2.weight_of_word(w)
        for (w1, w2), _c in coproduct_r(th(A2, *w)).terms.items():
            assert add_vec(A2.weight_of_word(w1), A2.weight_of_word(w2)) == nu


def test_words_of_weight_order():
    assert words_of_weight(A2, (2, 1)) == ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    assert words_of_weight(A2, (0, 0)) == ((),)


def test_memos_bounded_and_transparent():
    memos = (coproduct_word, _form_words, words_of_weight, _word_weight, _word_pairing)
    for memo in memos:
        assert memo.cache_parameters()["maxsize"] is not None
    assert Path(freealg.__file__).read_text().count("maxsize=None") == 0
    x = th(A3, 1, 2, 3) + th(A3, 2, 1).scale(v_pow(2))
    y = th(A3, 3, 2, 1) + th(A3, 2, 1, 3)

    def values():
        return coproduct_r(x), lusztig_form(x, y), words_of_weight(A3, (1, 1, 1))

    before = values()
    for memo in memos:
        memo.cache_clear()
    assert values() == before
    assert not lusztig_form(x, y).is_zero()

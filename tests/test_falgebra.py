import itertools
from functools import lru_cache
from pathlib import Path

import pytest

from qhall import falgebra
from qhall.cartan import (
    A2,
    A3,
    dims_of_height,
    load_datum,
    load_quiver,
    positive_roots,
    scale_vec,
    sub_vec,
    weyl_kac_dim,
)
from qhall.falgebra import (
    FElement,
    _normal_form_word,
    f_mul,
    greedy_basis,
    i_decompose,
    i_decompose_right,
    i_r_component,
    normal_form,
    serre_element,
    sub_if_basis,
    theta_divided,
    weight_basis,
)
from qhall.freealg import (
    DEFAULT_FORM_CONSTANT,
    FreeElement,
    _form_words,
    coproduct_word,
    word_form,
    words_of_weight,
)
from qhall.linalg import QV, rref
from qhall.ratfunc import ONE, ZERO, RatFunc, qfact, v_pow
from qhall.verify import Session, run_suite

from helpers import solve


def free_word(d, *letters):
    return FreeElement.word(d, tuple(letters))


def felt(d, *letters):
    return normal_form(free_word(d, *letters))


def test_weight_space_dimensions():
    assert weight_basis(A2, (1, 0)).dim == 1
    assert weight_basis(A2, (1, 0)).basis_words == ((1,),)
    assert weight_basis(A2, (1, 1)).dim == 2
    assert weight_basis(A2, (2, 1)).dim == 2
    assert weight_basis(A2, (2, 2)).dim == 3
    assert weight_basis(A3, (1, 1, 1)).dim == 4


def test_weight_basis_selection_is_lex_greedy():
    words = words_of_weight(A2, (2, 1))
    assert words == ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    assert weight_basis(A2, (2, 1)).basis_words == words[:2]


def test_serre_relator_is_zero():
    for d in (A2, A3):
        for i in d.vertices:
            for j in d.vertices:
                if i != j:
                    assert normal_form(serre_element(d, i, j)).is_zero()


def test_serre_two_sided_ideal():
    rel = serre_element(A2, 1, 2)
    contexts = [()]
    for ln in (1, 2):
        contexts.extend(itertools.product(A2.vertices, repeat=ln))
    for ctx in contexts:
        for cut in range(len(ctx) + 1):
            left = FreeElement.word(A2, ctx[:cut])
            right = FreeElement.word(A2, ctx[cut:])
            assert normal_form(left * rel * right).is_zero()


def test_normal_form_basis_words_fixed():
    x = felt(A2, 1)
    assert x.terms == {(1,): ONE}
    y = felt(A2, 1, 2, 1)
    assert set(y.terms) <= set(weight_basis(A2, (2, 1)).basis_words)
    assert y.terms == {(1, 2, 1): ONE}


def test_normal_form_reduces_dependent_word():
    # th2 th1 th1 rewrites through the Serre relation
    y = felt(A2, 2, 1, 1)
    assert y == f_mul(felt(A2, 1, 2), felt(A2, 1)).scale(
        v_pow(1) + v_pow(-1)
    ) - felt(A2, 1, 1, 2)


def test_f_mul_well_defined():
    a = normal_form(free_word(A2, 1, 2) - free_word(A2, 2, 1).scale(v_pow(1)))
    b = felt(A2, 1)
    route1 = f_mul(a, b)
    route2 = normal_form(
        (free_word(A2, 1, 2) - free_word(A2, 2, 1).scale(v_pow(1))) * free_word(A2, 1)
    )
    assert route1 == route2
    assert f_mul(b, FElement.unit(A2)) == b


def test_f_mul_associative():
    elems = [felt(A2, 1), felt(A2, 2), felt(A2, 1, 2), felt(A2, 2, 1)]
    for a in elems:
        for b in elems:
            for c in elems[:2]:
                assert f_mul(f_mul(a, b), c) == f_mul(a, f_mul(b, c))


def test_theta_divided():
    assert theta_divided(A2, 1, 0) == FElement.unit(A2)
    assert theta_divided(A2, 1, 1) == felt(A2, 1)
    assert theta_divided(A2, 1, 2) == felt(A2, 1, 1).scale(qfact(2).inverse())
    with pytest.raises(ValueError):
        theta_divided(A2, 1, -1)


def test_i_r_component():
    assert i_r_component(1, "left", felt(A2, 1, 2)) == felt(A2, 2)
    assert i_r_component(1, "left", felt(A2, 2, 1)) == felt(A2, 2).scale(v_pow(-1))
    assert i_r_component(1, "left", felt(A2, 2)).is_zero()
    assert i_r_component(1, "right", felt(A2, 2, 1)) == felt(A2, 2)


def test_sub_if_basis():
    left = sub_if_basis(A2, 1, (0, 1), "left")
    assert len(left) == 1 and left[0] == felt(A2, 2)
    line = sub_if_basis(A2, 1, (1, 1), "left")
    assert len(line) == 1
    x = line[0]
    # up to scalar th1 th2 - v th2 th1
    target = normal_form(free_word(A2, 1, 2) - free_word(A2, 2, 1).scale(v_pow(1)))
    lead = next(iter(sorted(x.terms)))
    assert x.scale(target.terms[lead] / x.terms[lead]) == target
    assert sub_if_basis(A2, 1, (1, 0), "left") == ()


def test_decompositions_reject_an_unknown_vertex_on_zero():
    for decompose in (i_decompose, i_decompose_right):
        with pytest.raises(ValueError, match="unknown vertex 9"):
            decompose(9, FElement(A2, {}))


def test_i_decompose_examples():
    pieces = i_decompose(1, felt(A2, 1, 2))
    assert pieces == [(1, felt(A2, 2))]
    pieces = i_decompose(1, felt(A2, 2, 1))
    expected_t0 = normal_form(
        free_word(A2, 1, 2) - free_word(A2, 2, 1).scale(v_pow(1))
    ).scale(-v_pow(-1))
    assert pieces == [(0, expected_t0), (1, felt(A2, 2).scale(v_pow(-1)))]
    x = normal_form(free_word(A2, 1, 2) - free_word(A2, 2, 1).scale(v_pow(1)))
    assert i_decompose(1, x) == [(0, x)]


def test_decompositions_reject_a_word_off_the_basis():
    # th2 th1 th1 is not a basis word of f_(2,1), and its normal form is
    # not zero, so no coordinates are read from its letters
    assert felt(A2, 2, 1, 1) != FElement(A2)
    x = FElement(A2, {(2, 1, 1): ONE})
    for decompose in (i_decompose, i_decompose_right):
        with pytest.raises(ValueError, match=r"word \(2, 1, 1\) .* f_\(2, 1\)"):
            decompose(1, x)


def _reference_rows(d, i, word, side):
    """The rows of a basis word by one solve of its unit vector against
    the columns th^(t) k (or k th^(t)) over the kernel bases k."""
    nu = d.weight_of_word(word)
    basis = weight_basis(d, nu).basis_words
    columns = []
    for t in range(nu[d.index(i)] + 1):
        level = sub_vec(nu, scale_vec(t, d.unit_vec(i)))
        power = theta_divided(d, i, t)
        for ker in sub_if_basis(d, i, level, side):
            prod = f_mul(power, ker) if side == "left" else f_mul(ker, power)
            columns.append((t, ker, prod))
    assert len(columns) == len(basis)
    rows = [[prod.terms.get(w, ZERO) for _t, _k, prod in columns] for w in basis]
    sol = solve(QV, rows, [ONE if w == word else ZERO for w in basis])
    out: dict = {}
    for (t, ker, _prod), x in zip(columns, sol):
        for w, c in ker.terms.items():
            out[t, w] = out.get((t, w), ZERO) + x * c
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize(
    "spec, rows",
    [("1->2,2->3", 174), ("2->1,2->3,2->4", 424), ("1->2,1->2", 60)],
    ids=["A3", "D4", "Kronecker"],
)
def test_decomposition_table_matches_a_solve_per_word(spec, rows):
    # every (vertex, side) at every weight of height <= 3: the table's one
    # elimination gives each basis word the coordinates of its own solve
    d = load_datum(load_quiver(spec))
    words = 0
    for nu in _weights(d, 3):
        for i in d.vertices:
            for side in ("left", "right"):
                table = falgebra._decomposition(d, i, nu, side)
                assert list(table) == list(weight_basis(d, nu).basis_words)
                for w, got in table.items():
                    assert dict(got) == _reference_rows(d, i, w, side)
                    words += 1
    assert words == rows


def test_a_cold_f_suite_decomposes_each_weight_once_per_vertex_and_side(cold_memos):
    session = Session(datum=A3, weight_bound=3)
    assert all(r.ok for r in run_suite(session, "f"))
    weights = sum(1 for _ in _weights(A3, 3))
    assert weights == 20
    assert falgebra._decomposition.cache_info().misses == 3 * weights * 2


def kernel_dims(d, i, nu):
    """The sum over t of the dimensions of the left kernels at nu - t alpha_i."""
    h = d.unit_vec(i)
    levels = (sub_vec(nu, scale_vec(t, h)) for t in range(nu[d.index(i)] + 1))
    return sum(len(sub_if_basis(d, i, mu, "left")) for mu in levels)


def test_decomposition_reconstruction():
    for d in (A2, A3):
        for total in range(5):
            for nu in dims_of_height(d.rank, total):
                for i in d.vertices:
                    assert kernel_dims(d, i, nu) == weight_basis(d, nu).dim
                    for w in weight_basis(d, nu).basis_words:
                        x = FElement(d, {w: ONE})
                        rebuilt = FElement(d)
                        for t, piece in i_decompose(i, x):
                            assert i_r_component(i, "left", piece).is_zero()
                            rebuilt = rebuilt + f_mul(theta_divided(d, i, t), piece)
                        assert rebuilt == x
                        rebuilt = FElement(d)
                        for t, piece in i_decompose_right(i, x):
                            assert i_r_component(i, "right", piece).is_zero()
                            rebuilt = rebuilt + f_mul(piece, theta_divided(d, i, t))
                        assert rebuilt == x


def test_dim_decomposition_examples():
    assert weight_basis(A2, (1, 1)).dim == 2
    assert len(sub_if_basis(A2, 1, (1, 1), "left")) == 1
    assert len(sub_if_basis(A2, 1, (0, 1), "left")) == 1
    assert len(sub_if_basis(A2, 1, (2, 1), "left")) == 0
    assert kernel_dims(A2, 1, (2, 1)) == weight_basis(A2, (2, 1)).dim
    assert kernel_dims(A2, 1, (0, 0)) == weight_basis(A2, (0, 0)).dim


def _weights(d, max_height, min_height=0):
    for total in range(min_height, max_height + 1):
        yield from dims_of_height(d.rank, total)


@lru_cache(maxsize=None)
def _coproduct_form(d, w1, w2, c_gen):
    """Reference form at generator normalization c_gen, recursing through
    the whole coproduct of w1 and keeping the terms whose left factor is
    the first letter of w2."""
    if d.weight_of_word(w1) != d.weight_of_word(w2):
        return ZERO
    if not w2:
        return ONE
    head, rest = w2[0], w2[1:]
    total = ZERO
    for (a, b), coeff in coproduct_word(d, w1):
        if a == (head,):
            sub = _coproduct_form(d, b, rest, c_gen)
            if sub:
                total = total + coeff * c_gen * sub
    return total


@pytest.mark.parametrize(
    "spec, max_height",
    [("1->2", 6), ("1->2,2->3", 4), ("1->2,1->2", 5), ("2->1,2->3,2->4", 4)],
    ids=["A2", "A3", "Kronecker", "D4"],
)
def test_derivation_pairing_matches_coproduct_form(spec, max_height):
    # at normalization c every pairing on f_nu carries c^|nu|
    d = load_datum(load_quiver(spec))
    c = DEFAULT_FORM_CONSTANT
    for nu in _weights(d, max_height):
        scale = c ** sum(nu)
        words = words_of_weight(d, nu)
        for w1 in words:
            for w2 in words:
                entry = _form_words(d, w1, w2)
                assert all(x > 0 for x in entry.coeffs.values())
                reference = _coproduct_form(d, w1, w2, c)
                assert RatFunc(entry) * scale == reference
                assert word_form(d, w1, w2, c) == reference


def test_word_form_is_zero_across_weights():
    c = DEFAULT_FORM_CONSTANT
    assert word_form(A2, (1, 2), (1, 1), c) == ZERO
    assert word_form(A2, (), (1,), c) == ZERO
    assert word_form(A2, (), (), c) == ONE


def test_weight_bases_share_one_bounded_form_memo():
    assert _form_words.cache_parameters()["maxsize"] is not None
    assert _form_words.__module__ == "qhall.freealg"

    def misses_building(nu):
        before = _form_words.cache_info().misses
        weight_basis(A2, nu)
        return _form_words.cache_info().misses - before

    weight_basis.cache_clear()
    _form_words.cache_clear()
    cold = misses_building((2, 2))
    weight_basis.cache_clear()
    _form_words.cache_clear()
    assert misses_building((2, 1)) > 0
    # f_(2,2) pairs down to words of weight (2,1) stored by the first build
    assert misses_building((2, 2)) < cold


def _reference_basis(d, nu):
    """Greedy row rank of the full Gram matrix at the default
    normalization, and normal forms by solving against its selected
    block."""
    c = DEFAULT_FORM_CONSTANT
    words = words_of_weight(d, nu)
    gram = [[_coproduct_form(d, a, b, c) for b in words] for a in words]
    selected: list = []
    for k in range(len(words)):
        rows = [gram[i] for i in selected + [k]]
        if len(rref(QV, rows)[1]) == len(rows):
            selected.append(k)
    block = [[gram[i][j] for j in selected] for i in selected]
    forms = []
    for k in range(len(words)):
        coords = solve(QV, block, [gram[i][k] for i in selected])
        forms.append(
            tuple((words[i], x) for i, x in zip(selected, coords) if x)
        )
    return tuple(words[i] for i in selected), tuple(forms)


@pytest.mark.parametrize("d, max_height", [(A2, 7), (A3, 5)], ids=["A2", "A3"])
def test_weight_basis_matches_gram_rank_reference(d, max_height):
    for nu in _weights(d, max_height):
        wb = weight_basis(d, nu)
        basis_words, forms = _reference_basis(d, nu)
        assert wb.basis_words == basis_words
        words = words_of_weight(d, nu)
        assert tuple(_normal_form_word(d, w) for w in words) == forms
        for w, form in zip(words, forms):
            assert normal_form(FreeElement.word(d, w)).terms == dict(form)


def _coproduct_slot(d, vertex, side, word):
    """Coefficient of th_vertex x (.) or (.) x th_vertex in the coproduct
    of a word, reduced to f."""
    out = {}
    for (w1, w2), coeff in coproduct_word(d, word):
        if side == "left" and w1 == (vertex,):
            out[w2] = coeff
        elif side == "right" and w2 == (vertex,):
            out[w1] = coeff
    return normal_form(FreeElement(d, out))


@pytest.mark.parametrize("d, max_height", [(A2, 6), (A3, 4)], ids=["A2", "A3"])
def test_i_r_component_matches_coproduct_extraction(d, max_height):
    cases = 0
    for nu in _weights(d, max_height, min_height=1):
        for w in words_of_weight(d, nu):
            for i in d.vertices:
                for side in ("left", "right"):
                    got = i_r_component(i, side, FElement(d, {w: ONE}))
                    assert got == _coproduct_slot(d, i, side, w)
                    cases += 1
    assert cases == {A2: 504, A3: 720}[d]


@pytest.mark.parametrize(
    "spec, max_height", [("1->3,3->2", 5), ("2->1,2->3,2->4", 4)], ids=["A3", "D4"]
)
def test_lyndon_basis_matches_greedy_pass(spec, max_height):
    # labellings where the alphabet order is not the order along the diagram
    d = load_datum(load_quiver(spec))
    for nu in _weights(d, max_height):
        greedy = greedy_basis(d, nu)
        assert weight_basis(d, nu).basis_words == greedy.basis_words
        for w in words_of_weight(d, nu):
            assert _normal_form_word(d, w) == greedy.coordinates(w)


def _reversed(word):
    return tuple(-x for x in word)


def _is_lyndon_reversed(word):
    key = _reversed(word)
    return all(key < key[k:] for k in range(1, len(key)))


def _leclerc_root_words(d):
    """Good Lyndon word of each positive root of a Dynkin datum by
    Leclerc's rule l(g) = max{l(b1) l(b2) : b1 + b2 = g, l(b1) < l(b2)},
    in the reversed alphabet order (Leclerc, Math. Z. 246, 2004)."""
    words = {d.unit_vec(i): (i,) for i in d.vertices}
    for gamma in sorted(positive_roots(d), key=sum):
        if gamma in words:
            continue
        words[gamma] = max(
            (
                words[b1] + words[b2]
                for b1 in words
                if (b2 := tuple(g - b for g, b in zip(gamma, b1))) in words
                and _reversed(words[b1]) < _reversed(words[b2])
            ),
            key=_reversed,
        )
    return words


@pytest.mark.parametrize(
    "spec, max_height",
    [
        ("1->2", 2),
        ("1->2,2->3", 3),
        ("1->2,3->2", 3),
        ("1->3,3->2", 3),
        ("2->1,2->3,2->4", 5),
        ("1->2,2->3,3->4", 4),
        ("1->2,2->3,3->4,3->5", 6),
    ],
    ids=["A2", "A3", "A3-sink", "A3-relabelled", "D4", "A4", "D5"],
)
def test_root_words_are_the_lyndon_words_of_the_greedy_bases(spec, max_height):
    # weight_basis is the greedy basis; at each positive root its one
    # Lyndon word is the root word of Leclerc's rule
    d = load_datum(load_quiver(spec))
    root_words = _leclerc_root_words(d)
    assert set(positive_roots(d)) == set(root_words)
    for beta in positive_roots(d):
        if sum(beta) <= max_height:
            words = weight_basis(d, beta).basis_words
            assert [w for w in words if _is_lyndon_reversed(w)] == [root_words[beta]]


@pytest.fixture
def cold_bases():
    weight_basis.cache_clear()
    yield
    weight_basis.cache_clear()


def test_a_wrong_weyl_kac_dimension_makes_weight_basis_raise(monkeypatch, cold_bases):
    monkeypatch.setattr(falgebra, "weyl_kac_dim", lambda a, nu: weyl_kac_dim(a, nu) + 1)
    with pytest.raises(RuntimeError, match="Weyl-Kac"):
        weight_basis(A2, (1, 1))


def test_weight_basis_builds_only_the_lower_root_weights(cold_bases):
    # every positive root of D4 lies below the highest root, and no other
    # weight carries a good Lyndon word, so no other basis is built
    d = load_datum(load_quiver("2->1,2->3,2->4"))
    assert weight_basis(d, (1, 2, 1, 1)).dim == weyl_kac_dim(d.cartan, (1, 2, 1, 1))
    assert weight_basis.cache_info().currsize == len(positive_roots(d)) == 12


def test_missing_lyndon_candidates_make_weight_basis_raise(monkeypatch, cold_bases):
    monkeypatch.setattr(falgebra, "_lyndon_candidates", lambda good, nu: [])
    assert weight_basis(A2, (1, 0)).basis_words == ((1,),)
    with pytest.raises(RuntimeError, match="Weyl-Kac"):
        weight_basis(A2, (1, 1))


@pytest.mark.parametrize(
    "spec, max_height",
    [("1->2,1->2", 6), ("1->2,1->2,1->2", 5), ("1->2,2->3,1->3", 5)],
    ids=["Kronecker", "3-Kronecker", "affine-A2"],
)
def test_weight_basis_is_the_greedy_basis_off_dynkin_data(spec, max_height):
    d = load_datum(load_quiver(spec))
    assert positive_roots(d) is None
    for nu in _weights(d, max_height):
        assert weight_basis(d, nu) == greedy_basis(d, nu)


def test_f_memos_bounded_and_transparent():
    memos = [
        obj
        for obj in vars(falgebra).values()
        if hasattr(obj, "cache_info") and obj.__module__ == "qhall.falgebra"
    ]
    named = {weight_basis, _normal_form_word, sub_if_basis, falgebra._decomposition}
    assert named <= set(memos)
    for memo in memos:
        assert memo.cache_parameters()["maxsize"] is not None
    assert Path(falgebra.__file__).read_text().count("maxsize=None") == 0
    nu = (1, 2, 1)
    x = normal_form(free_word(A3, 2, 1, 3, 2) + free_word(A3, 3, 2, 2, 1).scale(v_pow(2)))

    def results():
        return (
            weight_basis(A3, nu),
            [normal_form(FreeElement.word(A3, w)) for w in words_of_weight(A3, nu)],
            [sub_if_basis(A3, i, nu, s) for i in A3.vertices for s in ("left", "right")],
            [i_decompose(i, x) for i in A3.vertices],
            [i_decompose_right(i, x) for i in A3.vertices],
        )

    before = results()
    for memo in memos:
        memo.cache_clear()
        assert memo.cache_info().currsize == 0
    assert results() == before

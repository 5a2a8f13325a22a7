from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import isqrt

import pytest

from qhall import hall
from qhall.cartan import (
    A2,
    A3,
    dims_upto,
    is_sink,
    is_source,
    kostant_count,
    load_datum,
    quiver_from_shorthand,
    sigma_i,
)
from qhall.hall import (
    BudgetExceeded,
    HallElement,
    QuiverRep,
    bgp_reflect,
    e_v_dimension,
    field,
    gl_order,
    graded_subreps,
    group_order,
    hall_number,
    hall_product,
    hall_word,
    hom_dim,
    iso_classes,
    orbit_of,
    specialize_compare,
    stratum_counts,
    stratum_index,
    sub_quotient_reps,
    subspace_count,
)
from qhall.lincomb import bilinear

from helpers import inverse

Q = A2.quiver
QA3 = A3.quiver


def rep(dims, mats, q=2, quiver=Q):
    return QuiverRep(quiver, q, dims, mats)


def all_points(quiver, q, dims):
    """Every point of the representation space, once the default budget
    is met."""
    hall.require_budget(quiver, q, dims, hall.DEFAULT_BUDGET)
    return hall._points(quiver, q, dims)


def canonical_point(quiver, q, dims, point):
    """The least point of the orbit of a point: on Dynkin data the least
    point of its class key from the walk of `iso_classes`, otherwise by
    orbit search."""
    if hall._bricks(quiver, q) is None:
        return min(orbit_of(quiver, q, dims, point))
    key = hall.class_key(QuiverRep(quiver, q, dims, point))
    return hall._least_points(quiver, q, dims)[key]


P2 = rep((1, 1), (((1,),),))
Z2 = rep((1, 1), (((0,),),))
S1 = rep((1, 0), ((),))
S2 = rep((0, 1), (((),),))


def test_field_construction():
    for q in (2, 3, 4, 5, 8, 9, 16, 25):
        F = field(q)
        assert F.q == q
        # Fermat: the multiplicative group has order q-1
        for a in range(1, q):
            acc, n = a, 1
            while acc != 1:
                acc = F.mul(acc, a)
                n += 1
            assert (q - 1) % n == 0


def test_field_rejects_non_prime_powers():
    with pytest.raises(ValueError):
        field(6)
    with pytest.raises(ValueError):
        field(12)


def test_iso_classes_small():
    classes = iso_classes(Q, 2, (1, 1))
    assert len(classes) == 2
    assert sorted(size for _r, size in classes) == [1, 1]
    assert len(iso_classes(Q, 3, (1, 0))) == 1
    assert len(iso_classes(Q, 2, (0, 0))) == 1
    # dim (2,1) at q=2: zero map and rank-one map
    assert len(iso_classes(Q, 2, (2, 1))) == 2


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        iso_classes(Q, 4, (2, 2), budget=10)


def test_orbit_stabilizer():
    for q in (2, 3, 4):
        for dims in dims_upto((2, 2)):
            classes = iso_classes(Q, q, dims)
            assert sum(s for _r, s in classes) == q ** e_v_dimension(Q, dims)
            order = group_order(q, dims)
            for _r, s in classes:
                assert order % s == 0
    assert gl_order(2, 2) == 6
    assert gl_order(4, 2) == 180


def test_hall_numbers():
    assert hall_number(P2, S1, S2) == 1
    assert hall_number(Z2, S1, S2) == 1
    assert hall_number(P2, S2, S1) == 0
    with pytest.raises(ValueError):
        hall_number(P2, S1, S1)


def test_hall_product_examples():
    q = 4
    u1 = HallElement.simple(Q, q, 1)
    u2 = HallElement.simple(Q, q, 2)
    p = hall_product(u1, u2)
    zero_class = hall.class_key(rep((1, 1), (((0,),),), q))
    nonzero_class = hall.class_key(rep((1, 1), (((1,),),), q))
    assert p.terms == {
        zero_class: Fraction(1, 2),
        nonzero_class: Fraction(1, 2),
    }
    p = hall_product(u2, u1)
    assert p.terms == {zero_class: Fraction(1)}
    unit = HallElement.unit(Q, q)
    assert hall_product(unit, u1) == u1
    with pytest.raises(ValueError, match="perfect-square"):
        hall_product(HallElement.simple(Q, 3, 1), HallElement.simple(Q, 3, 2))


def _reference_hall_product(a, b):
    """The twisted product by a loop over every class of the product's
    dimension vector, looking up each Hall number: no product memo."""
    quiver, q = a.quiver, a.q

    def image(key_a, key_b):
        dims_a, dims_b = key_a[0], key_b[0]
        dims_m = tuple(x + y for x, y in zip(dims_a, dims_b))
        twist = Fraction(isqrt(q)) ** quiver.euler_form(dims_a, dims_b)
        for key_m in hall._class_table(quiver, q, dims_m):
            g = hall._hall_tally(quiver, q, key_m, dims_b).get((key_a, key_b), 0)
            if g:
                yield key_m, twist * g

    return a._like(bilinear(a.terms.items(), b.terms.items(), image))


def _class_elements(quiver, q, bound):
    """One single-class element per class of every dimension vector up
    to the bound."""
    return [
        HallElement(quiver, q, {key: Fraction(1)})
        for dims in dims_upto(bound)
        for key in hall._class_table(quiver, q, dims)
    ]


@pytest.mark.parametrize(
    "spec, bound",
    [("1->2,2->3", (2, 2, 1)), ("1->2,3->2", (2, 2, 1)), ("1->2,1->2", (1, 2))],
)
def test_class_products_match_the_per_call_loop(spec, bound):
    quiver, q = quiver_from_shorthand(spec), 4
    elements = _class_elements(quiver, q, bound)
    pairs = 0
    for x in elements:
        dims_x = next(iter(x.terms))[0]
        for y in elements:
            dims_y = next(iter(y.terms))[0]
            if any(a + b > c for a, b, c in zip(dims_x, dims_y, bound)):
                continue
            assert hall_product(x, y) == _reference_hall_product(x, y), (x, y)
            pairs += 1
    assert pairs > len(elements)
    # a sum of classes with distinct coefficients meets many pairs at once
    mixed = sum(
        (e.scale(Fraction(k + 1, 3)) for k, e in enumerate(elements[1:6])),
        HallElement(quiver, q),
    )
    assert hall_product(mixed, mixed) == _reference_hall_product(mixed, mixed)


def test_class_product_memo_bounded_and_transparent():
    memo = hall._class_product
    assert memo.__module__ == "qhall.hall"
    assert memo.cache_parameters()["maxsize"] is not None
    q = 4
    u = [HallElement.simple(QA3, q, i) for i in (1, 2, 3)]
    x = hall_product(hall_product(u[0], u[1]), u[2])
    words = [(x, u[0]), (u[1], x), (x, x), (u[2], u[2])]
    first = [hall_product(a, b) for a, b in words]
    before = memo.cache_info()
    assert [hall_product(a, b) for a, b in words] == first
    after = memo.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    memo.cache_clear()
    assert [hall_product(a, b) for a, b in words] == first
    assert memo.cache_info().currsize > 0


def test_class_product_keeps_the_budget():
    # a product over the budget raises, memoized at a larger budget or not
    u1 = HallElement.simple(Q, 4, 1)
    two = hall_product(u1, u1)
    assert hall_product(two, two, budget=10**6) == _reference_hall_product(two, two)
    with pytest.raises(BudgetExceeded):
        hall_product(two, two, budget=4)


def test_composition_algebra_serre():
    q = 4
    u1 = HallElement.simple(Q, q, 1)
    u2 = HallElement.simple(Q, q, 2)
    two = hall_product(u1, u1)
    lhs = (
        hall_product(two, u2)
        + hall_product(u2, two)
        + hall_product(hall_product(u1, u2), u1).scale(Fraction(-5, 2))
    )
    assert lhs.is_zero()


def test_stratum_index():
    assert stratum_index(P2, 2) == 0
    assert stratum_index(Z2, 2) == 1
    assert stratum_index(S1, 2) == 0
    assert stratum_index(Z2, 1) == 1
    with pytest.raises(ValueError):
        stratum_index(rep((1, 1, 1), (((1,),), ((1,),)), 2, QA3), 2)


def test_stratum_counts():
    assert stratum_counts(Q, (1, 1), 2, 2) == [1, 1]
    assert stratum_counts(Q, (1, 1), 3, 2) == [2, 1]
    assert stratum_counts(Q, (0, 0), 2, 2) == [1]
    for q in (2, 3, 4):
        for dims in dims_upto((2, 2)):
            for vertex in (1, 2):
                counts = stratum_counts(Q, dims, q, vertex)
                assert sum(counts) == q ** e_v_dimension(Q, dims)


def test_bgp_reflect_examples():
    y = bgp_reflect(2, P2)
    assert y.dims == (1, 0)
    assert y.quiver.arrows == ((2, 1),)
    y2 = bgp_reflect(2, S1)
    assert y2.dims == (1, 1)
    assert y2.mats == (((1,),),)
    with pytest.raises(ValueError):
        bgp_reflect(2, Z2)
    zero = rep((0, 0), ((),))
    # a zero-dimensional representation reflects to itself
    z = bgp_reflect(2, rep((0, 0), (tuple(),)))
    assert z.dims == (0, 0)


def test_bgp_bijection_on_stratum_zero():
    for q in (2, 3):
        for dims in dims_upto((2, 2)):
            zero_classes = [
                r
                for r, _s in iso_classes(Q, q, dims)
                if stratum_index(QuiverRep(Q, q, dims, r), 2) == 0
            ]
            target = A2.reflect_dim(2, dims)
            if any(x < 0 for x in target):
                assert not zero_classes
                continue
            images = set()
            rev = sigma_i(2, Q)
            for r in zero_classes:
                y = bgp_reflect(2, QuiverRep(Q, q, dims, r))
                assert y.dims == target
                assert stratum_index(y, 2) == 0
                images.add(canonical_point(rev, q, target, y.mats))
            assert len(images) == len(zero_classes)
            other = [
                r
                for r, _s in iso_classes(rev, q, target)
                if stratum_index(QuiverRep(rev, q, target, r), 2) == 0
            ]
            assert len(other) == len(images)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "spec, bound",
    [
        ("1->2", (2, 2)),
        ("2->1", (2, 2)),
        ("1->2,2->3", (2, 2, 2)),
        ("2->1,2->3", (2, 2, 2)),
        ("1->2,3->2", (2, 2, 2)),
        ("1->2,1->3,1->4", (1, 2, 1, 1)),
    ],
)
def test_bgp_source_round_trip(spec, bound, q):
    """At a source, the reflection of every stratum-0 class lands on the
    open stratum of sigma_i Q, and reflecting back at the sink returns it."""
    quiver = quiver_from_shorthand(spec)
    datum = load_datum(quiver)
    cases = 0
    for i in (v for v in quiver.vertices if is_source(v, quiver)):
        for dims in dims_upto(bound):
            for r, _s in iso_classes(quiver, q, dims):
                x = QuiverRep(quiver, q, dims, r)
                if stratum_index(x, i) != 0:
                    continue
                y = bgp_reflect(i, x)
                assert y.quiver == sigma_i(i, quiver)
                assert y.dims == datum.reflect_dim(i, dims)
                assert stratum_index(y, i) == 0
                z = bgp_reflect(i, y)
                assert (z.quiver, z.dims) == (quiver, dims)
                assert canonical_point(quiver, q, dims, z.mats) == r, (i, x, y, z)
                cases += 1
    assert cases


# the quivers and bounds the strata and subrepresentation tests walk
SMALL_QUIVERS = [
    ("1->2", (2, 2)),
    ("2->1", (2, 2)),
    ("1->2,2->3", (1, 2, 1)),
    ("1->2,3->2", (1, 2, 1)),
]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("spec, bound", SMALL_QUIVERS)
def test_stratum_counts_match_pointwise_tally(spec, bound, q):
    quiver = quiver_from_shorthand(spec)
    for vertex in quiver.vertices:
        if not (is_sink(vertex, quiver) or is_source(vertex, quiver)):
            continue
        ni = quiver.vertices.index(vertex)
        for dims in dims_upto(bound):
            tally = [0] * (dims[ni] + 1)
            for p in all_points(quiver, q, dims):
                tally[stratum_index(QuiverRep(quiver, q, dims, p), vertex)] += 1
            assert stratum_counts(quiver, dims, q, vertex) == tally, (vertex, dims)



@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "spec, bound",
    [
        ("1->2", (2, 2)),
        ("2->1", (2, 2)),
        ("1->2,2->3", (2, 2, 1)),
        ("2->1,2->3", (2, 2, 1)),
    ],
)
def test_source_stratum_is_the_outgoing_kernel(spec, bound, q):
    """At a source, the stratum index of every point is dim V_i minus the
    rank of the outgoing matrices stacked on top of each other."""
    quiver = quiver_from_shorthand(spec)
    F = field(q)
    for vertex in (v for v in quiver.vertices if is_source(v, quiver)):
        ni = quiver.vertices.index(vertex)
        for dims in dims_upto(bound):
            for p in all_points(quiver, q, dims):
                stacked = [
                    row
                    for (s, _t), m in zip(quiver.arrows, p)
                    if s == vertex
                    for row in m
                ]
                want = dims[ni] - hall.mat_rank(F, stacked)
                x = QuiverRep(quiver, q, dims, p)
                assert stratum_index(x, vertex) == want, (vertex, dims, p)

def _span(q, n, gens):
    """Every F_q-combination of the given vectors of F_q^n (q prime)."""
    return frozenset(
        tuple(sum(c * g[j] for c, g in zip(cs, gens)) % q for j in range(n))
        for cs in product(range(q), repeat=len(gens))
    )


@cache
def _spans(q, n, k):
    """The k-dimensional subspaces of F_q^n, found by spanning every
    k-tuple of vectors."""
    vectors = list(product(range(q), repeat=n))
    return {
        span
        for gens in product(vectors, repeat=k)
        if len(span := _span(q, n, gens)) == q ** k
    }


def _image(q, mat, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) % q for row in mat)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("spec, bound", SMALL_QUIVERS)
def test_graded_subreps_match_stable_spans(spec, bound, q):
    quiver = quiver_from_shorthand(spec)
    idx = {v: k for k, v in enumerate(quiver.vertices)}
    for dims in dims_upto(bound):
        for r, _s in iso_classes(quiver, q, dims):
            M = QuiverRep(quiver, q, dims, r)
            for sub_dims in dims_upto(dims):
                choices = [_spans(q, n, k) for n, k in zip(dims, sub_dims)]
                stable = {
                    us
                    for us in product(*choices)
                    if all(
                        _image(q, m, u) in us[idx[t]]
                        for (s, t), m in zip(quiver.arrows, r)
                        for u in us[idx[s]]
                    )
                }
                got = [
                    tuple(_span(q, n, basis) for n, basis in zip(dims, b))
                    for b in graded_subreps(M, sub_dims)
                ]
                assert len(got) == len(stable), (M, sub_dims)
                assert set(got) == stable, (M, sub_dims)


def test_specialize_compare():
    for nu_a, nu_b in [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 1)), ((2, 0), (0, 1))]:
        report = specialize_compare(Q, nu_a, nu_b, 4)
        assert report and all(lhs == rhs for _w1, _w2, lhs, rhs in report)


def test_specialize_compare_needs_square_q():
    with pytest.raises(ValueError):
        specialize_compare(Q, (1, 0), (0, 1), 3)


def test_square_q_must_be_a_field_size():
    # q = 1 = 1^2 would make the budget checks divide by q^k - 1 = 0
    for call in (
        lambda: hall_word(Q, 1, (1, 2)),
        lambda: specialize_compare(Q, (1, 0), (0, 1), 1),
    ):
        with pytest.raises(ValueError, match="field size must be between 2 and 256"):
            call()


def test_hall_word_unit():
    u = hall_word(Q, 4, ())
    assert u == HallElement.unit(Q, 4)


def test_orientation_independence_of_composition_constants():
    rev = quiver_from_shorthand("2->1")
    for nu_a, nu_b in [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 1))]:
        for quiver in (Q, rev):
            report = specialize_compare(quiver, nu_a, nu_b, 4)
            assert all(lhs == rhs for _w1, _w2, lhs, rhs in report)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "spec, bound",
    [
        ("1->2", (2, 2)),
        ("2->1", (2, 2)),
        ("1->2,2->3", (2, 2, 1)),
        ("1->2,3->2", (2, 2, 1)),
    ],
)
def test_hall_numbers_match_subrep_tally(spec, bound, q):
    """Every Hall number F^M_{N,L} equals a count of the subreps of M of
    dimension dims(L), each keyed by the least points of the orbits of its
    quotient and sub; and over all (N, L) the numbers add up to that many
    subreps."""
    quiver = quiver_from_shorthand(spec)

    def least(dims, mats):
        return min(orbit_of(quiver, q, dims, mats))

    for dims in dims_upto(bound):
        for point, _size in iso_classes(quiver, q, dims):
            M = QuiverRep(quiver, q, dims, point)
            for sub_dims in dims_upto(dims):
                quo_dims = tuple(a - b for a, b in zip(dims, sub_dims))
                tally = Counter()
                for basis in graded_subreps(M, sub_dims):
                    sub, quo = sub_quotient_reps(M, basis)
                    tally[least(quo_dims, quo.mats), least(sub_dims, sub.mats)] += 1
                total = 0
                for N, _s in iso_classes(quiver, q, quo_dims):
                    for L, _s in iso_classes(quiver, q, sub_dims):
                        got = hall_number(
                            M,
                            QuiverRep(quiver, q, quo_dims, N),
                            QuiverRep(quiver, q, sub_dims, L),
                        )
                        assert got == tally[N, L], (dims, point, N, L)
                        total += got
                assert total == sum(tally.values())


def _sub_quotient_by_inverse(M, sub_basis):
    """The sub and the quotient by inverting each vertex's basis: the rref
    rows, completed by the unit vectors off their pivot columns."""
    F = field(M.q)
    quiver = M.quiver
    idx = {v: i for i, v in enumerate(quiver.vertices)}
    sub_dims = tuple(len(b) for b in sub_basis)
    quo_dims = tuple(n - k for n, k in zip(M.dims, sub_dims))
    full = []
    for n, b in zip(M.dims, sub_basis):
        pivots = {next(c for c, x in enumerate(row) if x) for row in b}
        units = [
            tuple(int(c == k) for c in range(n)) for k in range(n) if k not in pivots
        ]
        full.append((*b, *units))
    inv = [inverse(F, tuple(zip(*basis))) for basis in full]
    sub_mats, quo_mats = [], []
    for (s, t), m in zip(quiver.arrows, M.mats):
        si, ti = idx[s], idx[t]
        ks, kt = sub_dims[si], sub_dims[ti]
        cols = [
            hall._apply_mat(F, inv[ti], hall._apply_mat(F, m, full[si][r]))
            for r in range(M.dims[si])
        ]
        sub_mats.append(tuple(tuple(cols[c][r] for c in range(ks)) for r in range(kt)))
        quo_mats.append(
            tuple(
                tuple(cols[ks + c][kt + r] for c in range(M.dims[si] - ks))
                for r in range(M.dims[ti] - kt)
            )
        )
    return (
        QuiverRep(quiver, M.q, sub_dims, tuple(sub_mats)),
        QuiverRep(quiver, M.q, quo_dims, tuple(quo_mats)),
    )


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize(
    "spec, bound",
    [
        ("1->2", (2, 2)),
        ("2->1", (2, 2)),
        ("1->2,2->3", (2, 2, 1)),
        ("1->2,3->2", (2, 2, 1)),
        ("2->1,2->3,2->4", (1, 2, 1, 1)),
        ("1->2,1->2", (1, 2)),
    ],
)
def test_pivot_coordinates_match_the_inverse(spec, bound, q):
    """The sub and quotient read off the rref pivots equal those found by
    inverting the completed basis, for every graded subrep of every class
    point; q = 3 tells a sign apart and q = 4 is not a prime field."""
    quiver = quiver_from_shorthand(spec)
    for dims in dims_upto(bound):
        for point, _size in hall.class_points(quiver, q, dims):
            M = QuiverRep(quiver, q, dims, point)
            for sub_dims in dims_upto(dims):
                for basis in graded_subreps(M, sub_dims):
                    want = _sub_quotient_by_inverse(M, basis)
                    assert sub_quotient_reps(M, basis) == want, (dims, point, basis)


# ---------------------------------------------------------------------------
# the invariant route against the orbit route


def _orbit_canon(quiver, q, dims):
    """Every point of E_dims mapped to the least point of its orbit."""
    canon = {}
    for p in all_points(quiver, q, dims):
        if p not in canon:
            orb = orbit_of(quiver, q, dims, p)
            canon.update(dict.fromkeys(orb, min(orb)))
    return canon


def _assert_routes_agree(quiver, q, bound, hall_bound, max_points=4096):
    """Classes and canonical points on every dims up to bound, and Hall
    numbers on every dims up to hall_bound, with at most max_points
    points."""
    canon = {}
    for dims in dims_upto(bound):
        if q ** e_v_dimension(quiver, dims) > max_points:
            continue
        canon[dims] = _orbit_canon(quiver, q, dims)
        sizes = Counter(canon[dims].values())
        assert iso_classes(quiver, q, dims) == tuple(sorted(sizes.items()))
        for p, least in canon[dims].items():
            assert canonical_point(quiver, q, dims, p) == least
    for dims, points in canon.items():
        if any(d > b for d, b in zip(dims, hall_bound)):
            continue
        for M in {QuiverRep(quiver, q, dims, least) for least in points.values()}:
            for sub_dims in dims_upto(dims):
                quo_dims = tuple(a - b for a, b in zip(dims, sub_dims))
                tally = Counter()
                for basis in graded_subreps(M, sub_dims):
                    sub, quo = sub_quotient_reps(M, basis)
                    tally[canon[sub_dims][sub.mats], canon[quo_dims][quo.mats]] += 1
                for L, _s in iso_classes(quiver, q, sub_dims):
                    for N, _s in iso_classes(quiver, q, quo_dims):
                        got = hall_number(
                            M,
                            QuiverRep(quiver, q, quo_dims, N),
                            QuiverRep(quiver, q, sub_dims, L),
                        )
                        assert got == tally[L, N], (quiver, q, dims, M, N, L)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize(
    "spec, bound, hall_bound",
    [
        ("1->2", (2, 2), (2, 2)),
        ("2->1", (2, 2), (2, 2)),
        ("1->2,2->3", (2, 2, 1), (2, 2, 1)),
        # the orientation hall-bgp-bijection reflects A3 into: it enumerates
        # classes there up to (2, 2, 2) and Hall numbers up to (1, 1, 1)
        ("1->2,3->2", (2, 2, 2), (1, 1, 1)),
    ],
)
def test_invariant_route_matches_orbit_route(spec, bound, hall_bound, q):
    _assert_routes_agree(quiver_from_shorthand(spec), q, bound, hall_bound)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_invariant_route_matches_orbit_route_d4(q):
    dims = (1, 1, 1, 1)
    _assert_routes_agree(quiver_from_shorthand("1->2,3->2,4->2"), q, dims, dims)


def _walk(quiver, q, dims):
    """Every point of E_dims keyed by its class: the least point and the
    number of points of each key, in the order of the points."""
    least, count = {}, Counter()
    for p in all_points(quiver, q, dims):
        key = hall.class_key(QuiverRep(quiver, q, dims, p))
        least.setdefault(key, p)
        count[key] += 1
    return least, count


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize(
    "spec, bound",
    [
        ("1->2,2->3", (2, 2, 1)),
        ("2->1,2->3,2->4", (1, 2, 1, 1)),
        ("1->2,1->3,1->4", (2, 1, 1, 1)),
        ("1->2,3->2,4->2", (1, 2, 1, 1)),
    ],
)
def test_kostant_table_matches_the_walk(spec, bound, q):
    """The classes built from Kostant partitions are the classes a walk
    over every point finds, each with as many points as its orbit size,
    and each table point lies in its class."""
    quiver = quiver_from_shorthand(spec)
    assert hall._bricks(quiver, q) is not None
    for dims in dims_upto(bound):
        table = hall._class_table(quiver, q, dims)
        least, count = _walk(quiver, q, dims)
        assert table.keys() == least.keys(), dims
        for key, (point, size) in table.items():
            assert size == count[key], (dims, key)
            assert canonical_point(quiver, q, dims, point) == least[key], (dims, key)
        assert iso_classes(quiver, q, dims) == tuple(
            (p, count[key]) for key, p in least.items()
        )


@pytest.mark.parametrize("q", [2, 3])
def test_kronecker_takes_the_orbit_route(q):
    kronecker = quiver_from_shorthand("1->2,1->2")
    classes = iso_classes(kronecker, q, (1, 1))
    # the zero map and one class per point of the projective line
    assert len(classes) == q + 2
    assert sorted(size for _r, size in classes) == [1] + [q - 1] * (q + 1)
    for p in all_points(kronecker, q, (1, 1)):
        least = min(orbit_of(kronecker, q, (1, 1), p))
        assert canonical_point(kronecker, q, (1, 1), p) == least
    # the class table the Hall checks read is the orbit table
    for dims in dims_upto((2, 2)):
        orbits = tuple(sorted(Counter(_orbit_canon(kronecker, q, dims).values()).items()))
        assert hall.class_points(kronecker, q, dims) == orbits
        assert iso_classes(kronecker, q, dims) == orbits


def test_one_bounded_class_key_memo_serves_both_routes():
    memo = hall._point_key
    assert memo.__module__ == "qhall.hall"
    assert memo.cache_parameters()["maxsize"] is not None
    assert not hasattr(hall, "_term_key")
    q = 4
    u1, u3 = HallElement.simple(QA3, q, 1), HallElement.simple(QA3, q, 3)
    x = hall_product(hall_product(u1, HallElement.simple(QA3, q, 2)), u3)
    first = hall_product(x, u1)
    # the terms are class keys already, so a memoized product keys nothing
    before = memo.cache_info()
    assert hall_product(x, u1) == first
    assert memo.cache_info() == before
    # an orbit-route key is searched once, then read from the memo
    kronecker = quiver_from_shorthand("1->2,1->2")
    y = QuiverRep(kronecker, 3, (1, 2), (((1,), (2,)), ((0,), (1,))))
    key = hall.class_key(y)
    before = memo.cache_info()
    assert hall.class_key(y) == key == ((1, 2), min(orbit_of(kronecker, 3, (1, 2), y.mats)))
    after = memo.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_dynkin_class_keys_do_not_depend_on_the_budget():
    # the Dynkin key reads Hom dimensions, never the budget, so A3 `verify
    # hall` keys each point once whether the session's budget is the
    # default or larger
    from qhall import verify

    memos = [m for m in vars(hall).values() if hasattr(m, "cache_clear")]

    def run(budget):
        for memo in memos:
            memo.cache_clear()
        results = verify.run_suite(verify.Session(A3, budget=budget), "hall")
        statuses = [(r.name, r.status, r.detail) for r in results]
        return statuses, hall._point_key.cache_info().currsize

    large = run(20_000_000)
    default = run(hall.DEFAULT_BUDGET)
    assert large == default
    assert {status for _name, status, _detail in default[0]} == {"pass"}


def _searched_bricks(quiver, q, roots):
    """Per root, the least point of E_beta whose endomorphisms are the
    scalars, found by walking the points in order: a reference that uses
    no reflection functor."""
    out = []
    for root in roots:
        points = (QuiverRep(quiver, q, root, p) for p in all_points(quiver, q, root))
        out.append(next(x for x in points if hom_dim(x, x) == 1))
    return out


# A3 in every orientation, A5, D4 with its centre a source, a sink and
# neither, at q = 2, 3 and 4; D5 at q = 2 and 3, since its search takes
# seconds per orientation at q = 4
SEARCHED_BRICK_CASES = [
    *(
        (spec, q)
        for spec in (
            "1->2,2->3",
            "1->2,3->2",
            "2->1,2->3",
            "1->3,3->2",
            "1->2,2->3,3->4,4->5",
            "2->1,2->3,2->4",
            "1->2,3->2,4->2",
            "1->2,2->3,2->4",
        )
        for q in (2, 3, 4)
    ),
    *(
        (spec, q)
        for spec in ("1->2,2->3,3->4,3->5", "5->3,4->3,3->2,2->1")
        for q in (2, 3)
    ),
]


@pytest.mark.parametrize("spec, q", SEARCHED_BRICK_CASES)
def test_reflected_bricks_match_the_searched_bricks(spec, q):
    """Each brick built by reflection functors is isomorphic to the brick
    a search of E_beta finds: both have the same class key, and the two
    families have the same Hom matrix."""
    quiver = quiver_from_shorthand(spec)
    bricks = hall._bricks(quiver, q)
    assert sorted(bricks.roots) == list(hall.positive_roots(load_datum(quiver)))
    searched = _searched_bricks(quiver, q, bricks.roots)
    hom = tuple(tuple(hom_dim(a, b) for b in searched) for a in searched)
    assert hom == bricks.hom
    for x, y in zip(bricks.reps, searched):
        assert x.dims == y.dims and hom_dim(x, x) == 1, x
        assert bricks.key(x) == bricks.key(y), (x, y)
        assert [hom_dim(b, x) for b in searched] == [hom_dim(b, y) for b in searched]


def test_e6_bricks_build_and_tables_cover_the_points():
    # a search of E_beta did not end here: the largest root space has
    # 2^22 points at q = 2
    e6 = quiver_from_shorthand("1->2,2->3,3->4,4->5,3->6")
    q = 2
    roots = hall.positive_roots(load_datum(e6))
    bricks = hall._bricks(e6, q)
    assert len(roots) == 36 and sorted(bricks.roots) == list(roots)
    for x, root in zip(bricks.reps, bricks.roots):
        assert x.dims == root and hom_dim(x, x) == 1, x
    for dims in [(1, 1, 1, 1, 1, 1), (0, 1, 2, 1, 0, 1), (1, 1, 2, 1, 1, 1)]:
        table = hall._class_table(e6, q, dims)
        assert len(table) == kostant_count(roots, dims), dims
        sizes = [size for _point, size in table.values()]
        assert sum(sizes) == q ** e_v_dimension(e6, dims), dims
        # every point's key is a key of the table, met as often as its size
        _least, count = _walk(e6, q, dims)
        assert count == {key: size for key, (_p, size) in table.items()}, dims


@pytest.mark.parametrize(
    "n, q", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
)
def test_orbit_of_the_identity_is_the_general_linear_group(n, q):
    """In 1->2 at dims (n, n) the orbit of the identity matrix is GL_n(F_q),
    so the generators reach every element of the group."""
    identity = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    assert len(orbit_of(Q, q, (n, n), (identity,))) == gl_order(q, n)

def test_hom_dimensions():
    assert hom_dim(P2, P2) == 1
    assert hom_dim(S2, P2) == 1
    assert hom_dim(P2, S2) == 0
    assert hom_dim(P2, S1) == 1
    assert hom_dim(Z2, Z2) == 2


def test_iso_classes_raise_below_the_kostant_count(monkeypatch):
    monkeypatch.setattr(hall, "kostant_count", lambda roots, nu: 3)
    hall._least_points.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="Kostant"):
            iso_classes(Q, 2, (1, 1))
    finally:
        hall._least_points.cache_clear()


def test_orbit_search_budget():
    with pytest.raises(BudgetExceeded):
        orbit_of(Q, 4, (2, 2), (((0, 0), (0, 0)),), budget=10)


def test_graded_subreps_budget():
    M = rep((3, 0), ((),))
    assert subspace_count(2, 3, 1) == 7
    assert len(list(graded_subreps(M, (1, 0), budget=7))) == 7
    with pytest.raises(BudgetExceeded):
        next(graded_subreps(M, (1, 0), budget=6))


def _zero_rep(quiver, q, dims):
    return QuiverRep(quiver, q, dims, hall._zero_point(quiver, dims))


def test_hall_number_reads_a_budget_above_the_default():
    # keying M searches the orbit of a point in a space of 2^32 points,
    # past the default budget but within this one
    kronecker, q = quiver_from_shorthand("1->2,1->2"), 2
    M, N, L = (_zero_rep(kronecker, q, dims) for dims in [(4, 4), (3, 4), (1, 0)])
    assert hall_number(M, N, L, budget=2**33) == subspace_count(q, 4, 1)


def test_hall_number_checks_its_orbit_searches():
    # 9 graded subspaces, but keying M, its quotients and subs searches
    # orbits in a space of 2^8 points
    kronecker, q = quiver_from_shorthand("1->2,1->2"), 2
    M, N, L = (_zero_rep(kronecker, q, dims) for dims in [(2, 2), (1, 1), (1, 1)])
    with pytest.raises(BudgetExceeded, match="needs about 256 points"):
        hall_number(M, N, L, budget=100)


def test_no_memo_takes_a_budget(qhall_memos):
    import inspect

    for name, memo in qhall_memos.items():
        params = inspect.signature(memo.__wrapped__).parameters
        assert "budget" not in params, name
    assert "hall._hall_word" in qhall_memos and "hall._class_table" in qhall_memos

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qhall.cartan import (
    A2,
    A3,
    Quiver,
    dims_of_height,
    dims_upto,
    is_sink,
    is_source,
    kostant_count,
    load_datum,
    load_quiver,
    positive_roots,
    quiver_from_shorthand,
    sigma_E,
    sigma_i,
    weyl_kac_dim,
)
from qhall.falgebra import weight_basis
from qhall.verify import Session


def test_cartan_matrix_single_arrow():
    assert A2.cartan == ((2, -1), (-1, 2))


def test_cartan_matrix_no_arrows():
    d = load_datum(Quiver((1, 2), ()))
    assert d.cartan == ((2, 0), (0, 2))


def test_cartan_matrix_kronecker():
    d = load_datum(quiver_from_shorthand("1->2,1->2"))
    assert d.cartan == ((2, -2), (-2, 2))


def test_loops_rejected():
    with pytest.raises(ValueError):
        Quiver((1,), ((1, 1),))


def test_sym_form():
    assert A2.sym_form((1, 0), (1, 0)) == 2
    assert A2.sym_form((1, 0), (0, 1)) == -1
    assert A2.sym_form((1, 1), (1, 1)) == 2


def test_alpha_eval():
    assert A2.alpha_eval(1, (1, 0)) == 2
    assert A2.alpha_eval(2, (1, 0)) == -1
    assert A2.alpha_eval(1, (1, 1)) == 1


def test_reflect_dim():
    assert A2.reflect_dim(2, (1, 1)) == (1, 0)
    assert A2.reflect_dim(1, (0, 1)) == (1, 1)
    assert A2.reflect_dim(1, (0, 0)) == (0, 0)


def test_reflect_coweight():
    assert A2.reflect_coweight(1, (1, 0)) == (-1, 0)
    assert A2.reflect_coweight(1, (0, 1)) == (1, 1)
    assert A2.reflect_coweight(1, (0, 0)) == (0, 0)


def test_sigma():
    q = A2.quiver
    assert sigma_i(2, q).arrows == ((2, 1),)
    assert sigma_E((), q) == q
    assert sigma_i(1, sigma_i(1, q)) == q


def test_sink_source_euler():
    q = A2.quiver
    assert is_sink(2, q) and not is_sink(1, q)
    assert is_source(1, q) and not is_source(2, q)
    assert q.euler_form((1, 0), (0, 1)) == -1
    assert q.euler_form((0, 1), (1, 0)) == 0


def test_quiver_loading():
    assert load_quiver("1->2,2->3") == A3.quiver
    assert load_quiver('{"vertices": [1, 2], "arrows": [[1, 2]]}') == A2.quiver


def test_every_orientation_loads_one_datum():
    """A datum is its vertices and Cartan matrix, so the orientations of a
    graph share every symbolic memo; the quiver it was loaded from stays
    readable for the Hall side."""
    rev = load_datum(load_quiver("2->1"))
    assert rev == A2 and hash(rev) == hash(A2) and repr(rev) == repr(A2)
    assert weight_basis(rev, (1, 1)) is weight_basis(A2, (1, 1))
    assert load_datum(load_quiver('{"vertices": [2, 1], "arrows": [[1, 2]]}')) != A2
    q = load_quiver("1->2,2->3")
    assert Session(datum=load_datum(q)).datum.quiver is q


def test_stored_hashes_are_the_dataclass_hashes():
    """Quiver and CartanDatum keep the hash of their field tuple, the value
    a frozen dataclass computes, so set orders and outputs do not move."""
    for d in (A2, A3, load_datum(quiver_from_shorthand("1->2,1->2"))):
        assert hash(d.quiver) == hash((d.quiver.vertices, d.quiver.arrows))
        assert hash(d) == hash((d.vertices, d.cartan))
        assert hash(load_datum(Quiver(d.vertices, d.quiver.arrows))) == hash(d)


small_quivers = st.builds(
    lambda n, pairs: Quiver(
        tuple(range(1, n + 1)),
        tuple((a % n + 1, b % n + 1) for a, b in pairs if a % n != b % n),
    ),
    st.integers(2, 4),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=5),
)


@settings(max_examples=60, deadline=None)
@given(small_quivers, st.integers(0, 30))
def test_orientation_independence_of_cartan(q, bits):
    subset = frozenset(k for k in range(len(q.arrows)) if bits >> k & 1)
    assert load_datum(sigma_E(subset, q)).cartan == load_datum(q).cartan


@settings(max_examples=60, deadline=None)
@given(small_quivers, st.integers(1, 4), st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_reflection_involution(q, vertex_idx, nu_raw):
    d = load_datum(q)
    i = q.vertices[vertex_idx % len(q.vertices)]
    nu = tuple(nu_raw[: d.rank])
    assert d.reflect_dim(i, d.reflect_dim(i, nu)) == nu


@settings(max_examples=60, deadline=None)
@given(small_quivers)
def test_sym_form_is_euler_symmetrization(q):
    d = load_datum(q)
    for a in dims_upto((2,) * d.rank):
        for b in dims_upto((1,) * d.rank):
            assert d.sym_form(a, b) == q.euler_form(a, b) + q.euler_form(b, a)


def test_alpha_on_coroots_is_cartan():
    for d in (A2, A3):
        for i in d.vertices:
            for j in d.vertices:
                assert d.alpha_eval(i, d.unit_vec(j)) == d.a(j, i) == d.a(i, j)


def test_positive_roots_and_kostant_counts():
    roots = positive_roots(A3)
    assert len(roots) == 6 and (1, 1, 1) in roots and (1, 0, 1) not in roots
    d4 = load_datum(quiver_from_shorthand("1->2,3->2,4->2"))
    assert len(positive_roots(d4)) == 12 and (1, 2, 1, 1) in positive_roots(d4)
    # A_21 has 21 * 22 / 2 roots; A2 x A2 is finite though not connected
    path = ",".join(f"{i}->{i + 1}" for i in range(1, 21))
    assert len(positive_roots(load_datum(quiver_from_shorthand(path)))) == 231
    assert len(positive_roots(load_datum(quiver_from_shorthand("1->2,3->4")))) == 6
    # the Kronecker quiver, affine D4 and the 3-cycle are not positive definite
    for spec in ("1->2,1->2", "1->2,3->2,4->2,5->2", "1->2,2->3,3->1"):
        assert positive_roots(load_datum(quiver_from_shorthand(spec))) is None
    assert kostant_count(roots, (0, 0, 0)) == 1
    assert kostant_count(roots, (1, 1, 1)) == 4
    assert kostant_count(positive_roots(A2), (2, 2)) == 3


@pytest.mark.parametrize(
    "spec",
    ["1->2,2->3", "2->1,2->3,2->4", "1->2,2->3,3->4,4->5,3->6"],
    ids=["A3", "D4", "E6"],
)
def test_weyl_kac_dim_is_the_kostant_count_on_dynkin_data(spec):
    d = load_datum(quiver_from_shorthand(spec))
    roots = positive_roots(d)
    for total in range(6):
        for nu in dims_of_height(d.rank, total):
            assert weyl_kac_dim(d.cartan, nu) == kostant_count(roots, nu), nu


def test_weyl_kac_dim_off_dynkin_data():
    # the Kronecker quiver, where no Kostant count exists; these are the
    # dimensions of the greedy bases over every word
    kronecker = load_datum(quiver_from_shorthand("1->2,1->2"))
    assert [weyl_kac_dim(kronecker.cartan, (n, n)) for n in range(4)] == [1, 2, 6, 14]
    assert weyl_kac_dim(kronecker.cartan, (8, 4)) == 51
    # two vertices with no arrow: f is the polynomial ring in two letters
    assert weyl_kac_dim(load_datum(Quiver((1, 2), ())).cartan, (3, 2)) == 1
    assert weyl_kac_dim.cache_parameters()["maxsize"] is not None

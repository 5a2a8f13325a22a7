import importlib.util
import pathlib
from fractions import Fraction

from qhall import verify
from qhall.cartan import CartanDatum, Quiver, load_datum, load_quiver
from qhall.verify import CheckResult, Session

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "run_verify.py"


def _raises():
    return 1 / 0


def test_a_check_that_raises_is_an_error():
    r = verify._run("boom", _raises)
    assert r.status == "error"
    line = _raises.__code__.co_firstlineno + 1
    where = f"test_verify.py:{line} in _raises"
    assert r.detail == f"ZeroDivisionError: division by zero (at {where})"
    assert not r.ok


def test_an_error_names_the_frame_that_raised():
    # the last frame is where the exception was raised, not the check
    d = load_datum(load_quiver("1->2"))
    r = verify._run("bad vertex", verify.fa.FElement.generator, d, 9)
    assert r.status == "error"
    assert r.detail.startswith("ValueError: unknown vertex 9 (at falgebra.py:")
    assert r.detail.endswith(" in generator)")


def test_run_verify_counts_errors_as_failures(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_verify", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA", [("A2", "1->2", ("all",), {})])
    monkeypatch.setattr(
        script,
        "run_suite",
        lambda session, name: [verify._run("boom", _raises), CheckResult("ok", "pass")],
    )
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "1 failed" in out
    assert "ERROR boom: ZeroDivisionError: division by zero" in out


def test_hall_bgp_skips_before_any_enumeration(monkeypatch):
    # the Kronecker quiver with its sink at 2: (2,0) reflects to (2,4),
    # whose 3^16 points at q = 3 pass the default budget
    def enumerated(*_args):
        raise AssertionError("enumerated before the budget was met")

    monkeypatch.setattr(verify.hall, "iso_classes", enumerated)
    monkeypatch.setattr(verify.hall, "class_points", enumerated)
    datum = load_datum(load_quiver("1->2,1->2"))
    s = Session(datum)
    r = verify._run("hall-bgp-bijection", lambda: verify._check_hall_bgp(s))
    assert r.status == "skip"
    assert r.detail.startswith("enumeration needs about 43046721 points")


def test_hall_orientation_check_keeps_the_hall_bound(monkeypatch):
    # on rank > 2 every orientation runs at the hall bound capped at 1
    calls = []
    monkeypatch.setattr(
        verify, "_hall_agreement", lambda d, bound, budget: calls.append(bound)
    )
    s = Session(load_datum(load_quiver("1->2,2->3")), hall_bound=(1, 1, 0))
    verify._check_hall_orientation(s)
    assert calls and all(bound == (1, 1, 0) for bound in calls)


def test_orientation_check_fails_on_an_orientation_dependent_matrix(monkeypatch):
    # a stand-in that counts only the arrows i -> j with i < j, so that
    # reversing 1 -> 2 loses the edge between 1 and 2
    real = verify.load_datum

    def lopsided(quiver):
        kept = tuple((s, t) for s, t in quiver.arrows if s < t)
        d = real(Quiver(quiver.vertices, kept))
        return CartanDatum(d.vertices, d.cartan, quiver)

    s = Session(load_datum(load_quiver("1->2,2->3")))
    monkeypatch.setattr(verify, "load_datum", lopsided)
    r = verify._run("f-orientation-independence", verify._check_f_orientation, s)
    assert r.status == "fail"
    assert r.detail == (
        "Cartan matrix of ((2, 1), (2, 3)): got ((2, 0, 0), (0, 2, -1), (0, -1, 2)), "
        "want ((2, -1, 0), (-1, 2, -1), (0, -1, 2))"
    )


def test_a_wrong_generator_image_fails_with_its_counterexample(monkeypatch):
    # T_1(E2) on A2 is E1*E2 - v^-1*E2*E1; make it off by E2
    d = load_datum(load_quiver("1->2"))
    e2 = verify.ua.UElement.E(d, 2)
    real = verify.sym.ti_apply

    def wrong(i, x):
        image = real(i, x)
        return image + e2 if (i, x) == (1, e2) else image

    monkeypatch.setattr(verify.sym, "ti_apply", wrong)
    r = verify._run("ti-generator-formulas", verify._check_ti_tables, Session(d))
    assert r.status == "fail" and not r.ok
    (key,) = e2.terms
    assert key not in real(1, e2).terms
    assert r.detail == f"T_1(E2): differ at {key}: got 1, want 0"


def test_a_wrong_t_tilde_word_image_fails_with_the_word_and_both_images(monkeypatch):
    # ti-decomposition-route reads the word images directly; make T~_1(F2)
    # on A2 off by F2
    d = load_datum(load_quiver("1->2"))
    f2 = verify.ua.UElement.F(d, 2)
    real = verify.sym._t_tilde_word

    def wrong(datum, i, sign, word):
        image = real(datum, i, sign, word)
        return image + f2 if (i, sign, word) == (1, "minus", (2,)) else image

    monkeypatch.setattr(verify.sym, "_t_tilde_word", wrong)
    r = verify._run("ti-decomposition-route", verify._check_ti_ttilde, Session(d))
    assert r.status == "fail"
    (key,) = f2.terms
    assert key not in verify.sym.ti_apply(1, f2).terms
    assert r.detail == f"T~_1 vs T_1 on F(2,): differ at {key}: got 1, want 0"


def test_a_scaled_symmetry_fails_the_braid_row_with_both_sides(monkeypatch):
    # T_3 scaled by v on A3: T_2 T_3 T_2 and T_3 T_2 T_3 differ by a power of v
    d = load_datum(load_quiver("1->2,2->3"))
    real = verify.sym.ti_apply

    def scaled(i, x):
        return real(i, x).scale(verify.v_pow(1)) if i == 3 else real(i, x)

    monkeypatch.setattr(verify.sym, "ti_apply", scaled)
    r = verify._run("braid-2-3", verify._check_braid, Session(d), 2, 3)
    assert r.status == "fail"
    assert r.detail.startswith(
        "braid relation of T_2, T_3 on E1: differ at ((), (0, 0, 0), (1, 2, 3)): "
        "got v^-1, want 1; "
    )


def test_a_swapped_kernel_fails_the_subalgebra_row_with_both_bases(monkeypatch):
    # the left kernel read from the right side: T_1 keeps the left one in f
    d = load_datum(load_quiver("1->2"))
    real = verify.sym.sub_if_basis

    def swapped(datum, i, nu, side):
        return real(datum, i, nu, "right" if side == "left" else "left")

    monkeypatch.setattr(verify.sym, "sub_if_basis", swapped)
    r = verify._run("ti-subalgebra-equivalence", verify._check_ti_subalgebra, Session(d))
    assert r.status == "fail"
    assert r.detail == (
        "left 1-subalgebra of f_(1, 1) by T_1 and as a kernel: "
        "got (FElement(-v^-1*th1*th2 + th2*th1),), want (FElement(-v*th1*th2 + th2*th1),)"
    )


def test_a_short_kernel_fails_the_decomposition_row_with_both_counts(monkeypatch):
    d = load_datum(load_quiver("1->2"))
    real = verify.fa.sub_if_basis

    def short(datum, i, nu, side):
        basis = real(datum, i, nu, side)
        return basis[:-1] if nu == (1, 1) else basis

    monkeypatch.setattr(verify.fa, "sub_if_basis", short)
    r = verify._run("f-decomposition", verify._check_f_decomposition, Session(d))
    assert r.status == "fail"
    assert r.detail == "dims of the 1-decomposition of f_(1, 1): got 1, want 2"


def test_a_piece_outside_the_kernel_fails_with_its_component(monkeypatch):
    # x = th^(0) x rebuilds x, but x is not in the kernel unless r_i x = 0
    d = load_datum(load_quiver("1->2"))
    monkeypatch.setattr(verify.fa, "i_decompose", lambda i, x: [(0, x)])
    r = verify._run("f-decomposition", verify._check_f_decomposition, Session(d))
    assert r.status == "fail"
    assert r.detail == "left 2-piece 0 in the kernel for th2: differ at (): got 1, want 0"


def test_doubled_simple_products_fail_the_hall_row_with_both_sides(monkeypatch):
    d = load_datum(load_quiver("1->2"))
    s = Session(d)
    real = verify.hall._product
    simples = {verify.hall.HallElement.simple(d.quiver, 4, i) for i in d.vertices}

    def doubled(a, b):
        out = real(a, b)
        return out.scale(Fraction(2)) if a != b and {a, b} <= simples else out

    # word images are memoized through the product, so none may be kept
    # from before the fault or after it
    verify.hall._hall_word.cache_clear()
    monkeypatch.setattr(verify.hall, "_product", doubled)
    try:
        r = verify._run("hall-structure-agreement", verify._check_hall_agreement, s)
    finally:
        verify.hall._hall_word.cache_clear()
    assert r.status == "fail"
    assert r.detail == (
        "th(1,) th(1, 2) on ((1, 2),): differ at ((2, 1), (1, 2, 1)): got 5, "
        "want 5/2; ((2, 1), (1, 2, 2)): got 5, want 5/2"
    )


def test_a_wrong_divided_power_image_fails_the_twist_check(monkeypatch):
    # T_i(F_i^(r)) and T_i(E_i^(r)) on A2 scaled by v: one consistent
    # scalar on every piece, which the closed forms reject
    s = Session(load_datum(load_quiver("1->2")))
    real = verify.sym._divided_image

    def wrong(datum, i, sign, r):
        return real(datum, i, sign, r).scale(verify.v_pow(1))

    real.cache_clear()
    monkeypatch.setattr(verify.sym, "_divided_image", wrong)
    try:
        r = verify._run("ti-twist-calibration", verify._check_ti_calibration, s)
    finally:
        real.cache_clear()
    assert r.status == "fail"
    assert r.detail.startswith("T_1(F1^(0)): differ at ((), (0, 0), ()): got v, want 1")


def test_a_wrong_pairing_constant_fails_the_pairing_and_cross_checks(monkeypatch):
    # _cross reads the constant, so its memo is cleared around the plant
    s = Session(load_datum(load_quiver("1->2")))
    verify.dbl._cross.cache_clear()
    monkeypatch.setattr(verify.dbl, "PAIRING_CONSTANT", -verify.dbl.PAIRING_CONSTANT)
    try:
        pairing = verify._run(
            "double-pairing-calibration", verify._check_double_calibration, s
        )
        cross = verify._run("double-cross-relation", verify._check_double_cross, s)
    finally:
        verify.dbl._cross.cache_clear()
    assert pairing.status == "fail" and pairing.detail.startswith("(th1+, th1-): got ")
    assert cross.status == "fail" and cross.detail.startswith("commutator of ")


def test_a_side_is_cut_to_one_bounded_line():
    long = "x" * (2 * verify.SIDE_CHARS)

    def check():
        verify._expect("inputs", long, "y")

    r = verify._run("cut", check)
    assert r.status == "fail"
    got = r.detail.removeprefix("inputs: got ").removesuffix(", want y")
    assert len(got) == verify.SIDE_CHARS and got.endswith("...")
    assert "\n" not in r.detail


def test_sides_that_print_alike_name_their_data():
    a2 = load_datum(load_quiver("1->2"))
    a3 = load_datum(load_quiver("1->2,2->3"))
    got, want = verify.ua.UElement.unit(a2), verify.ua.UElement.unit(a3)
    assert str(got) == str(want) == "1"
    r = verify._run("units", verify._expect, "unit", got, want)
    assert r.status == "fail"
    assert r.detail == (
        f"unit: got 1 [UElement, datum={a2}], want 1 [UElement, datum={a3}]"
    )
    # sides that print apart keep the short form
    r = verify._run("ints", verify._expect, "int", 1, 2)
    assert r.detail == "int: got 1, want 2"


def test_a_wrong_coefficient_is_the_only_key_in_the_detail():
    # six words of weight (2, 2) print longer than one side may, and the
    # planted key sorts last, so printing whole sides would cut it off
    d = load_datum(load_quiver("1->2"))
    words = sorted(verify.words_of_weight(d, (2, 2)))
    want = verify.FreeElement(d, {w: verify.v_pow(k) for k, w in enumerate(words)})
    key = words[-1]
    got = want._like({**want.terms, key: verify.ONE})
    detail = f"planted: differ at {key}: got 1, want {verify.v_pow(len(words) - 1)}"
    for sides in ((got, want), (got.terms, want.terms)):
        r = verify._run("planted", verify._expect, "planted", *sides)
        assert r.status == "fail"
        assert r.detail == detail
        assert not any(str(w) in r.detail for w in words[:-1])


def test_elements_are_printed_only_on_failure():
    printed = []

    class Element:
        def __str__(self):
            printed.append(self)
            return "x"

    verify._expect("same on", 1, 1, Element())
    assert printed == []
    r = verify._run("differs", verify._expect, "differs on", 1, 2, Element(), Element())
    assert r.status == "fail"
    assert r.detail == "differs on x, x: got 1, want 2"
    assert len(printed) == 2


def test_a_bare_assertion_is_an_error_not_a_failure():
    def check():
        raise AssertionError("internal invariant")

    r = verify._run("boom", check)
    assert r.status == "error"
    where = f"test_verify.py:{check.__code__.co_firstlineno + 1} in check"
    assert r.detail == f"AssertionError: internal invariant (at {where})"


def test_kostant_dims_pass_on_a_long_path():
    # A_21 is finite with 231 roots: the Lyndon bases are checked, not skipped
    path = ",".join(f"{i}->{i + 1}" for i in range(1, 21))
    s = Session(load_datum(load_quiver(path)), weight_bound=2)
    r = verify._run("f-dims-kostant", verify._check_f_dims_kostant, s)
    assert r.status == "pass", r.detail


def test_kostant_dims_pass_on_the_kronecker_quiver():
    # no Kostant count off Dynkin data: the Weyl-Kac dimension is compared
    s = Session(load_datum(load_quiver("1->2,1->2")))
    r = verify._run("f-dims-kostant", verify._check_f_dims_kostant, s)
    assert r.status == "pass", r.detail


def test_kostant_dims_fail_on_a_wrong_weyl_kac_dimension(monkeypatch):
    monkeypatch.setattr(verify, "weyl_kac_dim", lambda a, nu: 1)
    s = Session(load_datum(load_quiver("1->2,1->2")), weight_bound=2)
    r = verify._run("f-dims-kostant", verify._check_f_dims_kostant, s)
    assert r.status == "fail"
    assert r.detail == "dim f_(1, 1): got 2, want 1"

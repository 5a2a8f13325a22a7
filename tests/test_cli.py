import importlib
import json
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import qhall
from qhall.cartan import A2, A3
from qhall.cli import main
from qhall.double import DoubleElement
from qhall.exprs import ParseError, element_json, format_element, parse_expr
from qhall.falgebra import FElement, weight_basis
from qhall.freealg import FreeElement
from qhall.ratfunc import RatFunc, v_pow
from qhall.ualgebra import UElement, u_mul

from helpers import const_den_ratfuncs, laurent_polys, parse_scalar, ratfuncs


def test_parse_u_product():
    val = parse_expr(A2, "E1*F1")
    assert isinstance(val, UElement)
    assert val == u_mul(UElement.E(A2, 1), UElement.F(A2, 1))


def test_parse_divided_powers():
    val = parse_expr(A2, "th1^(2)*th2")
    assert isinstance(val, FreeElement)
    from qhall.ratfunc import qfact

    want = FreeElement(A2, {(1, 1, 2): qfact(2).inverse()})
    assert val == want
    u = parse_expr(A2, "E1^(3)")
    from qhall.falgebra import theta_divided
    from qhall.ualgebra import embed_plus

    assert u == embed_plus(theta_divided(A2, 1, 3))


def test_parse_scalars_and_powers():
    assert parse_expr(A2, "v + v^-1") == v_pow(1) + v_pow(-1)
    assert parse_expr(A2, "(v^2-1)/(v-1)") == parse_scalar("v + 1")
    assert parse_expr(A2, "2v^2") == RatFunc.const(2) * v_pow(2)
    assert parse_expr(A2, "F1^2") == u_mul(UElement.F(A2, 1), UElement.F(A2, 1))


def test_parse_double_wrappers():
    val = parse_expr(A2, "p(th1)*m(th1)")
    assert isinstance(val, DoubleElement)
    k = parse_expr(A2, "k(1,-1)")
    assert k == DoubleElement.torus(A2, (1, -1))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expr(A2, "E9")
    with pytest.raises(ParseError):
        parse_expr(A2, "th1 + ")
    with pytest.raises(ParseError):
        parse_expr(A2, "K(1)")
    with pytest.raises(ValueError):
        parse_expr(A2, "th1*E1")


def _basis_words(datum, height=3) -> list:
    return [
        w
        for nu in product(range(height + 1), repeat=datum.rank)
        if sum(nu) <= height
        for w in weight_basis(datum, nu).basis_words
    ]


BASIS_WORDS = {d: _basis_words(d) for d in (A2, A3)}
ELEMENT_KINDS = {"f": FElement, "u": UElement, "double": DoubleElement}


@st.composite
def printable_elements(draw):
    """An element of f, U or the double on A2 or A3: basis words up to
    height 3, coweights with negative entries, Laurent and Q(v)
    coefficients, and no terms at all (zero) among them."""
    datum = draw(st.sampled_from([A2, A3]))
    kind = draw(st.sampled_from(sorted(ELEMENT_KINDS)))
    word = st.sampled_from(BASIS_WORDS[datum])
    coweight = st.tuples(*[st.integers(-2, 2)] * datum.rank)
    key = word if kind == "f" else st.tuples(word, coweight, word)
    coefficient = st.one_of(laurent_polys, ratfuncs, const_den_ratfuncs).filter(bool)
    terms = draw(st.dictionaries(key, coefficient, max_size=4))
    return ELEMENT_KINDS[kind](datum, terms)


def _reference_order(x) -> list:
    """The keys of x in the documented term order: slot by slot, a word by
    its length and then its letters, a coweight by its entries."""
    if isinstance(x, (FreeElement, FElement)):  # an f key is its one word
        return sorted(x.terms, key=lambda w: (len(w), w))
    return sorted(x.terms, key=lambda k: (len(k[0]), k[0], k[1], len(k[2]), k[2]))


def _json_key(term: dict):
    """The term key that a JSON term names."""
    def word(text):
        return () if text == "1" else tuple(int(g) for g in re.findall(r"\d+", text))

    if "word" in term:
        return word(term["word"])
    mid = term.get("K", term.get("k"))
    outer = (term["F"], term["E"]) if "F" in term else (term["minus"], term["plus"])
    return (word(outer[0]), tuple(int(m) for m in mid.split(",")), word(outer[1]))


def _text_terms(text: str) -> list:
    """The text cut into its signed terms at the + and - between them,
    outside every pair of parentheses."""
    pieces, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0 and text[k:k + 3] in (" + ", " - "):
            pieces.append(text[start:k])
            start = k + 1
    return pieces + [text[start:]]


@settings(max_examples=150, deadline=None)
@given(printable_elements())
@example(parse_expr(A2, "(-v-1)*E1"))
@example(parse_expr(A2, "E1*F1"))
@example(parse_expr(A2, "th1*th2 - v*th2*th1"))
@example(parse_expr(A2, "K(1,0)*E1*E2"))
@example(parse_expr(A2, "p(th1*th2)*k(0,1)"))
@example(parse_expr(A2, "m(th2)*p(th1)"))
@example(parse_expr(A2, "(v+v^-1)*F2"))
def test_print_parse_round_trip_idempotent(x):
    """The text reparses to an equal element and prints alike again; the
    JSON lists one object per term, in the text's order, each with its
    coefficient as str(c)."""
    datum = x.datum
    text = format_element(x)
    # the parser returns theta expressions in the free algebra, and a
    # scalar as a scalar
    kind = FreeElement if type(x) is FElement else type(x)

    def reparse(src):
        y = parse_expr(datum, src)
        return kind.unit(datum).scale(y) if isinstance(y, RatFunc) else y

    y = reparse(text)
    assert type(y) is kind
    assert y.terms == x.terms, text
    assert format_element(y) == text
    order = _reference_order(x)
    if x.terms:
        printed = [next(iter(reparse(t.lstrip("+ ")).terms)) for t in _text_terms(text)]
        assert printed == order, text
    terms = element_json(x)["terms"]
    assert [_json_key(t) for t in terms] == order
    assert [t["c"] for t in terms] == [str(x.terms[k]) for k in order]


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_f_commands(capsys):
    code, out = run_cli(capsys, "f", "dim", "2,1")
    assert code == 0 and "dim f_(2, 1) = 2" in out
    code, out = run_cli(capsys, "f", "nf", "th2*th1*th1")
    assert code == 0 and "th1*th1*th2" in out
    code, out = run_cli(capsys, "f", "decompose", "1", "th2*th1")
    assert code == 0 and "t=1" in out


def test_cli_u_commands(capsys):
    code, out = run_cli(capsys, "u", "mul", "E1", "F1")
    assert code == 0 and "F1*E1" in out
    code, out = run_cli(capsys, "u", "hopf-check", "E1*E2")
    assert code == 0 and out.strip() == "pass"
    code, out = run_cli(capsys, "--json", "u", "nf", "E1")
    payload = json.loads(out)
    assert payload["schema"] == "qhall/1"
    assert payload["terms"] == [{"F": "1", "K": "0,0", "E": "E1", "c": "1"}]


def test_cli_ti_and_braid(capsys):
    code, out = run_cli(capsys, "ti", "apply", "1", "E2")
    assert code == 0 and "E1*E2" in out
    code, out = run_cli(capsys, "braid", "verify", "1", "2")
    assert code == 0 and out.strip() == "pass"
    code, out = run_cli(
        capsys, "--datum", "1->2,2->3", "braid", "verify", "1", "3"
    )
    assert code == 0


def test_cli_hall_commands(capsys):
    code, out = run_cli(capsys, "hall", "classes", "1->2", "1,1", "2")
    assert code == 0 and "orbit 1" in out
    code, out = run_cli(capsys, "hall", "strata", "1->2", "1,1", "3", "2")
    assert code == 0 and "r=0:2 r=1:1" in out
    code, out = run_cli(
        capsys, "hall", "number", "1->2", "2", "1,1:1", "1,0:0", "0,1:0"
    )
    assert code == 0 and out.strip() == "1"
    code, out = run_cli(capsys, "hall", "compare", "1->2", "1,0", "0,1", "--q", "4")
    assert code == 0 and "ok" in out


def test_cli_double_commands(capsys):
    code, out = run_cli(capsys, "double", "mul", "p(th1)", "m(th1)")
    assert code == 0 and "k(1,0)" in out


def test_cli_verify_json(capsys):
    code, out = run_cli(capsys, "--json", "verify", "braid")
    assert code == 0
    payload = json.loads(out)
    results = payload["results"]
    assert all(r["status"] in ("pass", "skip") for r in results)
    assert all(set(r) == {"check", "status", "millis", "detail"} for r in results)


def test_cli_verify_suite_accepts_prefix(capsys):
    code, out = run_cli(capsys, "verify", "verify-double")
    assert code == 0 and "double-cross-relation" in out


def test_cli_verify_deterministic_statuses(capsys):
    code1, out1 = run_cli(capsys, "--json", "verify", "double")
    code2, out2 = run_cli(capsys, "--json", "verify", "double")
    strip = lambda payload: [
        (r["check"], r["status"]) for r in json.loads(payload)["results"]
    ]
    assert strip(out1) == strip(out2)
    assert code1 == code2 == 0


def test_cli_budget_guard_marks_skip(capsys):
    # A2's class table of (2, 2) lists 3 classes, one past the budget
    code, out = run_cli(
        capsys, "--json", "--budget", "2", "verify", "hall"
    )
    payload = json.loads(out)
    results = {r["check"]: r for r in payload["results"]}
    assert results["hall-strata-partition"]["status"] == "skip"
    assert results["hall-strata-partition"]["detail"].startswith(
        "enumeration needs about 3 classes"
    )
    assert code == 0


def test_cli_budget_skip_names_graded_subspaces(capsys):
    # the Hall product walks graded subspaces, and its skip says so
    code, out = run_cli(capsys, "--json", "--budget", "2", "verify", "hall")
    results = {r["check"]: r for r in json.loads(out)["results"]}
    check = results["hall-product-associative"]
    assert check["status"] == "skip"
    assert "subspaces" in check["detail"]
    assert code == 0


def test_cli_single_vertex_datum(capsys):
    code, out = run_cli(
        capsys,
        "--datum",
        '{"vertices": [1], "arrows": []}',
        "verify",
        "braid",
    )
    assert code == 0


def _bad_input(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qhall: ")
    return lines[0]


def test_cli_rejects_dimension_vector_of_wrong_length(capsys):
    assert "3 entries" in _bad_input(capsys, "f", "dim", "1,2,3")
    assert "3 entries" in _bad_input(capsys, "hall", "classes", "1->2", "1,1,1", "2")


def test_cli_hall_compare_rejects_a_field_size_below_two(capsys):
    # q = 1 is a perfect square, so it reaches the field-size check only
    # because the comparison checks q as a field size before any budget
    for q in ("0", "1"):
        line = _bad_input(capsys, "hall", "compare", "1->2", "1,0", "0,1", "--q", q)
        assert line == "qhall: field size must be between 2 and 256", q


def test_cli_reads_positionals_that_start_with_a_minus(capsys):
    # printed forms such as -th1 read back; a negative dimension entry
    # gets its own line wherever it stands; an unknown long option and a
    # known short one are still options
    for argv, want in (
        (["f", "nf", "-th1"], "-th1"),
        (["f", "nf", "-v*th1"], "-v*th1"),
        (["u", "nf", "-E1"], "-E1"),
        (["u", "mul", "-E1", "-F1"], format_element(u_mul(*(
            UElement.E(A2, 1).scale(RatFunc.const(-1)),
            UElement.F(A2, 1).scale(RatFunc.const(-1)),
        )))),
        (["ti", "apply", "1", "-E1"], "F1*K(1,0)"),
    ):
        assert main(argv) == 0
        assert capsys.readouterr().out == want + "\n"
    for nu in ("-1,2", "0,-1"):
        line = _bad_input(capsys, "f", "dim", nu)
        assert line == f"qhall: dimension vector '{nu}' has a negative entry"
    with pytest.raises(SystemExit) as exc:
        main(["f", "nf", "--th1"])
    assert exc.value.code == 2
    assert "required: expr" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["f", "nf", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qhall f nf")


def test_cli_rejects_input_past_the_recursion_limit(capsys):
    deep = "(" * 400 + "th1" + ")" * 400
    long = "*".join(["th1"] * 1501)
    for expr in (deep, long):
        line = _bad_input(capsys, "f", "nf", expr)
        assert line == "qhall: input too deeply nested or too long"


def test_cli_rejects_unknown_vertex(capsys):
    assert "unknown vertex 7" in _bad_input(capsys, "ti", "apply", "7", "E1")
    line = _bad_input(capsys, "hall", "strata", "1->2", "1,1", "2", "7")
    assert line == "qhall: unknown vertex 7; the vertices are 1, 2"


def test_cli_rejects_an_unknown_vertex_on_zero(capsys):
    for argv in (("ti", "apply"), ("ti", "inv"), ("f", "decompose")):
        line = _bad_input(capsys, *argv, "9", "0")
        assert line == "qhall: unknown vertex 9; the vertices are 1, 2", argv


def test_cli_rejects_budget_overrun_and_nonpositive_budget(capsys):
    line = _bad_input(capsys, "hall", "classes", "1->2", "4,4", "4")
    assert "budget is 10000000" in line
    line = _bad_input(capsys, "--budget", "10", "hall", "classes", "1->2", "2,2", "4")
    assert "needs about 256 points but the budget is 10" in line
    argv = ("--budget", "10", "hall", "number", "1->2", "4", "3,0:0", "2,0:0", "1,0:0")
    line = _bad_input(capsys, *argv)
    assert "needs about 21 graded subspaces but the budget is 10" in line
    for budget in ("0", "-5"):
        line = _bad_input(capsys, "--budget", budget, "verify", "hall")
        assert "--budget must be positive" in line


def test_cli_reports_parse_errors(capsys):
    assert "position 4" in _bad_input(capsys, "f", "nf", "th1*")
    assert "theta expression" in _bad_input(capsys, "f", "nf", "E1")
    for expr, pos in (("1/0", 2), ("2/(v-v)", 2), ("(v-v)^-1*E1", 0)):
        line = _bad_input(capsys, "u", "nf", expr)
        assert line == f"qhall: division by zero (at position {pos})"
    # a negative power of a non-scalar is reported at its base
    for expr, pos in (("E1^-1", 0), ("E1^-1*F1", 0), ("2*E1^-1", 2)):
        line = _bad_input(capsys, "u", "nf", expr)
        assert line == f"qhall: negative powers only for scalars (at position {pos})"
    line = _bad_input(capsys, "--datum", "{}", "f", "dim", "1")
    assert line == "qhall: quiver JSON has no 'vertices' key"


def test_cli_rejects_malformed_quiver_json(capsys, tmp_path):
    def bad(datum):
        return _bad_input(capsys, "--datum", datum, "f", "dim", "1")

    assert bad('{"vertices": 1, "arrows": []}') == (
        "qhall: quiver JSON 'vertices' must be a list of integer vertex ids, got 1"
    )
    assert "'vertices'" in bad('{"vertices": [1, "b"], "arrows": []}')
    assert "'arrows' must be a list" in bad('{"vertices": [1], "arrows": 3}')
    assert bad('{"vertices": [1, 2], "arrows": [[1]]}') == (
        "qhall: quiver JSON arrow [1] is not a [source, target] pair of "
        "integer vertex ids"
    )
    assert "arrow [1, 2.5]" in bad('{"vertices": [1, 2], "arrows": [[1, 2.5]]}')
    path = tmp_path / "quiver.json"
    path.write_text("[1, 2]")
    assert bad(str(path)) == (
        f"qhall: quiver file {path}: quiver JSON must be an object with "
        "'vertices' and 'arrows'"
    )
    # a malformed file is named; an inline literal's message is the decoder's
    path.write_text("{bad")
    decoder = (
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )
    assert bad(str(path)) == f"qhall: quiver file {path}: {decoder}"
    assert bad("{bad") == f"qhall: {decoder}"


def test_cli_rejects_a_quiver_with_no_vertices(capsys, tmp_path):
    # in shorthand (empty, or arrows left out) and in JSON, inline or in a file
    for datum in ("", ",", '{"vertices": [], "arrows": []}'):
        line = _bad_input(capsys, "--datum", datum, "verify", "all")
        assert line == "qhall: quiver has no vertices"
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [], "arrows": []}')
    line = _bad_input(capsys, "--datum", str(path), "verify", "all")
    assert line == f"qhall: quiver file {path}: quiver has no vertices"
    line = _bad_input(capsys, "hall", "classes", "", "1", "2")
    assert line == "qhall: quiver has no vertices"


def test_cli_rejects_unreadable_quiver_file(capsys, tmp_path):
    missing = tmp_path / "nosuch.json"
    line = _bad_input(capsys, "--datum", str(missing), "verify", "f")
    assert line == f"qhall: cannot read quiver file {missing}: No such file or directory"
    folder = tmp_path / "x.json"
    folder.mkdir()
    line = _bad_input(capsys, "--datum", str(folder), "verify", "f")
    assert line.startswith(f"qhall: cannot read quiver file {folder}: ")


def test_cli_double_has_no_verify_subcommand(capsys):
    # the double suite runs as `qhall verify double`
    with pytest.raises(SystemExit) as exc:
        main(["double", "verify"])
    assert exc.value.code == 2
    assert "invalid choice: 'verify'" in capsys.readouterr().err


def test_cli_double_mul_takes_scalars_and_rejects_other_kinds(capsys):
    # a scalar is that multiple of the double's unit, as in u mul
    assert run_cli(capsys, "double", "mul", "2", "p(th1)") == (0, "2*p(th1)\n")
    assert run_cli(capsys, "double", "mul", "v", "3") == (0, "3v\n")
    for other in ("E1", "th1"):
        line = _bad_input(capsys, "double", "mul", other, "p(th1)")
        assert line == "qhall: double mul expects p(...)/m(...)/k(...) expressions"


def test_cli_rejects_non_integer_vertex_in_shorthand(capsys):
    line = _bad_input(capsys, "--datum", "1->x", "f", "dim", "1,1")
    assert line == (
        "qhall: bad arrow spec '1->x': expected <source>-><target>, "
        "and vertex ids must be integers"
    )
    assert "'1->2->3'" in _bad_input(capsys, "--datum", "1->2->3", "f", "dim", "1,1,1")


def test_cli_rejects_hall_class_index_out_of_range(capsys):
    line = _bad_input(capsys, "hall", "number", "1->2", "2", "1,1:9", "1,0:0", "0,1:0")
    assert "out of range" in line
    line = _bad_input(capsys, "hall", "number", "1->2", "2", "1,0:x", "1,0:0", "0,1:0")
    assert line == "qhall: class index 'x' in '1,0:x' is not an integer"


def test_python_dash_m_runs_the_cli(capsys):
    # `python -m qhall` from a source checkout prints what main prints,
    # and importing qhall.__main__ (as tools that walk the package do)
    # runs nothing
    importlib.import_module("qhall.__main__")
    src = str(Path(qhall.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["--json", "ti", "apply", "1", "E2"]
    proc = subprocess.run(
        [sys.executable, "-m", "qhall", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    code, out = run_cli(capsys, *argv)
    assert code == 0 and proc.stdout == out


class _ClosedPipe:
    """A standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_closed_reader_exits_quietly(capsys, monkeypatch):
    # `qhall --json verify ti | head -c 100`: no traceback, exit code 141,
    # and standard output left on devnull for the interpreter's last flush
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["--json", "ti", "apply", "1", "E2"]) == 141
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""

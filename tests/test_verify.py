import importlib.util
import pathlib

from qhall import verify
from qhall.cartan import load_datum, load_quiver
from qhall.verify import CheckResult, Session

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "run_verify.py"


def _raises():
    return 1 / 0


def test_a_check_that_raises_is_an_error():
    r = verify._run("boom", _raises)
    assert r.status == "error"
    assert r.detail == "ZeroDivisionError: division by zero"
    assert not r.ok


def test_run_verify_counts_errors_as_failures(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_verify", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA", [("A2", "1->2")])
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
    # D4 with its sink at 2: (2,0,1,1) reflects to (2,4,1,1), whose 3^16
    # points at q = 3 pass the default budget
    def enumerated(*_args):
        raise AssertionError("enumerated before the budget was met")

    monkeypatch.setattr(verify.hall, "iso_classes", enumerated)
    datum = load_datum(load_quiver("1->2,3->2,4->2"))
    s = Session(datum)
    r = verify._run("hall-bgp-bijection", lambda: verify._check_hall_bgp(s))
    assert r.status == "skip"
    assert r.detail.startswith("enumeration needs about 43046721 points")

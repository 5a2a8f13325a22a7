import importlib.util
import pathlib

from qhall import verify
from qhall.verify import CheckResult

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

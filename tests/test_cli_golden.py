"""Replay the README's element commands against recorded output.

`tests/data/cli_golden.json` maps each argument list to the exit code
and the exact standard output `qhall` gave for it, in text and `--json`
form, on A2 and A3, and on two quivers with no vertices, which are
rejected; a run that wrote to standard error also records that.  Any
change to a canonical printed form shows up here as a byte difference.  Regenerate the file (only when a printed
form is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import shlex

from qhall.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

A3 = "--datum 1->2,2->3"
COMMANDS = [
    "f dim 2,1",
    "f nf th2*th1*th1",
    "f decompose 1 th2*th1",
    "u nf E1*F1",
    "u mul E1^(2) F1",
    "u delta E1",
    "u hopf-check F1*E2*K(1,0)",
    "ti apply 1 E2",
    "ti inv 1 E2",
    # T_i-images whose F-word groups share terms of T_i^-1(F_a)
    'ti inv 1 "-v^-3*F1*F1*F1*F2*K(2,0) + v^-4*F1*F1*F2*F1*K(2,0)"',
    "hall classes 1->2 1,1 2",
    "hall number 1->2 2 1,1:1 1,0:0 0,1:0",
    "hall strata 1->2 1,1 3 2",
    "hall strata 1->2 2,1 3 1",
    "hall compare 1->2 1,1 1,1 --q 4",
    "double mul p(th1) m(th1)",
    f"{A3} f dim 1,2,1",
    f"{A3} f nf th3*th2*th1*th2",
    f"{A3} f decompose 2 th1*th2*th3*th2",
    f"{A3} u nf E2*F2*E1",
    f"{A3} u mul E1*E2 F2*F1",
    f"{A3} u delta E1*E2",
    f"{A3} u hopf-check F2*E1*K(0,1,0)",
    f"{A3} ti apply 2 E1*E3",
    f"{A3} ti inv 2 F1*K(1,0,-1)",
    f'{A3} ti inv 2 "F1*F2*F2*F2*F3*K(0,1,0) - v^-1*F1*F2*F2*F3*F2*K(0,1,0)'
    ' - v*F2*F1*F2*F2*F3*K(0,1,0) + F2*F1*F2*F3*F2*K(0,1,0)"',
    "hall classes 1->2,2->3 1,1,1 2",
    "hall number 1->2,2->3 2 1,1,0:1 1,0,0:0 0,1,0:0",
    "hall number 1->2,2->3 3 1,2,1:0 1,1,0:0 0,1,1:0",
    "hall number 1->2,2->3 2 1,1,1:2 1,1,0:0 0,0,1:0",
    "hall strata 1->2,2->3 1,1,1 2 3",
    "hall strata 1->2,2->3 1,2,1 2 1",
    "hall compare 1->2,2->3 1,1,0 0,1,1 --q 4",
    f"{A3} double mul p(th1*th2) m(th2)",
    "braid verify 1 2",
    "--datum 1->2,2->3 braid verify 1 3",
    '--datum "" verify all',
    """--datum '{"vertices": [], "arrows": []}' verify all""",
    # printed forms that start with a minus read back as arguments, and a
    # negative dimension entry is rejected wherever it stands
    "f nf (-1)*th1",
    "f nf -th1",
    "u nf -E1",
    "ti apply 1 -E1",
    "f dim -1,2",
    "f dim 0,-1",
    # coefficients whose numerator has several terms and a negative
    # leading coefficient, zero and scalar inputs, and a scalar decomposed
    "u nf (-v-1)*E1",
    "f decompose 1 th2*th1*th1",
    "f nf 0",
    "u nf 0",
    "u nf 2*v",
    "f decompose 1 2",
    # a scalar operand of the double's product
    "double mul 2 p(th1)",
    "double mul p(th1) 2*v",
]


def _argvs():
    for cmd in COMMANDS:
        argv = shlex.split(cmd)
        yield argv
        yield ["--json"] + argv


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    case = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    if err.getvalue():
        case["stderr"] = err.getvalue()
    return case


def record() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = [_run(argv) for argv in _argvs()]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")


def test_cli_golden_replay():
    cases = json.loads(GOLDEN.read_text())
    assert [c["argv"] for c in cases] == list(_argvs())
    for case in cases:
        assert _run(case["argv"]) == case, " ".join(case["argv"])


if __name__ == "__main__":
    record()

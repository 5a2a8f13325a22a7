"""Command-line front end.

Subcommands mirror the library: f (quotient algebra), u (quantum
group), ti (symmetries), braid, hall (finite-field oracle), double,
and verify.  Global flags pick the quiver, the enumeration budget, and
JSON output; the hall subcommands take the field size as an argument.

Exit codes: 0 when every requested check passed, 1 when a check
failed, 2 on bad input, input too deep or too long for the interpreter's
stack, or an enumeration past the budget, with one line on stderr, and
141 (128 + SIGPIPE, as a shell reports a writer killed by a closed pipe)
when the reader of standard output closes it early, as
`qhall --json verify ti | head -c 100` does; nothing is printed then.

`python -m qhall` runs the same command line from a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import double as dbl
from . import falgebra as fa
from . import hall
from . import symmetries as sym
from . import ualgebra as ua
from .cartan import CartanDatum, load_datum, load_quiver
from .exprs import format_element, parse_expr
from .freealg import FreeElement
from .ratfunc import ONE, RatFunc
from .ualgebra import UElement
from .verify import Session, run_suite

SCHEMA = "qhall/1"


def _parse_dims(text: str, rank: int) -> tuple:
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(
            f"dimension vector {text!r} is not a comma-separated list of integers"
        ) from None
    if len(dims) != rank:
        raise ValueError(
            f"dimension vector {text!r} has {len(dims)} entries but the quiver "
            f"has {rank} vertices"
        )
    if min(dims) < 0:
        raise ValueError(f"dimension vector {text!r} has a negative entry")
    return dims


def _session(args) -> Session:
    if args.budget <= 0:
        raise ValueError(f"--budget must be positive, got {args.budget}")
    return Session(datum=load_datum(load_quiver(args.datum)), budget=args.budget)


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=False))
    else:
        print(text)


def _u_terms_json(x: UElement) -> list:
    out = []
    for (fw, mu, ew), c in x.sorted_terms():
        out.append(
            {
                "F": "*".join(f"F{i}" for i in fw) or "1",
                "K": ",".join(str(m) for m in mu),
                "E": "*".join(f"E{i}" for i in ew) or "1",
                "c": str(c),
            }
        )
    return out


def _element_json(x) -> dict:
    if isinstance(x, UElement):
        return {"schema": SCHEMA, "type": "u", "terms": _u_terms_json(x)}
    if isinstance(x, dbl.DoubleElement):
        terms = [
            {
                "minus": "*".join(f"th{i}" for i in mw) or "1",
                "k": ",".join(str(m) for m in mu),
                "plus": "*".join(f"th{i}" for i in pw) or "1",
                "c": str(c),
            }
            for (mw, mu, pw), c in x.sorted_terms()
        ]
        return {"schema": SCHEMA, "type": "double", "terms": terms}
    if isinstance(x, (FreeElement, fa.FElement)):
        terms = [
            {"word": "*".join(f"th{i}" for i in w) or "1", "c": str(c)}
            for w, c in sorted(x.terms.items(), key=lambda t: (len(t[0]), t[0]))
        ]
        return {"schema": SCHEMA, "type": "f", "terms": terms}
    return {"schema": SCHEMA, "type": "scalar", "value": str(x)}


def _hex_width(q: int) -> int:
    width = 1
    while 16 ** width < q:
        width += 1
    return width


def _mat_hex(m: tuple, q: int) -> str:
    width = _hex_width(q)
    return "".join(f"{entry:0{width}x}" for row in m for entry in row)


def _class_json(quiver, q, dims, point) -> dict:
    return {
        "dims": list(dims),
        "mats": [_mat_hex(m, q) for m in point],
    }


def cmd_f(args) -> int:
    s = _session(args)
    d = s.datum
    if args.f_cmd == "dim":
        nu = _parse_dims(args.nu, d.rank)
        dim = fa.weight_basis(d, nu).dim
        words = fa.weight_basis(d, nu).basis_words
        _emit(
            args,
            {
                "schema": SCHEMA,
                "weight": list(nu),
                "dim": dim,
                "basis": ["*".join(f"th{i}" for i in w) or "1" for w in words],
            },
            f"dim f_{nu} = {dim}",
        )
        return 0
    if args.f_cmd == "nf":
        val = parse_expr(d, args.expr)
        if isinstance(val, RatFunc):
            val = fa.FElement.unit(d).scale(val)
        elif isinstance(val, FreeElement):
            val = fa.normal_form(val)
        else:
            raise ValueError("f nf expects a theta expression")
        _emit(args, _element_json(val), format_element(val))
        return 0
    if args.f_cmd == "decompose":
        val = parse_expr(d, args.expr)
        if isinstance(val, FreeElement):
            val = fa.normal_form(val)
        if not isinstance(val, fa.FElement):
            raise ValueError("f decompose expects a theta expression")
        pieces = fa.i_decompose(args.vertex, val)
        payload = {
            "schema": SCHEMA,
            "vertex": args.vertex,
            "pieces": [
                {"t": t, "element": _element_json(p)["terms"]} for t, p in pieces
            ],
        }
        text = "\n".join(
            f"t={t}: {format_element(p)}" for t, p in pieces
        ) or "0"
        _emit(args, payload, text)
        return 0
    raise SystemExit(f"unknown f subcommand {args.f_cmd}")


def _as_u(d: CartanDatum, val) -> UElement:
    if isinstance(val, RatFunc):
        return UElement.unit(d).scale(val)
    if isinstance(val, FreeElement):
        return ua.embed_plus(fa.normal_form(val))
    if isinstance(val, fa.FElement):
        return ua.embed_plus(val)
    if isinstance(val, UElement):
        return val
    raise ValueError("expected a quantum-group expression")


def cmd_u(args) -> int:
    s = _session(args)
    d = s.datum
    if args.u_cmd == "nf":
        val = _as_u(d, parse_expr(d, args.expr))
        _emit(args, _element_json(val), format_element(val))
        return 0
    if args.u_cmd == "mul":
        a = _as_u(d, parse_expr(d, args.left))
        b = _as_u(d, parse_expr(d, args.right))
        val = ua.u_mul(a, b)
        _emit(args, _element_json(val), format_element(val))
        return 0
    if args.u_cmd == "delta":
        val = _as_u(d, parse_expr(d, args.expr))
        t = ua.delta(val)
        terms = []
        for (k1, k2), c in sorted(t.terms.items()):
            terms.append(
                {
                    "left": _u_terms_json(UElement(d, {k1: ONE})),
                    "right": _u_terms_json(UElement(d, {k2: ONE})),
                    "c": str(c),
                }
            )
        text = " + ".join(
            f"({format_element(UElement(d, {k1: c}))}) (x) ({format_element(UElement(d, {k2: ONE}))})"
            for (k1, k2), c in sorted(t.terms.items())
        )
        _emit(args, {"schema": SCHEMA, "type": "u-tensor", "terms": terms}, text or "0")
        return 0
    if args.u_cmd == "hopf-check":
        val = _as_u(d, parse_expr(d, args.expr))
        ok = all(got == want for _name, got, want in ua.hopf_sides(val))
        _emit(args, {"schema": SCHEMA, "hopf": ok}, "pass" if ok else "fail")
        return 0 if ok else 1
    raise SystemExit(f"unknown u subcommand {args.u_cmd}")


def cmd_ti(args) -> int:
    s = _session(args)
    d = s.datum
    if args.ti_cmd in ("apply", "inv"):
        val = _as_u(d, parse_expr(d, args.expr))
        fn = sym.ti_apply if args.ti_cmd == "apply" else sym.ti_inverse_apply
        out = fn(args.vertex, val)
        _emit(args, _element_json(out), format_element(out))
        return 0
    raise SystemExit(f"unknown ti subcommand {args.ti_cmd}")


def cmd_braid(args) -> int:
    s = _session(args)
    sides = sym.braid_sides(s.datum, args.i, args.j)
    ok = all(lhs == rhs for _g, lhs, rhs in sides)
    _emit(args, {"schema": SCHEMA, "braid": ok}, "pass" if ok else "fail")
    return 0 if ok else 1


def cmd_hall(args) -> int:
    s = _session(args)
    quiver = load_quiver(args.quiver)
    rank = len(quiver.vertices)
    if args.hall_cmd == "classes":
        dims = _parse_dims(args.dims, rank)
        classes = hall.iso_classes(quiver, args.field_q, dims, s.budget)
        payload = {
            "schema": SCHEMA,
            "q": args.field_q,
            "dims": list(dims),
            "classes": [
                {**_class_json(quiver, args.field_q, dims, rep), "orbit": size}
                for rep, size in classes
            ],
        }
        text = "\n".join(
            f"#{k}: orbit {size} rep {[_mat_hex(m, args.field_q) for m in rep]}"
            for k, (rep, size) in enumerate(classes)
        )
        _emit(args, payload, text or "1 class (empty)")
        return 0
    if args.hall_cmd == "number":
        q = args.field_q

        def rep_of(spec: str) -> hall.QuiverRep:
            dims_text, _, index = spec.partition(":")
            dims = _parse_dims(dims_text, rank)
            classes = hall.iso_classes(quiver, q, dims, s.budget)
            try:
                k = int(index)
            except ValueError:
                raise ValueError(
                    f"class index {index!r} in {spec!r} is not an integer"
                ) from None
            if not 0 <= k < len(classes):
                raise ValueError(
                    f"class index {k} in {spec!r} is out of range: "
                    f"{dims_text} has {len(classes)} classes over F_{q}"
                )
            return hall.QuiverRep(quiver, q, dims, classes[k][0])

        M, N, L = (rep_of(spec) for spec in (args.M, args.N, args.L))
        g = hall.hall_number(M, N, L, s.budget)
        _emit(args, {"schema": SCHEMA, "hall_number": g}, str(g))
        return 0
    if args.hall_cmd == "strata":
        dims = _parse_dims(args.dims, rank)
        counts = hall.stratum_counts(quiver, dims, args.field_q, args.vertex, s.budget)
        _emit(
            args,
            {"schema": SCHEMA, "counts": counts},
            " ".join(f"r={r}:{c}" for r, c in enumerate(counts)),
        )
        return 0
    if args.hall_cmd == "compare":
        dims_a, dims_b = (_parse_dims(x, rank) for x in (args.dimA, args.dimB))
        report = hall.specialize_compare(quiver, dims_a, dims_b, args.field_q, s.budget)
        checks = [
            {
                "left": "*".join(f"th{i}" for i in w1) or "1",
                "right": "*".join(f"th{i}" for i in w2) or "1",
                "match": lhs == rhs,
            }
            for w1, w2, lhs, rhs in report
        ]
        ok = all(c["match"] for c in checks)
        payload = {"schema": SCHEMA, "q": args.field_q, "checks": checks}
        text = "\n".join(
            f"{c['left']} . {c['right']}: {'ok' if c['match'] else 'MISMATCH'}"
            for c in checks
        )
        _emit(args, payload, text)
        return 0 if ok else 1
    raise SystemExit(f"unknown hall subcommand {args.hall_cmd}")


def cmd_double(args) -> int:
    s = _session(args)
    d = s.datum
    if args.double_cmd == "mul":
        a = parse_expr(d, args.left)
        b = parse_expr(d, args.right)
        if not isinstance(a, dbl.DoubleElement) or not isinstance(b, dbl.DoubleElement):
            raise ValueError("double mul expects p(...)/m(...)/k(...) expressions")
        val = dbl.double_mul(a, b)
        _emit(args, _element_json(val), format_element(val))
        return 0
    raise SystemExit(f"unknown double subcommand {args.double_cmd}")


def _report(args, results) -> int:
    payload = [
        {"check": r.name, "status": r.status, "millis": r.millis, "detail": r.detail}
        for r in results
    ]
    if args.json:
        print(json.dumps({"schema": SCHEMA, "results": payload}))
    else:
        for r in results:
            line = f"{r.status.upper():5} {r.name} ({r.millis} ms)"
            if r.detail:
                line += f" - {r.detail}"
            print(line)
    return 0 if all(r.ok for r in results) else 1


def cmd_verify(args) -> int:
    return _report(args, run_suite(_session(args), args.suite))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qhall",
        description="exact quantum groups, braid symmetries, and a "
        "finite-field Hall oracle",
    )
    p.add_argument("--datum", default="1->2", help="quiver: shorthand, JSON, or file")
    p.add_argument(
        "--budget", type=int, default=hall.DEFAULT_BUDGET, help="enumeration budget"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    subs = p.add_subparsers(dest="cmd", required=True)

    f = subs.add_parser("f", help="quotient algebra")
    fsubs = f.add_subparsers(dest="f_cmd", required=True)
    fdim = fsubs.add_parser("dim")
    fdim.add_argument("nu")
    fnf = fsubs.add_parser("nf")
    fnf.add_argument("expr")
    fdec = fsubs.add_parser("decompose")
    fdec.add_argument("vertex", type=int)
    fdec.add_argument("expr")
    f.set_defaults(fn=cmd_f)

    u = subs.add_parser("u", help="quantum group")
    usubs = u.add_subparsers(dest="u_cmd", required=True)
    usubs.add_parser("nf").add_argument("expr")
    umul = usubs.add_parser("mul")
    umul.add_argument("left")
    umul.add_argument("right")
    usubs.add_parser("delta").add_argument("expr")
    usubs.add_parser("hopf-check").add_argument("expr")
    u.set_defaults(fn=cmd_u)

    ti = subs.add_parser("ti", help="braid symmetries")
    tisubs = ti.add_subparsers(dest="ti_cmd", required=True)
    tap = tisubs.add_parser("apply")
    tap.add_argument("vertex", type=int)
    tap.add_argument("expr")
    tin = tisubs.add_parser("inv")
    tin.add_argument("vertex", type=int)
    tin.add_argument("expr")
    ti.set_defaults(fn=cmd_ti)

    braid = subs.add_parser("braid", help="braid relations")
    bsubs = braid.add_subparsers(dest="braid_cmd", required=True)
    bver = bsubs.add_parser("verify")
    bver.add_argument("i", type=int)
    bver.add_argument("j", type=int)
    braid.set_defaults(fn=cmd_braid)

    h = subs.add_parser("hall", help="finite-field oracle")
    hsubs = h.add_subparsers(dest="hall_cmd", required=True)
    hcl = hsubs.add_parser("classes")
    hcl.add_argument("quiver")
    hcl.add_argument("dims")
    hcl.add_argument("field_q", type=int)
    hnum = hsubs.add_parser("number")
    hnum.add_argument("quiver")
    hnum.add_argument("field_q", type=int)
    hnum.add_argument("M", help="dims:index, e.g. 1,1:1")
    hnum.add_argument("N", help="dims:index")
    hnum.add_argument("L", help="dims:index")
    hst = hsubs.add_parser("strata")
    hst.add_argument("quiver")
    hst.add_argument("dims")
    hst.add_argument("field_q", type=int)
    hst.add_argument("vertex", type=int)
    hcmp = hsubs.add_parser("compare")
    hcmp.add_argument("quiver")
    hcmp.add_argument("dimA")
    hcmp.add_argument("dimB")
    hcmp.add_argument("--q", dest="field_q", type=int, default=4)
    h.set_defaults(fn=cmd_hall)

    dd = subs.add_parser("double", help="the quotient double")
    dsubs = dd.add_subparsers(dest="double_cmd", required=True)
    dmul = dsubs.add_parser("mul")
    dmul.add_argument("left")
    dmul.add_argument("right")
    dd.set_defaults(fn=cmd_double)

    ver = subs.add_parser("verify", help="run a verification suite")
    ver.add_argument(
        "suite",
        help="f, u, ti, braid, hall, double, or all (verify- prefixes accepted)",
    )
    ver.set_defaults(fn=cmd_verify)
    return p


def _stdout_to_devnull() -> None:
    """Point standard output at devnull, so that the interpreter's last
    flush of a stream whose reader has gone raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no file descriptor
        sys.stdout = open(os.devnull, "w")
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except (ValueError, hall.BudgetExceeded) as e:  # bad input, or too big
        print(f"qhall: {e}", file=sys.stderr)
        return 2
    except RecursionError:  # past the interpreter's stack, as too big
        print("qhall: input too deeply nested or too long", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _stdout_to_devnull()
        return 141


if __name__ == "__main__":
    sys.exit(main())

"""One measured process of the benchmark.

``run.py`` starts this file once per round (or once per set-up sample) as
``python3 perfbench/worker.py '<json spec>'`` and reads the JSON object it
prints on its last line.  The process sets up (imports the package, builds
the data and sessions, and on ``u-queries`` fills the caches), runs the
timed phase through the package's public API, checks every output against
``oracles`` or an algebraic identity, and reports what it measured.

The spec keys are ``workload``, ``seed``, ``rounds`` (``u-queries`` only:
how many query rounds to time), ``t_spawn`` (the parent's
``time.monotonic()`` just before it started this process), ``setup_only``,
``trace``, ``trace_out`` (where the traced run writes its spans), ``smoke``
(tiny sizes for the harness's own tests) and ``src`` (the package source
directory).
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from hostclock import HostClock  # noqa: E402

SUITES = ("f", "u", "ti", "braid", "double")

# (label, quiver shorthand, Session overrides) per workload and size.
# A3 runs the symbolic suites with weight bound 3 and T~ degree 2: at the
# defaults its `ti` suite alone takes a minute and 560 MB.
SYMBOLIC = {
    "full": [
        ("A2", "1->2", {}),
        ("A3", "1->2,2->3", {"weight_bound": 3, "ttilde_degree": 2}),
    ],
    "smoke": [("A2", "1->2", {"weight_bound": 2, "hopf_degree": 1, "ttilde_degree": 1})],
}
HALL = {
    "full": ("A3", "1->2,2->3", {}),
    "smoke": ("A2", "1->2", {"hall_bound": (1, 1), "hall_qs": (2,)}),
}
# the Hall counting identity is checked on every split of every dimension
# vector up to this bound at q = 2
HALL_IDENTITY = {"full": ((1, 1, 1), 2), "smoke": ((1, 1), 2)}
# (quiver, highest word height) of the query stream
QUERIES = {"full": ("1->2,2->3", 2), "smoke": ("1->2", 1)}
# After the timed stream, T_i(xy) = T_i(x) T_i(y) is checked on this many
# extra seeded single-term products whose four words have at most this
# total height: at height 3 a check took at most 1.6 s, at height 4 up to
# 13 s, and four checks on products picked from the stream took over two
# minutes
HOM_CHECKS = 4
HOM_CHECK_HEIGHT = 3
QUERY_KINDS = ("ti", "ttilde", "mul")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Operation counts and the first few wrong outputs of one process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.correct = True

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.correct = False
            self._note(what)

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self._note("failed: " + what)

    def _note(self, what: str) -> None:
        if len(self.wrong) < 20:
            self.wrong.append(what)


# ---------------------------------------------------------------------------
# the verify workloads


def _session(qhall, spec: str, overrides: dict):
    datum = qhall.cartan.load_datum(qhall.cartan.load_quiver(spec))
    return qhall.verify.Session(datum=datum, **overrides)


def _verify(qhall, label, session, suites, out: Outcome, checks: dict) -> None:
    """Run the suites on one quiver and count each check as one operation."""
    for suite in suites:
        try:
            results = qhall.verify.run_suite(session, suite)
        except Exception as exc:  # a raising check aborts its whole suite
            out.fail(f"{label} {suite}: {type(exc).__name__}: {exc}")
            continue
        for r in results:
            checks[f"{label}.{r.name}"] = r.millis
            if r.status == "skip":
                out.fail(f"{label} {r.name} skipped: {r.detail}")
            else:
                out.op(r.status == "pass", f"{label} {r.name}: {r.status}")


def symbolic_setup(qhall, size: str, out: Outcome) -> list:
    return [(label, _session(qhall, spec, kw)) for label, spec, kw in SYMBOLIC[size]]


def symbolic_verify(qhall, size: str, spec: dict, sessions, timer, out: Outcome) -> dict:
    checks: dict = {}
    timer.start()
    for label, session in sessions:
        _verify(qhall, label, session, SUITES, out, checks)
    timer.stop()
    # dim f_nu against Kostant's partition count of A_n
    for label, session in sessions:
        datum = session.datum
        for nu in oracles.vectors_of_height_upto(datum.rank, session.weight_bound):
            got = qhall.falgebra.weight_basis(datum, nu).dim
            want = oracles.kostant_count_a(nu)
            out.op(got == want, f"{label} dim f_{nu} = {got}, Kostant count {want}")
    return {"checks": checks, "latencies_ms": [timer.seconds * 1000.0]}


def hall_setup(qhall, size: str, out: Outcome):
    label, spec, kw = HALL[size]
    return label, _session(qhall, spec, kw)


def hall_verify(qhall, size: str, spec: dict, state, timer, out: Outcome) -> dict:
    label, session = state
    checks: dict = {}
    timer.start()
    _verify(qhall, label, session, ("hall",), out, checks)
    timer.stop()
    hall = qhall.hall
    quiver = session.datum.quiver
    bound = session.hall_dims()
    for q in session.hall_qs:
        for dims in oracles.vectors_upto(bound):
            classes = hall.iso_classes(quiver, q, dims, session.budget)
            sizes = [size_ for _rep, size_ in classes]
            order = oracles.group_order(q, dims)
            points = q ** oracles.rep_space_dim(quiver.vertices, quiver.arrows, dims)
            ok = (
                len(classes) == oracles.kostant_count_a(dims)
                and sum(sizes) == points
                and all(order % s == 0 for s in sizes)
            )
            out.op(ok, f"{label} q={q} dims={dims}: classes/orbit sizes")
    top, q = HALL_IDENTITY[size]
    for d in oracles.vectors_upto(top):
        for e in oracles.vectors_upto(d):
            if not any(e) or e == d:
                continue
            out.op(_hall_identity(hall, quiver, q, d, e), f"{label} Hall identity d={d} e={e}")
    return {"checks": checks, "latencies_ms": [timer.seconds * 1000.0]}


def _hall_identity(hall, quiver, q: int, d: tuple, e: tuple) -> bool:
    """sum_M |O_M| F^M_{N,L} against the closed count, for all L, N."""
    f = tuple(a - b for a, b in zip(d, e))

    def reps(dims):
        return [
            (hall.QuiverRep(quiver, q, dims, rep), size)
            for rep, size in hall.iso_classes(quiver, q, dims)
        ]

    ms, ls, ns = reps(d), reps(e), reps(f)
    for L, size_l in ls:
        for N, size_n in ns:
            lhs = sum(size_m * hall.hall_number(M, N, L) for M, size_m in ms)
            rhs = oracles.hall_identity_rhs(
                quiver.vertices, quiver.arrows, q, d, e, size_l, size_n
            )
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# the query workload


def _coefficient(qhall, rng: random.Random):
    """A random non-unit element of Q(v)."""
    rf = qhall.ratfunc
    dens = (
        rf.IntPoly({0: 1}),
        rf.IntPoly({-1: 1, 1: 1}),      # [2]
        rf.IntPoly({0: 1, 2: 1}),
        rf.IntPoly({0: 1, 1: 1, 2: 1}),
        rf.IntPoly({0: -1, 2: 1}),
    )
    while True:
        e1, e2 = rng.sample(range(-2, 3), 2)
        num = rf.IntPoly({e1: rng.choice((-3, -2, -1, 1, 2, 3)), e2: rng.choice((-2, -1, 1, 2))})
        c = rf.RatFunc(num, rng.choice(dens))
        unit = len(c.num.coeffs) == 1 and c.den == rf.ONE_POLY and abs(
            next(iter(c.num.coeffs.values()))
        ) == 1
        if not c.is_zero() and not unit:
            return c


def _element(qhall, datum, words: dict, heights: list, rng: random.Random):
    """One term F K E per (F height, E height) pair: seeded words of those
    heights, coweight in {-1, 0, 1}^rank and Q(v) coefficient."""
    terms = {}
    for hf, he in heights:
        key = (
            rng.choice(words[hf]),
            tuple(rng.choice((-1, 0, 1)) for _ in range(datum.rank)),
            rng.choice(words[he]),
        )
        terms[key] = _coefficient(qhall, rng)
    return qhall.ualgebra.UElement(datum, terms)


def _counit(x, zero):
    """epsilon(F K E) is the coefficient when both words are empty."""
    total = zero
    for (fw, _mu, ew), c in x.terms.items():
        if not fw and not ew:
            total = total + c
    return total


def _degrees(datum, x) -> set:
    """E-weight minus F-weight of each term, computed from the words."""
    out = set()
    for fw, _mu, ew in x.terms:
        deg = [0] * datum.rank
        for a in ew:
            deg[datum.vertices.index(a)] += 1
        for a in fw:
            deg[datum.vertices.index(a)] -= 1
        out.add(tuple(deg))
    return out


def _query_words(qhall, datum, height: int) -> dict:
    """Basis words of f by height, up to the given height."""
    words: dict = {h: [] for h in range(height + 1)}
    for nu in oracles.vectors_of_height_upto(datum.rank, height):
        words[sum(nu)].extend(qhall.falgebra.weight_basis(datum, nu).basis_words)
    return words


def _height_pairs(words: dict) -> list:
    return [(a, b) for a in words for b in words]


def _round_plan(datum, words: dict) -> list:
    """The fixed make-up of a round: (kind, vertex, term heights of x,
    term heights of y) per query.  Every (kind, number of terms, vertex)
    meets every (F height, E height) pair once, so only the words within a
    height, the coweights and the coefficients come from the seed."""
    pairs = _height_pairs(words)
    plan = []
    for c in range(len(pairs)):
        for kind in QUERY_KINDS:
            for n in (1, 2, 3):
                for i in datum.vertices:
                    xh = [pairs[(c + 3 * t) % len(pairs)] for t in range(n)]
                    yh = [pairs[(c + 3 * t + 1) % len(pairs)] for t in range(n)]
                    plan.append((kind, i, xh, yh))
    return plan


def _warm_up(qhall, datum, words: dict) -> None:
    """Fill the weight bases, word normal forms, straightening table and
    generator images that the query stream reads."""
    ua, sym = qhall.ualgebra, qhall.symmetries
    zero = datum.zero_vec()
    one = qhall.ratfunc.ONE
    words = [w for ws in words.values() for w in ws]
    for ew in words:
        for fw in words:
            ua.u_mul(
                ua.UElement(datum, {((), zero, ew): one}),
                ua.UElement(datum, {(fw, zero, ()): one}),
            )
    for i in datum.vertices:
        for w in words:
            for key in ((w, zero, ()), ((), zero, w)):
                x = ua.UElement(datum, {key: one})
                sym.ti_inverse_apply(i, sym.ti_apply(i, x))
                sym.t_tilde_apply(i, x)


def u_queries_setup(qhall, size: str, out: Outcome):
    """Build A3 and fill the caches: generator images of every query word,
    then one round of queries drawn from a fixed seed, so that the timed
    rounds run on warm caches whatever --seed is."""
    spec, height = QUERIES[size]
    datum = qhall.cartan.load_datum(qhall.cartan.load_quiver(spec))
    words = _query_words(qhall, datum, height)
    _warm_up(qhall, datum, words)
    state = datum, words, _round_plan(datum, words)
    _query_round(qhall, state, "warm-up", 0, out, [], time.monotonic)
    return state


def _query_round(qhall, state, seed, k: int, out: Outcome, lat: list, clock):
    """One round of the stream; each query's latency on clock() goes to
    lat."""
    ua, sym = qhall.ualgebra, qhall.symmetries
    datum, words, plan = state
    rng = random.Random(f"u-queries:{seed}:{k}")
    for kind, i, xh, yh in plan:
        x = _element(qhall, datum, words, xh, rng)
        y = _element(qhall, datum, words, yh, rng) if kind == "mul" else None
        try:
            if kind == "ti":
                t0 = clock()
                z = sym.ti_inverse_apply(i, sym.ti_apply(i, x))
                lat.append((clock() - t0) * 1000.0)
                out.op(z == x, f"T_{i}^-1 T_{i} x != x for x = {x}")
            elif kind == "ttilde":
                t0 = clock()
                a = sym.t_tilde_apply(i, x)
                b = sym.ti_apply(i, x)
                lat.append((clock() - t0) * 1000.0)
                out.op(a == b, f"T~_{i} x != T_{i} x for x = {x}")
            else:
                t0 = clock()
                p = ua.u_mul(x, y)
                lat.append((clock() - t0) * 1000.0)
                zero = qhall.ratfunc.ZERO
                counit_ok = _counit(p, zero) == _counit(x, zero) * _counit(y, zero)
                sums = {tuple(a + b for a, b in zip(dx, dy))
                        for dx in _degrees(datum, x) for dy in _degrees(datum, y)}
                out.op(counit_ok and _degrees(datum, p) <= sums, f"u_mul identities for {x} * {y}")
        except Exception as exc:
            out.fail(f"{kind} query: {type(exc).__name__}: {exc}")


def _hom_check(qhall, state, seed, k: int, out: Outcome) -> None:
    """T_i(xy) = T_i(x) T_i(y) on one seeded product of single terms."""
    ua, sym = qhall.ualgebra, qhall.symmetries
    datum, words, _plan = state
    rng = random.Random(f"u-queries-hom:{seed}:{k}")
    pairs = _height_pairs(words)
    while True:
        hx, hy = rng.choice(pairs), rng.choice(pairs)
        if sum(hx) + sum(hy) <= HOM_CHECK_HEIGHT:
            break
    x = _element(qhall, datum, words, [hx], rng)
    y = _element(qhall, datum, words, [hy], rng)
    i = rng.choice(datum.vertices)
    try:
        lhs = sym.ti_apply(i, ua.u_mul(x, y))
        rhs = ua.u_mul(sym.ti_apply(i, x), sym.ti_apply(i, y))
    except Exception as exc:
        out.fail(f"homomorphism check: {type(exc).__name__}: {exc}")
        return
    out.op(lhs == rhs, f"T_{i}(xy) != T_{i}(x) T_{i}(y) for x = {x}, y = {y}")


def u_queries(qhall, size: str, spec: dict, state, timer, out: Outcome) -> dict:
    seed = spec["seed"]
    lat: list = []
    rounds: list = []
    clock = timer.clock.now
    timer.start()
    for k in range(spec["rounds"]):
        t0 = clock()
        _query_round(qhall, state, seed, k, out, lat, clock)
        rounds.append(clock() - t0)
    timer.stop()
    for k in range(HOM_CHECKS):
        _hom_check(qhall, state, seed, k, out)
    return {"latencies_ms": lat, "round_s": rounds}


# ---------------------------------------------------------------------------


WORKLOADS = {
    "symbolic-verify": (symbolic_setup, symbolic_verify),
    "hall-verify": (hall_setup, hall_verify),
    "u-queries": (u_queries_setup, u_queries),
}


class Timer:
    """Marks the timed phase on the worker's clock (``hostclock``), and in
    wall seconds less the clock's probes.  When it stops, peak RSS is read
    and the clock and the tracer (if any) are taken out, before the output
    checks run."""

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer

    def start(self):
        self.t_start = self.clock.now()
        self.w_start = time.monotonic() - self.clock.probe_s

    def stop(self):
        self.t_stop = self.clock.now()
        self.wall_s = time.monotonic() - self.clock.probe_s - self.w_start
        self.clock.stop()
        self.rss_mb = _rss_mb()
        if self.tracer is not None:
            self.tracer.uninstall()

    @property
    def seconds(self) -> float:
        return self.t_stop - self.t_start


def _layer_report(tracer, trace_out: str | None) -> dict:
    from tracer import MAX_SPANS

    stats = tracer.cache_stats()
    lookups = stats["hits"] + stats["misses"]
    orbit_calls = tracer.calls["hall.orbit_of"]
    report = {
        "self_s": tracer.self_seconds(),
        "traced_s": tracer.wall_s,
        "ratfunc_calls": sum(n for k, n in tracer.calls.items() if k.startswith("ratfunc.")),
        "calls": {k: tracer.calls[k] for k in (
            "linalg.rref", "ualgebra.u_mul", "symmetries.ti_apply",
            "hall.hall_number", "hall.orbit_of")},
        "inclusive_s": dict(tracer.inclusive_s),
        "evals": tracer.eval_counts(),
        "orbit_points": tracer.orbit_points,
        "orbit_points_per_call": tracer.orbit_points / orbit_calls if orbit_calls else 0.0,
        "cache_entries": stats["entries"],
        "cache_hit_rate": stats["hits"] / lookups if lookups else 0.0,
        "wrapped": sorted(tracer.wrapped),
        "spans": len(tracer.spans),
        "spans_capped": len(tracer.spans) >= MAX_SPANS,
    }
    if trace_out:
        Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
        with open(trace_out, "w") as fh:
            json.dump(
                {
                    "layers": {k: v for k, v in report.items() if k != "wrapped"},
                    "span_summary": tracer.span_summary(),
                    "spans": [s for s in tracer.spans if s is not None],
                },
                fh,
            )
    return report


def main(spec: dict) -> dict:
    clock = HostClock(spec["t_spawn"])
    clock.start()
    sys.path.insert(0, spec["src"])
    import qhall.cartan  # noqa: F401
    import qhall.falgebra  # noqa: F401
    import qhall.hall  # noqa: F401
    import qhall.ratfunc  # noqa: F401
    import qhall.symmetries  # noqa: F401
    import qhall.ualgebra  # noqa: F401
    import qhall.verify  # noqa: F401

    qhall = sys.modules["qhall"]
    size = "smoke" if spec.get("smoke") else "full"
    setup, timed = WORKLOADS[spec["workload"]]
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = Outcome()
    timer = Timer(clock, tracer)
    state = setup(qhall, size, out)
    if spec.get("setup_only"):
        setup_s = clock.now()
        clock.stop()
        return {"setup_s": setup_s, "wall_setup_s": time.monotonic() - spec["t_spawn"]}
    wall_setup_s = time.monotonic() - spec["t_spawn"]
    info = timed(qhall, size, spec, state, timer, out)
    result = {
        "setup_s": timer.t_start,
        "run_s": timer.seconds,
        "wall_setup_s": wall_setup_s,
        "wall_run_s": timer.wall_s,
        "host_speed": clock.mean_speed(),
        "rss_mb": timer.rss_mb,
        "attempted": out.attempted,
        "failed": out.failed,
        "correct": out.correct,
        "wrong": out.wrong,
        **info,
    }
    if tracer is not None:
        result["layers"] = _layer_report(tracer, spec.get("trace_out"))
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

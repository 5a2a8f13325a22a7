"""Benchmark for qhall: cold symbolic verification, cold Hall oracle and
warm queries on U.

    python3 perfbench/run.py --workload symbolic-verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every measured round is a fresh
worker process (``worker.py``), started one at a time.  Times are read on
the worker's ``hostclock``: seconds at a fixed reference speed of the
host, so that a shared host's changes of speed do not show as changes of
the program.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Full results go to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("symbolic-verify", "hall-verify", "u-queries")
# Set-up samples per run.  A verify set-up takes about 0.11 s, and single
# samples of it range from 0.09 s to 0.17 s on the host clock, so it is
# sampled often; each u-queries sample repeats its 1 s cache warm-up.
SETUP_SAMPLES = {"symbolic-verify": 11, "hall-verify": 11, "u-queries": 3}
# Rounds per 20 s of --seconds: a round takes about 12 s, 31 s and 1 s of
# wall time on a 2-core machine.  The count depends on --seconds alone, so
# the same --seconds means the same work whatever the speed of the commit.
# A query round's cost depends on its seeded words and coefficients (its
# time varies by a quarter between seeds), so u-queries times 30 of them.
ROUNDS_PER_20_S = {"symbolic-verify": 2, "hall-verify": 1, "u-queries": 30}
# a percentile needs this many samples to have ten beyond its 90th
TAIL_SAMPLES = 100
# the whole run, workers included, stays below this many seconds
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
)
CHECK_METRICS = (
    ("A2", "ti-subalgebra-equivalence"),
    ("A2", "ti-decomposition-route"),
    ("A3", "f-serre-ideal"),
    ("A3", "u-hopf-axioms"),
    ("A3", "ti-subalgebra-equivalence"),
    ("A3", "ti-decomposition-route"),
    ("A3", "hall-orbit-stabilizer"),
    ("A3", "hall-bgp-bijection"),
    ("A3", "hall-structure-agreement"),
)
PER_LAYER = (
    ("ratfunc.self_s", "s"),
    ("ratfunc.calls", "count"),
    ("cartan.self_s", "s"),
    ("freealg.self_s", "s"),
    ("freealg.form_evals", "count"),
    ("falgebra.self_s", "s"),
    ("falgebra.weight_basis_s", "s"),
    ("falgebra.normal_form_evals", "count"),
    ("linalg.self_s", "s"),
    ("linalg.rref_calls", "count"),
    ("ualgebra.self_s", "s"),
    ("ualgebra.u_mul_calls", "count"),
    ("ualgebra.straighten_evals", "count"),
    ("symmetries.self_s", "s"),
    ("symmetries.ti_apply_calls", "count"),
    ("symmetries.t_tilde_s", "s"),
    ("double.self_s", "s"),
    ("hall.self_s", "s"),
    ("hall.orbit_points", "count"),
    ("hall.orbit_points_per_call", "points/call"),
    ("hall.iso_classes_s", "s"),
    ("hall.hall_number_s", "s"),
    ("hall.hall_number_calls", "count"),
    ("verify.self_s", "s"),
    ("cache.entries", "count"),
    ("cache.hit_rate", "ratio"),
    ("trace.overhead_s", "s"),
) + tuple((f"check.{q}.{c}_ms", "ms") for q, c in CHECK_METRICS)


class HarnessError(RuntimeError):
    pass


class Run:
    """Starts the workers of one run, one at a time, within the run budget."""

    def __init__(self, workload: str, seed: int, seconds: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workers: list = []

    def worker(self, **extra) -> dict:
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "smoke": self.smoke,
            "src": str(ROOT / "src"),
            **extra,
        }
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("run budget exhausted")
        spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                capture_output=True, text=True, timeout=remaining, cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"worker exceeded the run budget: {spec}") from exc
        if proc.returncode != 0:
            raise HarnessError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise HarnessError(f"worker printed no result:\n{proc.stderr[-4000:]}") from exc
        self.workers.append(result)
        return result

    def rounds(self) -> int:
        return max(1, round(ROUNDS_PER_20_S[self.workload] * self.seconds / 20))

    def measured(self) -> tuple[list, list]:
        """The untraced workers: one per round, or on u-queries one worker
        that times every round on the same warm caches.  Set-up-only
        workers are spread between them, so the set-up samples span the
        run.  Returns the round workers and every set-up sample."""
        if self.workload == "u-queries":
            jobs = [{"rounds": self.rounds()}]
        else:
            jobs = [{}] * self.rounds()
        extra = SETUP_SAMPLES[self.workload] - len(jobs)
        slots = len(jobs) + 1  # before each round worker and after the last
        rounds, setups = [], []
        for k in range(slots):
            for _ in range(extra * (k + 1) // slots - extra * k // slots):
                setups.append(self.worker(setup_only=True)["setup_s"])
            if k < len(jobs):
                rounds.append(self.worker(**jobs[k]))
                setups.append(rounds[-1]["setup_s"])
        return rounds, setups


def _round_times(rounds: list) -> list:
    """Seconds per round: a verify worker runs one round, the u-queries
    worker times several."""
    out = []
    for r in rounds:
        out.extend(r.get("round_s", [r["run_s"]]))
    return out


def end_to_end(rounds: list, setups: list) -> dict:
    """The verify workloads make one request per round, too few for a tail,
    so there query_p90_ms is the median as well."""
    lat = [x for r in rounds for x in r["latencies_ms"]]
    p50 = statistics.median(lat)
    if len(lat) >= TAIL_SAMPLES:
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    else:
        p90 = p50
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "query_p50_ms": p50,
        "query_p90_ms": p90,
    }


def per_layer(traced: dict, rounds: list) -> tuple[dict, list]:
    """Per-layer values from the traced worker; check timings from the
    untraced rounds.  Returns the values and the names found absent."""
    layers = traced["layers"]
    values: dict = {}
    absent: list = []

    def put(name, value):
        if value is None:
            absent.append(name)
            value = 0
        values[name] = value

    wrapped = set(layers["wrapped"])
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s") and name.count(".") == 1:
            layer = name.split(".")[0]
            known = any(w.startswith(layer + ".") for w in wrapped)
            put(name, layers["self_s"].get(layer, 0.0) if known else None)
    put("ratfunc.calls", layers["ratfunc_calls"] if "ratfunc.RatFunc.__mul__" in wrapped else None)
    for metric, fn in (
        ("linalg.rref_calls", "linalg.rref"),
        ("ualgebra.u_mul_calls", "ualgebra.u_mul"),
        ("symmetries.ti_apply_calls", "symmetries.ti_apply"),
        ("hall.hall_number_calls", "hall.hall_number"),
    ):
        put(metric, layers["calls"][fn] if fn in wrapped else None)
    for metric, fn in (
        ("falgebra.weight_basis_s", "falgebra.weight_basis"),
        ("symmetries.t_tilde_s", "symmetries.t_tilde_apply"),
        ("hall.iso_classes_s", "hall.iso_classes"),
        ("hall.hall_number_s", "hall.hall_number"),
    ):
        put(metric, layers["inclusive_s"].get(fn, 0.0) if fn in wrapped else None)
    for metric, value in layers["evals"].items():
        put(metric, value)
    orbit = "hall.orbit_of" in wrapped
    put("hall.orbit_points", layers["orbit_points"] if orbit else None)
    put(
        "hall.orbit_points_per_call",
        layers["orbit_points_per_call"] if orbit and layers["calls"]["hall.orbit_of"] else None,
    )
    put("cache.entries", layers["cache_entries"])
    put("cache.hit_rate", layers["cache_hit_rate"])
    put("trace.overhead_s", traced["run_s"] - statistics.median(_round_times(rounds)))
    for quiver, check in CHECK_METRICS:
        key = f"{quiver}.{check}"
        ms = [r["checks"][key] for r in rounds if key in r.get("checks", {})]
        put(f"check.{key}_ms", statistics.median(ms) if ms else None)
    return values, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qhall" / "__init__.py").is_file():
        print(f"perfbench: no qhall sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    prefix = "smoke-" if args.smoke else ""
    run = Run(args.workload, args.seed, args.seconds, args.smoke)
    try:
        rounds, setups = run.measured()
        traced = None
        if args.trace:
            RESULTS.mkdir(parents=True, exist_ok=True)
            trace_out = RESULTS / f"{prefix}trace-{args.workload}-seed{args.seed}.json"
            extra = {"rounds": 1} if args.workload == "u-queries" else {}
            traced = run.worker(trace=True, trace_out=str(trace_out), **extra)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # set-up-only workers report no operations
    workers = [w for w in run.workers if "attempted" in w]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = all(w["correct"] for w in workers)
    for w in workers:
        for line in w.get("wrong", []):
            print(f"perfbench: {line}")
    if traced is None:
        values = end_to_end(rounds, setups)
        units = dict(END_TO_END)
        absent: list = []
    else:
        values, absent = per_layer(traced, rounds)
        units = dict(PER_LAYER)
        print(f"perfbench: tracing overhead {values['trace.overhead_s']:.3f} s "
              f"(traced round minus the untraced median)")
        if absent:
            print(f"perfbench: absent per-layer metrics (reported as 0): {', '.join(absent)}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = dict(result, absent=absent, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, setup_samples=setups, workers=run.workers)
    name = f"{prefix}{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RESULTS / name, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Quick checks of the benchmark itself: its oracles on hand-checked
values, the Hall counting identity on one small case, and a smoke-sized
run of each workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402


@pytest.mark.parametrize(
    "nu, count",
    [
        ((0, 0), 1),
        ((1, 0), 1),
        ((1, 1), 2),        # a1 + a2, or the root a1+a2
        ((2, 1), 2),
        ((2, 2), 3),
        ((1, 1, 1), 4),     # 1+2+3, 12+3, 1+23, 123
        ((1, 2, 1), 5),
        ((3,), 1),
    ],
)
def test_kostant_count_hand_values(nu, count):
    assert oracles.kostant_count_a(nu) == count


def test_positive_roots_of_a3():
    assert len(oracles.positive_roots_a(3)) == 6
    assert (1, 1, 1) in oracles.positive_roots_a(3)
    assert (1, 0, 1) not in oracles.positive_roots_a(3)


def test_counting_helpers():
    assert oracles.gaussian_binomial(4, 2, 2) == 35
    assert oracles.gaussian_binomial(3, 1, 3) == 13
    assert oracles.gl_order(2, 2) == 6
    assert oracles.gl_order(3, 2) == 48
    assert oracles.group_order(2, (2, 1)) == 6
    assert oracles.rep_space_dim((1, 2, 3), ((1, 2), (2, 3)), (2, 2, 1)) == 6


def test_hall_identity_small_case():
    import worker
    from qhall import hall
    from qhall.cartan import load_quiver

    quiver = load_quiver("1->2")
    for d, e in (((1, 1), (0, 1)), ((1, 1), (1, 0)), ((2, 1), (1, 1))):
        assert worker._hall_identity(hall, quiver, 2, d, e)


def test_host_clock_leaves_out_its_probes():
    import time

    import hostclock

    t0 = time.monotonic()
    clock = hostclock.HostClock(t0)
    clock.start()
    while time.monotonic() - t0 < 0.5:
        sum(range(1000))
    reading = clock.now()
    wall = time.monotonic() - t0 - clock.probe_s
    clock.stop()
    assert len(clock.speeds) >= 10
    assert min(clock.speeds) > 0
    # each stretch between probes is scaled by the speed of the probe before it
    assert min(clock.speeds) * 0.9 <= reading / wall <= max(clock.speeds) * 1.1


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["symbolic-verify", "hall-verify", "u-queries"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = _declared()["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert "tracing overhead" in proc.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "u-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

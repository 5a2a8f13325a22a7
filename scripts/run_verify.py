#!/usr/bin/env python3
"""Run every verification suite over a few standard quivers and print a
summary table.  Exit code 0 means nothing failed anywhere."""

import sys
import time

from qhall.cartan import load_datum, load_quiver
from qhall.verify import Session, run_suite

DATA = [
    ("A1", '{"vertices": [1], "arrows": []}'),
    ("A2", "1->2"),
    ("A2-reversed", "2->1"),
    ("A3", "1->2,2->3"),
]


def main() -> int:
    failures = 0
    for label, spec in DATA:
        session = Session(datum=load_datum(load_quiver(spec)))
        start = time.perf_counter()
        results = run_suite(session, "all")
        elapsed = time.perf_counter() - start
        bad = [r for r in results if not r.ok]
        skipped = [r for r in results if r.status == "skip"]
        failures += len(bad)
        print(
            f"{label:12} {len(results):3d} checks, "
            f"{len(bad)} failed, {len(skipped)} skipped, {elapsed:6.1f}s"
        )
        for r in bad:
            print(f"    {r.status.upper()} {r.name}: {r.detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

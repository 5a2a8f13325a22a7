#!/usr/bin/env python3
"""Run the verification suites listed for each of a few standard quivers
and print a summary table.  Exit code 0 means nothing failed anywhere.
Each row names a quiver, its suites and the Session settings that differ
from the defaults.

The f suite also runs on D4 with its branch vertex labelled 2 and on the
path 1 - 3 - 2, where the alphabet order of the good Lyndon words is not
the order along the Dynkin diagram.  The ti suite runs on that path too,
so T_i and T~_i are exercised at a middle vertex whose id is 3, and so
does the hall suite: the middle vertex 3 is a sink there, so its bricks,
class tables and Hall numbers are not those of 1->2->3, and the
memoized class-pair products run end to end on a third orientation of
A3.  The u suite runs on that D4 too: words through the branch vertex 2
concatenate into words off the weight bases, so the products and
antipodes there meet normal forms of several terms.  The hall suite
also runs on that D4, whose branch vertex is a source: its class tables
come from Kostant partitions, and hall-bgp-bijection reflects at each
of the three sinks.  It also runs
on D4 with its branch vertex a sink, where hall-bgp-bijection reflects
(2,0,1,1) to (2,4,1,1): the table of that dimension vector lists its
classes without walking its 3^16 points at q = 3, so the budget counts
classes there.  The u, double and f suites run on the Kronecker quiver,
whose a_12 = -2 puts the product and antipode twists off the
simply-laced data; its ti suite is left out for its time: it passes,
but ti-subalgebra-equivalence alone takes minutes, as no budget bounds
it yet.  Its f-dims-kostant compares with the Weyl-Kac dimension alone, as
there is no Kostant count.  Its hall suite classifies by orbit search,
the route of every quiver that is not Dynkin.  The row has one skip:
hall-bgp-bijection, as orbit search for the class table of a reflected
dimension vector would walk 3^16 points at q = 3, over the default
budget.  The hall suite runs on E6 at hall bound (1,1,1,0,0,0):
hall-orientation-independence walks all 32 of its orientations at that
bound capped at 1 per vertex.  The E6-f row runs the f suite on E6 at
the defaults, where the alphabet order matters most: f-dims-kostant
compares its weight bases to weight 4 with the greedy pass, the
Weyl-Kac dimension and the Kostant count.

Every orientation of a graph loads the same datum, its vertices and
Cartan matrix, so rows of one graph share the symbolic memos in this one
process: A2 and A2-reversed, D4 and D4-centre-sink, and E6 and E6-f.  A
later row of such a pair reads the weight bases, normal forms and U and
T_i tables the earlier one built; only its Hall side is its own.  A3 and
1->3,3->2 do not share: the path 1 - 3 - 2 has another Cartan matrix on
the same vertex ids."""

import sys
import time

from qhall.cartan import load_datum, load_quiver
from qhall.verify import Session, run_suite

DATA = [
    ("A1", '{"vertices": [1], "arrows": []}', ("all",), {}),
    ("A2", "1->2", ("all",), {}),
    ("A2-reversed", "2->1", ("all",), {}),
    ("A3", "1->2,2->3", ("all",), {}),
    ("A3-1->3,3->2", "1->3,3->2", ("f", "ti", "hall"), {}),
    ("D4", "2->1,2->3,2->4", ("f", "u", "hall"), {}),
    ("D4-centre-sink", "1->2,3->2,4->2", ("hall",), {}),
    ("Kronecker", "1->2,1->2", ("u", "double", "f", "hall"), {}),
    ("E6", "1->2,2->3,3->4,4->5,3->6", ("hall",), {"hall_bound": (1, 1, 1, 0, 0, 0)}),
    ("E6-f", "1->2,2->3,3->4,4->5,3->6", ("f",), {}),
]


def main() -> int:
    failures = 0
    for label, spec, suites, overrides in DATA:
        session = Session(datum=load_datum(load_quiver(spec)), **overrides)
        start = time.perf_counter()
        results = [r for suite in suites for r in run_suite(session, suite)]
        elapsed = time.perf_counter() - start
        bad = [r for r in results if not r.ok]
        skipped = [r for r in results if r.status == "skip"]
        failures += len(bad)
        print(
            f"{label:14} {len(results):3d} checks, "
            f"{len(bad)} failed, {len(skipped)} skipped, {elapsed:6.1f}s"
        )
        for r in bad:
            print(f"    {r.status.upper()} {r.name}: {r.detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

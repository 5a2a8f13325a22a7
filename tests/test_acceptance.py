"""Acceptance criteria, one test per criterion, exact arithmetic only.

Each test prints a single pass/fail line; run with `pytest -v
tests/test_acceptance.py` (add -s to see the lines while running).
The same checks back the CLI verify subcommand.
"""

from qhall import hall
from qhall import symmetries as sym
from qhall import verify as vf
from qhall.cartan import A2, A3, dims_upto

S2 = vf.Session(datum=A2, weight_bound=4, hopf_degree=3, ttilde_degree=3)
S3 = vf.Session(datum=A3, weight_bound=4, hall_bound=(2, 2, 1))


def passes(check, s) -> bool:
    """A check passes when `_run` says so; a skip does not count."""
    r = vf._run(check.__name__, check, s)
    if r.status != "pass":
        print(f"{r.status.upper()} {r.name}: {r.detail}")
    return r.status == "pass"


def record(number: int, name: str, ok: bool):
    print(f"acceptance {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_serre_vanishing():
    ok = True
    for s in (S2, S3):
        ok = ok and passes(vf._check_f_serre, s)
        ok = ok and passes(vf._check_u_serre, s)
    record(1, "serre-vanishing", ok)


def test_criterion_02_hopf_axioms():
    record(2, "hopf-axioms", passes(vf._check_u_hopf, S2))


def test_criterion_03_symmetry_tables():
    ok = True
    for s in (S2, S3):
        ok = ok and passes(vf._check_ti_tables, s)
        ok = ok and passes(vf._check_ti_inverse, s)
        ok = ok and passes(vf._check_ti_homomorphism, s)
    record(3, "symmetry-tables", ok)


def test_criterion_04_subalgebra_equivalence():
    ok = passes(vf._check_ti_subalgebra, S2)
    ok = ok and passes(vf._check_ti_subalgebra, S3)
    record(4, "subalgebra-equivalence", ok)


def test_criterion_05_decomposition_theorem():
    ok = True
    for s in (S2, S3):
        ok = ok and passes(vf._check_f_decomposition, s)
    record(5, "divided-power-decomposition", ok)


def test_criterion_06_decomposition_route_diagram():
    record(6, "decomposition-route-diagram", passes(vf._check_ti_ttilde, S2))


def test_criterion_07_braid_relations():
    ok = all(lhs == rhs for _g, lhs, rhs in sym.braid_sides(A2, 1, 2))
    ok = ok and all(lhs == rhs for _g, lhs, rhs in sym.braid_sides(A3, 1, 3))
    record(7, "braid-relations", ok)


def test_criterion_08_double_recovers_u():
    ok = passes(vf._check_double_calibration, S2)
    ok = ok and passes(vf._check_double_cross, S2)
    ok = ok and passes(vf._check_double_iso, S2)
    record(8, "double-recovers-u", ok)


def test_criterion_09_hall_oracle_agreement():
    bound = (2, 2)
    ok = True
    for nu_a in dims_upto(bound):
        for nu_b in dims_upto(bound):
            total = tuple(a + b for a, b in zip(nu_a, nu_b))
            if any(t > b for t, b in zip(total, bound)):
                continue
            if not any(nu_a) or not any(nu_b):
                continue
            report = hall.specialize_compare(A2.quiver, nu_a, nu_b, 4)
            ok = ok and all(lhs == rhs for _w1, _w2, lhs, rhs in report)
    record(9, "hall-oracle-agreement", ok)


def test_criterion_10_stratification_shadow():
    ok = passes(vf._check_hall_partition, S2)
    ok = ok and passes(vf._check_hall_partition, S3)
    ok = ok and passes(vf._check_hall_bgp, S2)
    ok = ok and passes(vf._check_hall_bgp, S3)
    record(10, "stratification-shadow", ok)


def test_criterion_11_orientation_independence():
    ok = passes(vf._check_f_orientation, S2)
    ok = ok and passes(vf._check_f_orientation, S3)
    ok = ok and passes(vf._check_hall_orientation, S2)
    ok = ok and passes(vf._check_hall_orientation, S3)
    record(11, "orientation-independence", ok)

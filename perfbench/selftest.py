"""Checks of the benchmark itself; about 15 seconds.

    python3 perfbench/selftest.py

* A corrupted golden expectation makes ``error_rate`` positive on real
  pass outputs, while the true table gives 0.
* The oracles accept known covers and lattices and reject known
  non-covers.
* Traced wrappers reach calls made through by-name imports and through
  the search's recursion.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction

from run import SRC, Runner, WORKLOADS
import golden
import oracles

sys.path.insert(0, str(SRC))


def require(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def _corrupt(**changes):
    def apply(table):
        table = copy.deepcopy(table)
        table.update(changes)
        return table
    return apply


CORRUPTIONS = {
    "certificates": [
        ("exceptions", _corrupt(ideal_exceptions=("R-RS", golden.NORM_FORM_SYSTEM))),
    ],
    "catalog": [
        ("raw count", _corrupt(raw_count=6130)),
        ("length-6 count", _corrupt(counts_by_length={3: 1, 4: 4, 5: 9, 6: 41})),
    ],
    "scans": [
        ("form verdict", _corrupt(form_verdicts={"F0": True, "sextic-1-0": True, "XY(X+3Y)": True})),
        ("scan count", _corrupt(scan_reports=9)),
    ],
}


def check_golden() -> None:
    runner = Runner()
    for workload in WORKLOADS:
        out = runner.spawn("--workload", workload, "--seed", "0")["outputs"]
        seeded = golden.prepare(workload, 0)
        rate = golden.error_rate(golden.check(workload, out, seeded))
        require(rate == 0, f"{workload}: true golden table gives error_rate 0")
        for label, corrupt in CORRUPTIONS[workload]:
            checks = golden.check(workload, out, seeded, golden=corrupt(golden.GOLDEN))
            rate = golden.error_rate(checks)
            require(rate > 0, f"{workload}: corrupted {label} gives error_rate {float(rate):.3g}")
        if seeded:
            flipped = dict(seeded, cover_bits="10"[int(seeded["cover_bits"][0])]
                           + seeded["cover_bits"][1:])
            rate = golden.error_rate(golden.check(workload, out, flipped))
            require(rate > 0, f"{workload}: one flipped oracle verdict gives error_rate > 0")


def check_oracles() -> None:
    # The length-3 minimal covering of the paper, as column bases.
    length3 = [((2, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 1), (0, 2))]
    require(oracles.covers(length3), "the length-3 covering covers")
    require(not oracles.covers(length3[:2]), "two of its lattices do not cover")
    require(not oracles.covers([((2, 0), (0, 1))] * 6), "one repeated lattice does not cover")
    for p in oracles.LINE_COVER_PRIMES:
        require(oracles.covers(oracles.line_cover(random.Random(p), p)),
                f"the {p + 1} lines mod {p} cover")
    entries = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1))
    require(oracles.lattice_law_holds(entries, [(2, 0), (0, 1)], 2),
            "diag(1/2, 1) maps the even-x lattice into Z^2 with index*det = 1")
    require(not oracles.lattice_law_holds(entries, [(1, 0), (0, 1)], 1),
            "diag(1/2, 1) does not map Z^2 into Z^2")


def check_tracer() -> None:
    from latcover import enumeration, groebner, poly
    import tracer

    t = tracer.Tracer("selftest")
    t.install(tracer.TRACE_PLAN)
    with t.span("selftest"):
        groebner.strong_groebner(groebner.pair_system("R", "R2"))
        enumeration.raw_solutions()
    require(t.count("selftest", "poly.normal_form") > 0,
            "normal_form calls made through groebner's by-name import are counted")
    require(groebner.leading_term is poly.leading_term and t.count_all("poly.leading_term") > 0,
            "groebner's by-name import of leading_term is the counting wrapper")
    require(t.count("selftest", "enumeration.find_lattices") > 1,
            "find_lattices recursion through its module global is counted")
    require(t.count("selftest", "lattices.is_cover") > 0,
            "is_cover calls made through enumeration's by-name import are counted")
    json.dumps(t.spans)  # spans must be writable as JSON


if __name__ == "__main__":
    check_oracles()
    check_tracer()
    check_golden()
    print("selftest passed")

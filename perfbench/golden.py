"""The paper's expected outputs, and the checks that compare one pass's
outputs with them.

Each check is one (name, ok) pair; ``error_rate`` is the share that is
not ok.  The table is written out here rather than imported from the
package, so the benchmark does not check the code against itself.
Basis sizes are reported but not checked: a correct change to the
Gröbner engine may interreduce differently.
"""

from __future__ import annotations

from fractions import Fraction

import oracles

ELEMENTS = ("R", "R2", "S", "RS", "R2S")
#: Gröbner systems of the ``certificates`` workload: both exceptions and
#: two positive systems, one pair and one triple.  All twenty take about
#: 100 s on the reference machine, longer than one run may measure.
CERTIFICATE_SYSTEMS = (("R", "R2"), ("R", "RS"), ("R2", "S", "RS"), ("S", "RS", "R2S"))
#: The one triple whose ideal holds t1^2 + t1*t3 + t3^2 instead of 3.
NORM_FORM_SYSTEM = "S-RS-R2S"

GOLDEN = {
    # 54 minimal coverings, split by length, from 6131 raw search solutions.
    "counts_by_length": {3: 1, 4: 4, 5: 9, 6: 40},
    "total": 54,
    "raw_count": 6131,
    # 3 lies in 18 of the 20 ideals; these two are the exceptions.
    "ideal_exceptions": ("R-R2", NORM_FORM_SYSTEM),
    # run_all_scans: mod 3, 4, 5, three mod-9 lifts, vanishing, quadratic.
    "scan_reports": 8,
    "form_verdicts": {"F0": True, "sextic-1-0": True, "XY(X+3Y)": False},
}


def prepare(workload: str, seed: int):
    """Per-run expectations that depend on the seed: the oracle verdicts
    for the ``catalog`` batch, computed once and shared by every pass."""
    if workload != "catalog":
        return None
    batch, matrices = oracles.catalog_inputs(seed)
    bits = "".join("1" if oracles.covers(members) else "0" for members in batch)
    return {"cover_bits": bits, "matrices": matrices}


def check_certificates(out: dict, golden: dict, _seeded=None):
    names = sorted("-".join(s) for s in CERTIFICATE_SYSTEMS)
    checks = [("systems/all", sorted(out["systems"]) == names)]
    for name, res in sorted(out["systems"].items()):
        expected = name not in golden["ideal_exceptions"]
        checks.append((f"contains-3/{name}", res["contains_3"] == expected))
        if name == NORM_FORM_SYSTEM:
            checks.append((f"norm-form/{name}", res.get("norm_form_in_ideal") is True))
    return checks


def check_catalog(out: dict, golden: dict, seeded: dict):
    checks = [
        (f"count/length-{k}", out["counts_by_length"].get(str(k)) == n)
        for k, n in golden["counts_by_length"].items()
    ]
    checks.append(("count/total", out["total"] == golden["total"]))
    checks.append(("count/raw", out["raw_count"] == golden["raw_count"]))
    checks.append(("verify/ran", len(out["verify"]) > 0))
    checks += [(f"verify/{name}", ok is True) for name, ok in sorted(out["verify"].items())]
    checks.append(("roundtrip", out["roundtrip_equal"] is True))
    want = seeded["cover_bits"]
    got = out["cover_bits"]
    checks.append(("batch/is_cover-count", len(got) == len(want)))
    checks += [(f"batch/is_cover/{i}", g == w) for i, (g, w) in enumerate(zip(got, want))]
    matrices = seeded["matrices"]
    checks.append(("batch/lattice_of-count", len(out["lattices"]) == len(matrices)))
    for i, (entries, gens) in enumerate(zip(matrices, out["lattices"])):
        checks.append((f"batch/lattice_of/{i}", _lattice_ok(entries, gens)))
    return checks


def _lattice_ok(entries, gens) -> bool:
    if len(gens) != 2:
        return False
    (p, q), (r, s) = gens
    return oracles.lattice_law_holds(entries, gens, abs(p * s - r * q))


def check_scans(out: dict, golden: dict, _seeded=None):
    checks = [("scans/count", len(out["reports"]) == golden["scan_reports"])]
    checks += [(f"scan/{name}-mod-{mod}/{i}", ok is True)
               for i, (name, mod, ok) in enumerate(out["reports"])]
    checks.append(("mod7/count", len(out["mod7_zero"]) == 20))
    for name, has_zero in sorted(out["mod7_zero"].items()):
        # 3 is a unit mod 7: a common zero exists exactly when 3 is not
        # in the ideal.
        checks.append((f"mod7/{name}", has_zero == (name in golden["ideal_exceptions"])))
    for name, want in golden["form_verdicts"].items():
        checks.append((f"form/{name}", out["form_verdicts"].get(name) == want))
    checks.append(("form/value-sets-F0", out["value_sets_ok"] is True))
    return checks


CHECKS = {
    "certificates": check_certificates,
    "catalog": check_catalog,
    "scans": check_scans,
}


def check(workload: str, outputs: dict, seeded=None, golden: dict = GOLDEN):
    """The (name, ok) checks of one pass against ``golden``."""
    return CHECKS[workload](outputs, golden, seeded)


def error_rate(checks) -> Fraction:
    return Fraction(sum(1 for _, ok in checks if not ok), max(1, len(checks)))

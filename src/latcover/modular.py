"""Finite scans over residue tuples certifying the congruence facts used
by the covering analysis.

For a parameter tuple t = (t1, t2, t3, t4) the six group elements
(id, R, R^2, S, RS, R^2S conjugated) give rise to linear congruences.
The identity contributes the pair (1, 0); the other five contribute the
values at t of their first-row polynomials in ``groebner.COEFF_POLYS``,
the one definition the Groebner certificates reduce as well.  The scans
below exhaustively check the claimed bounds on the number of equivalence
classes of these coefficient pairs over small moduli; the mod-9 scan of
four quadratic forms reads bottom-left entries of the same table.

Each scan lists its residue tuples first and evaluates all its
polynomials over them in one ``poly.evaluate_columns`` call, which
builds each shared monomial's column once.  A pair's class is one key
from a table of the n^2 residue pairs, built once per process for each
modulus the scans read (3, 4 and 5) and read a column of pairs at a
time; the key of a low-order pair is None.  :func:`_counts` turns a row
of keys into the class count and the low-order count.
"""

from __future__ import annotations

import functools
import itertools
import math

from .groebner import COEFF_POLYS, ELEMENT_NAMES
from .poly import evaluate_columns, expand
from .value import Value

#: Exceptional residue tuples mod 3: all five non-identity coefficient
#: pairs vanish exactly on these.
BAD_TUPLES_MOD3 = (
    (0, 1, 0, 1), (0, 2, 0, 2), (1, 1, 1, 1),
    (2, 2, 2, 2), (1, 2, 1, 2), (2, 1, 2, 1),
)

#: Representatives of the classes above, up to negation.
BAD_TUPLE_REPS = ((0, 1, 0, 1), (1, 1, 1, 1), (1, 2, 1, 2))

#: Tuples mod 3 where all five non-identity first coefficients vanish.
TRIPLE_VANISHING_TUPLES = (
    (1, 1, 1, 1), (2, 2, 2, 2), (1, 2, 1, 2), (2, 1, 2, 1),
)


#: The ten first-row polynomials top1, top2 of the five non-identity
#: elements, in ``ELEMENT_NAMES`` order, expanded once for evaluation.
_TOP_TERMS = tuple(expand(COEFF_POLYS[e][k]) for e in ELEMENT_NAMES for k in (0, 1))


#: The bottom-left polynomials of R, S, RS and R2S, expanded once.
_QUADRATIC_TERMS = tuple(expand(COEFF_POLYS[e][2]) for e in ("R", "S", "RS", "R2S"))


def _top_rows(points) -> list[tuple[int, ...]]:
    """The ten first-row values at each of ``points``."""
    return list(zip(*evaluate_columns(_TOP_TERMS, points)))


def _pairs_mod(row, n: int) -> tuple[tuple[int, int], ...]:
    """The six (p1, p2) coefficient pairs mod n of one row of ten
    first-row values, identity first."""
    values = iter([v % n for v in row])
    return ((1 % n, 0), *zip(values, values))


def _class_key(p: int, q: int, n: int, units) -> tuple[int, int] | None:
    """The unit-scaling class of the pair (p, q) mod n, or None when the
    pair is low-order: both coordinates share a factor with the modulus.

    Two full-order pairs share a class when one is a unit multiple of
    the other mod n; a class is named by its least member,
    ``min((k*p % n, k*q % n) for k in units)``.  Scaling by a unit keeps
    the gcd of each coordinate with n, so no full-order pair is a unit
    multiple of a low-order one.
    """
    if math.gcd(p, n) != 1 and math.gcd(q, n) != 1:
        return None
    return min([(k * p % n, k * q % n) for k in units])


def _units(n: int) -> list[int]:
    return [k for k in range(n) if math.gcd(k, n) == 1]


@functools.cache
def _key_table(n: int) -> tuple:
    """The class key of every residue pair (p, q) mod n, at p*n + q."""
    units = _units(n)
    return tuple(_class_key(p, q, n, units) for p in range(n) for q in range(n))


def _counts(keys) -> tuple[int, int]:
    """The class count and the low-order count of one row of class keys:
    the number of low-order pairs plus the number of classes among the
    full-order ones, and the number of low-order pairs."""
    low = keys.count(None)
    return low + len(set(keys)) - (low > 0), low


def _row_counts(columns, n: int):
    """:func:`_counts` mod n of the identity's and the five elements' pairs
    at each point of the ten first-row value columns, a column of keys at a time."""
    table = _key_table(n)
    pairs = [zip(columns[k], columns[k + 1]) for k in range(0, 10, 2)]
    keys = [[table[p % n * n + q % n] for p, q in col] for col in pairs]
    return map(_counts, zip(itertools.repeat(table[1 % n * n]), *keys))


#: Pairs mod 4 whose presence among the unit-scaled full-order pairs is
#: restricted when gcd(t1, t3) is odd.
_BAD_HALF_PAIRS = (((0, 1), (0, 3)), ((2, 1), (2, 3)))
_BAD_LOW_PAIRS = ((2, 0), (0, 2), (0, 0), (2, 2))


def _badness(pairs) -> int:
    """Count of restricted pairs mod 4 as in the exhaustive check: each
    of the two unit-scaling classes {(0,1),(0,3)} and {(2,1),(2,3)} once
    if any pair lies in it, plus every occurrence of a low-order pair.
    """
    halves = sum(any(p in half for p in pairs) for half in _BAD_HALF_PAIRS)
    return halves + sum(p in _BAD_LOW_PAIRS for p in pairs)


class ScanReport(Value):
    """Outcome of one exhaustive residue scan, as :func:`_settle` builds it:
    each clause with whether it holds, and ``ok`` when all do.  Its JSON
    is :meth:`~latcover.value.Value.to_dict`, ``ok`` included."""

    __slots__ = ("name", "modulus", "clauses", "exceptional", "violations", "context")

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())


def _settle(name: str, modulus: int, offending: dict, exceptional: list,
            context: dict) -> ScanReport:
    """Every scan's report, by one rule: a clause holds iff it has no
    offending tuple, and ``violations`` lists each offending tuple once, in
    clause order."""
    clauses = {clause: not tuples for clause, tuples in offending.items()}
    violations = list(dict.fromkeys(t for ts in offending.values() for t in ts))
    return ScanReport(name, modulus, clauses, exceptional, violations, context)


def scan_pair_classes(x: int) -> ScanReport:
    """Scan all residue tuples mod x in {3, 4, 5} and bound the class
    count of the six coefficient pairs."""
    if x not in (3, 4, 5):
        raise ValueError("modulus must be 3, 4 or 5")
    exceptional = []
    z_violations = []
    mod4_shape_violations = []
    badness_violations = []
    points = [
        t for t in itertools.product(range(x), repeat=4)
        if math.gcd(t[1], math.gcd(t[3], x)) == 1
    ]
    columns = evaluate_columns(_TOP_TERMS, points)
    for i, (count, low) in enumerate(_row_counts(columns, x)):
        t = points[i]
        odd = x == 4 and math.gcd(t[0], math.gcd(t[2], 2)) == 1
        if count > 3:
            exceptional.append(t)
        if low > 1:
            z_violations.append(t)
        if x == 4 and (count > 3 or odd):  # the rows whose pairs are checked
            pairs = _pairs_mod([col[i] for col in columns], 4)
            if count > 3 and (2, 0) not in pairs:
                mod4_shape_violations.append(t)
            if odd and _badness(pairs) > 1:
                badness_violations.append(t)
    if x == 5:
        offending = {
            "no-exceptional-tuples": exceptional,
            "low-order-at-most-1": z_violations,
        }
    elif x == 4:
        offending = {
            "exceptional-only-with-(2,0)": mod4_shape_violations,
            "low-order-at-most-1": z_violations,
            "badness-at-most-1": badness_violations,
        }
    else:
        bad = set(BAD_TUPLES_MOD3)
        offending = {
            "exceptional-set-matches": sorted(bad.symmetric_difference(exceptional)),
            "exceptional-pairs-all-zero": [
                t for t, row in zip(BAD_TUPLES_MOD3, _top_rows(BAD_TUPLES_MOD3))
                if any(v % 3 for v in row)
            ],
            "low-order-at-most-1-outside-exceptional": [
                t for t in z_violations if t not in bad
            ],
        }
    return _settle("pair-classes", x, offending, exceptional, {})


def scan_lifted_classes(rep) -> ScanReport:
    """For one exceptional representative mod 3, scan all lifts mod 9 of
    the divided-by-3 coefficient pairs and bound their class count.
    """
    rep = tuple(rep)
    if rep not in BAD_TUPLE_REPS:
        raise ValueError(f"{rep} is not one of the scan representatives")
    points = [
        tuple(3 * a + r for a, r in zip(lift, rep))
        for lift in itertools.product(range(3), repeat=4)
    ]
    columns = [[v // 3 for v in col] for col in evaluate_columns(_TOP_TERMS, points)]
    violations = [
        t for t, (count, low) in zip(points, _row_counts(columns, 3))
        if count > 3 or low > 1
    ]
    return _settle(f"lifted-classes-({','.join(map(str, rep))})", 9,
                   {"lifted-class-count-at-most-3": violations}, [], {"rep": rep})


def scan_first_coefficient_vanishing() -> ScanReport:
    """Count, mod 3, how many of the five non-identity first coefficients
    vanish; the count is 0, 1, 2 or 5, and 5 happens only on a known set.
    """
    count5 = []
    bad_counts = []
    points = [
        t for t in itertools.product(range(3), repeat=4)
        if math.gcd(t[0], math.gcd(t[2], 3)) == 1
        and math.gcd(t[1], math.gcd(t[3], 3)) == 1
    ]
    for t, row in zip(points, zip(*evaluate_columns(_TOP_TERMS[::2], points))):
        zeros = sum(1 for p in row if p % 3 == 0)
        if zeros in (3, 4):
            bad_counts.append(t)
        if zeros == 5:
            count5.append(t)
    offending = {
        "count-in-0-1-2-5": bad_counts,
        "count-5-set-matches": sorted(set(TRIPLE_VANISHING_TUPLES) ^ set(count5)),
    }
    return _settle("first-coefficient-vanishing", 3, offending, count5, {})


def scan_quadratic_forms_mod9() -> ScanReport:
    """Exhaustive check mod 9 of the four quadratic forms
    A = U^2+UV+V^2, B = V^2-U^2, C = U^2+2UV, D = V^2+2UV:
    A never vanishes and at most one of the four vanishes.

    The forms are the bottom-left coefficient polynomials of R, S, RS and
    R^2S in ``groebner.COEFF_POLYS`` at t = (U, 0, V, 0), where they read
    A, -B, C and D; a form and its negative vanish together.
    """
    a_zero, multiple = [], []
    points = [
        (u, 0, v, 0) for u in range(9) for v in range(9)
        if math.gcd(u, math.gcd(v, 3)) == 1
    ]
    columns = evaluate_columns(_QUADRATIC_TERMS, points)
    for (u, _, v, _), values in zip(points, zip(*columns)):
        values = [f % 9 for f in values]
        if values[0] == 0:
            a_zero.append((u, v))
        if values.count(0) > 1:
            multiple.append((u, v))
    return _settle("quadratic-forms", 9,
                   {"A-nonzero": a_zero, "at-most-one-vanishes": multiple}, [], {})


def run_all_scans() -> list[ScanReport]:
    reports = [scan_pair_classes(x) for x in (3, 4, 5)]
    reports.extend(scan_lifted_classes(rep) for rep in BAD_TUPLE_REPS)
    reports.append(scan_first_coefficient_vanishing())
    reports.append(scan_quadratic_forms_mod9())
    return reports

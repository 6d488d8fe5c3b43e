"""Acceptance gate: the nine headline checks, one test per criterion.

Each test prints a single PASS line so a verbose run doubles as the
acceptance report.  Criterion 4 (the raw pre-prune solution count) is
traversal-order-sensitive and therefore soft: a mismatch is reported
loudly but the hard gate is the 54-entry catalog of criterion 1.
"""

import math
import random
import time
import warnings

from latcover.catalog import (
    COVER_4_6,
    COVER_5_6,
    LENGTH3_ENTRY,
    LENGTH4_ENTRIES,
    entry_from_texts,
)
from latcover.enumeration import raw_solutions
from latcover.forms import (
    F0,
    SEXTIC_CONJUGATOR,
    BinaryForm,
    cross_value_check,
    dagger,
    extraordinary_by_C3,
    sextic,
)
from latcover.lattices import (
    Subgroup,
    canonicalize,
    contains,
    density_sum,
    index,
    is_cover,
    lattice_of,
)
from latcover.mat2 import RatMat2, parse_mat2
from latcover.modular import run_all_scans
from fractions import Fraction


def _report(name):
    print(f"PASS acceptance: {name}")


def test_criterion_1_catalog_counts(catalog):
    start = time.monotonic()
    counts = {k: len(catalog.by_length(k)) for k in (3, 4, 5, 6)}
    assert counts == {3: 1, 4: 4, 5: 9, 6: 40}
    assert len(catalog.entries) == 54
    assert time.monotonic() - start < 600
    _report("catalog counts 1/4/9/40, 54 total")


def test_criterion_2_explicit_entries(catalog):
    assert catalog.by_length(3) == [entry_from_texts(LENGTH3_ENTRY)]
    assert set(catalog.by_length(4)) == {
        entry_from_texts(ts) for ts in LENGTH4_ENTRIES
    }
    six = catalog.by_length(6)
    big = [e for e in six if all(i >= 4 for i in e.indices)]
    assert set(big) == {entry_from_texts(COVER_4_6), entry_from_texts(COVER_5_6)}
    large_prime = [
        e for e in six
        if any(any(i % p == 0 for p in (5, 7, 11, 13)) for i in e.indices)
    ]
    assert large_prime == [entry_from_texts(COVER_5_6)]
    _report("explicit length-3/4 entries and distinguished length-6 entries")


def test_criterion_3_length5_properties(catalog):
    five = catalog.by_length(5)
    assert not [e for e in five if all(i % 4 == 0 for i in e.indices)]
    assert not [e for e in five if any(i % 5 == 0 for i in e.indices)]
    _report("length-5 index restrictions")


def test_criterion_4_raw_count_soft():
    raw = len(raw_solutions())
    if raw != 6131:
        warnings.warn(
            f"raw solution count {raw} != 6131; traversal-order-sensitive "
            "soft criterion - investigate the forcing list and recursion"
        )
    assert raw >= 54
    _report(f"raw pre-prune solution count ({raw})")


def test_criterion_5_modular_scans():
    for report in run_all_scans():
        start = time.monotonic()
        assert report.ok, (report.name, report.clauses)
        assert time.monotonic() - start < 60
    _report("modular scans mod 3/4/5/9")


def test_criterion_6_groebner_verdicts(pair_verdicts, triple_verdicts):
    assert [v.contains_3 for v in pair_verdicts].count(True) == 9
    assert [v.contains_3 for v in triple_verdicts].count(True) == 9
    for v in pair_verdicts:
        assert v.ok
        if not v.contains_3:
            assert set(v.elements) == {"R", "R2"}
    for v in triple_verdicts:
        assert v.ok
        if not v.contains_3:
            assert set(v.elements) == {"S", "RS", "R2S"}
            assert v.norm_form_in_ideal is True
    _report("Groebner certificates: 9+9 contain 3, known exceptions")


def test_criterion_7_form_verdicts():
    assert extraordinary_by_C3(F0, RatMat2.identity(), "d3") is True
    assert extraordinary_by_C3(sextic(1, 0), SEXTIC_CONJUGATOR, "d6") is True
    assert (
        extraordinary_by_C3(
            BinaryForm.of(0, 1, 3, 0), parse_mat2("1/3,0;0,1"), "d3"
        )
        is False
    )
    _report("extraordinariness verdicts for the three reference forms")


def test_criterion_8_value_sets():
    start = time.monotonic()
    rep = cross_value_check(F0, dagger(F0), 10, 60)
    assert rep.ok
    assert time.monotonic() - start < 60
    _report("boxed value-set comparison with the companion form")


def _period_box_oracle(lattices):
    # Member (a, 0), (c, b) has x-period a and y-period b * a / gcd(a, c).
    la = math.lcm(*(s.gens[0][0] for s in lattices))
    lb = math.lcm(
        *(
            s.gens[1][1] * (s.gens[0][0] // math.gcd(s.gens[0][0], s.gens[1][0]))
            for s in lattices
        )
    )
    return all(
        any(contains(s, (x, y)) for s in lattices)
        for x in range(la)
        for y in range(lb)
    )


def _index_q_sublattices(s, q):
    g1, g2 = s.gens
    subs = [canonicalize([g1, (q * g2[0], q * g2[1])])]
    for k in range(q):
        subs.append(
            canonicalize(
                [(q * g1[0], q * g1[1]), (g2[0] + k * g1[0], g2[1] + k * g1[1])]
            )
        )
    return subs


def test_criterion_9_property_suites(catalog):
    rng = random.Random(424242)
    for _ in range(1000):
        tup = []
        for _ in range(rng.randint(1, 6)):
            a = rng.randint(1, 6)
            b = rng.randint(1, max(1, 6 // a))
            tup.append(Subgroup(((a, 0), (rng.randint(0, a - 1), b))))
        assert is_cover(tup) == _period_box_oracle(tup)

    for _ in range(200):
        while True:
            g = RatMat2(
                *(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
            )
            if g.det() != 0:
                break
        val = index(lattice_of(g)) * abs(g.det())
        assert val == int(val) and val >= 1

    for entry in catalog.entries:
        assert density_sum(entry.lattices) > 1

    for entry in catalog.entries:
        lattices = list(entry.lattices)
        for i, s in enumerate(lattices):
            for q in (2, 3, 5, 7):
                for sub in _index_q_sublattices(s, q):
                    assert not is_cover(lattices[:i] + [sub] + lattices[i + 1:])
    _report("property suites: cover oracle, index law, density, minimality")

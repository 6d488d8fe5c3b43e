import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latcover.forms import F0, BinaryForm, cross_value_check, dagger
from latcover.groebner import COEFF_POLYS, ELEMENT_NAMES, has_common_zero_mod7
from latcover.modular import (
    BAD_TUPLES_MOD3,
    BAD_TUPLE_REPS,
    TRIPLE_VANISHING_TUPLES,
    _badness,
    _class_key,
    _counts,
    _pairs_mod,
    _top_rows,
    _units,
    run_all_scans,
    scan_first_coefficient_vanishing,
    scan_lifted_classes,
    scan_pair_classes,
    scan_quadratic_forms_mod9,
)
from latcover.poly import evaluate_columns, expand

tuples4 = st.tuples(*(st.integers(-30, 30) for _ in range(4)))


def top_pairs(t, n):
    """The six (p1, p2) coefficient pairs mod n at t, identity first, by
    the row kernel the scans use."""
    return _pairs_mod(_top_rows([t])[0], n)


def key_counts(pairs, n):
    """The class count and the low-order count of ``pairs`` mod n by the
    scans' rule, ``_counts``, on keys computed here by ``_class_key``, so
    that no test modulus enters the scans' per-process key tables."""
    units = _units(n)
    return _counts([_class_key(p, q, n, units) for p, q in pairs])


def test_identity_pair_is_first():
    assert top_pairs((1, 2, 3, 4), 5)[0] == (1, 0)


@given(tuples4, st.sampled_from([3, 4, 5]))
def test_class_count_bounds(t, n):
    pairs = top_pairs(t, n)
    count, low = key_counts(pairs, n)
    assert 1 <= count <= len(pairs)
    assert low <= count


def test_class_count_examples():
    # Unit multiples collapse into one class; low-order pairs each count.
    assert key_counts([(1, 0), (2, 0)], 3)[0] == 1
    assert key_counts([(1, 0), (0, 1)], 3)[0] == 2
    assert key_counts([(0, 0), (0, 0)], 3)[0] == 2
    assert key_counts([(1, 2), (2, 4), (2, 1)], 5)[0] == 2


def _pairwise_class_count(pairs, n):
    """Reference class count: a full-order pair opens a class unless
    a unit multiple of it appears earlier in the list."""
    total = 0
    for i, (p, q) in enumerate(pairs):
        if math.gcd(p, n) != 1 and math.gcd(q, n) != 1:
            total += 1
            continue
        fresh = True
        for j in range(i):
            for k in range(n):
                if (
                    math.gcd(k, n) == 1
                    and k * p % n == pairs[j][0] % n
                    and k * q % n == pairs[j][1] % n
                ):
                    fresh = False
        if fresh:
            total += 1
    return total


@given(
    st.sampled_from([3, 4, 5, 9]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, 3 * n - 1), st.integers(0, 3 * n - 1)),
                min_size=1,
                max_size=6,
            ),
        )
    )
)
def test_class_count_matches_pairwise_definition(case):
    n, pairs = case
    assert key_counts(pairs, n)[0] == _pairwise_class_count(pairs, n)


@given(
    st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10, 12]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(-2 * n, 2 * n), st.integers(-2 * n, 2 * n)),
                max_size=6,
            ),
        )
    )
)
def test_class_keys_on_unreduced_and_negative_pairs(case):
    # Entries outside 0..n-1 get the same key as their residues.
    n, pairs = case
    assert key_counts(pairs, n)[0] == _pairwise_class_count(pairs, n)
    assert key_counts(pairs, n)[1] == sum(
        1 for p, q in pairs if math.gcd(p, n) != 1 and math.gcd(q, n) != 1
    )


def test_run_all_scans_tabulates_only_the_scan_moduli(monkeypatch):
    from latcover import modular

    tabulated = set()
    key_table = modular._key_table

    def recording_key_table(n):
        tabulated.add(n)
        return key_table(n)

    monkeypatch.setattr(modular, "_key_table", recording_key_table)
    run_all_scans()
    assert tabulated == {3, 4, 5}


def test_scan_mod5_no_exceptions():
    report = scan_pair_classes(5)
    assert report.ok
    assert report.exceptional == []


def test_scan_mod3_exceptional_set():
    report = scan_pair_classes(3)
    assert report.ok
    assert set(report.exceptional) == set(BAD_TUPLES_MOD3)
    # The bad set is closed under negation mod 3.
    negated = {tuple((-x) % 3 for x in t) for t in BAD_TUPLES_MOD3}
    assert negated == set(BAD_TUPLES_MOD3)


def test_bad_tuples_all_pairs_vanish():
    for t in BAD_TUPLES_MOD3:
        assert all(p == (0, 0) for p in top_pairs(t, 3)[1:])


def test_scan_mod4_clauses():
    report = scan_pair_classes(4)
    assert report.ok
    assert report.violations == []
    # Every exceptional tuple exhibits the (2, 0) pair.
    for t in report.exceptional:
        assert (2, 0) in top_pairs(t, 4)


def test_failed_badness_clause_lists_every_tuple_it_applies_to(monkeypatch):
    # The badness bound applies where gcd(t1, t3) is odd; each such
    # tuple's pairs reach _badness, and each fails when it reports 2.
    from latcover import modular

    seen = []
    monkeypatch.setattr(modular, "_badness", lambda pairs: seen.append(pairs) or 2)
    report = scan_pair_classes(4)
    applies = [
        t for t in itertools.product(range(4), repeat=4)
        if math.gcd(t[1], math.gcd(t[3], 4)) == 1 and (t[0] % 2 or t[2] % 2)
    ]
    assert [clause for clause, ok in report.clauses.items() if not ok] == ["badness-at-most-1"]
    assert report.violations == applies
    assert seen == [top_pairs(t, 4) for t in applies]


def _badness_by_loop(pairs):
    """The mod-4 badness as a loop over the pairs: each half class counted
    on its first pair, each low-order pair on every occurrence."""
    counter = 0
    seen_first = seen_second = False
    for p in pairs:
        if not seen_first and p in ((0, 1), (0, 3)):
            counter += 1
            seen_first = True
        if not seen_second and p in ((2, 1), (2, 3)):
            counter += 1
            seen_second = True
        if p in ((2, 0), (0, 2), (0, 0), (2, 2)):
            counter += 1
    return counter


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6))
def test_badness_matches_the_loop(pairs):
    assert _badness(tuple(pairs)) == _badness_by_loop(pairs)


def test_scan_rejects_other_moduli():
    with pytest.raises(ValueError):
        scan_pair_classes(7)


def test_lifted_scan_for_each_representative():
    for rep in BAD_TUPLE_REPS:
        report = scan_lifted_classes(rep)
        assert report.ok
        assert report.violations == []
    with pytest.raises(ValueError):
        scan_lifted_classes((0, 0, 0, 1))


def test_lifted_coefficients_divisible_by_three():
    # Every lift of a bad tuple keeps all non-identity coefficients
    # divisible by 3, so the divided pairs are well defined.
    for rep in BAD_TUPLE_REPS:
        for a in range(3):
            for b in range(3):
                t = (3 * a + rep[0], 3 * b + rep[1], rep[2], rep[3])
                assert top_pairs(t, 3)[1:] == ((0, 0),) * 5


def test_first_coefficient_vanishing_counts():
    report = scan_first_coefficient_vanishing()
    assert report.ok
    assert set(report.exceptional) == set(TRIPLE_VANISHING_TUPLES)


def test_quadratic_forms_mod9():
    report = scan_quadratic_forms_mod9()
    assert report.ok
    assert report.violations == []


def test_quadratic_forms_are_the_coeff_polys_entries():
    # The forms as the scan's docstring writes them, against the
    # bottom-left COEFF_POLYS entries the scan evaluates at (u, 0, v, 0).
    forms = {
        "R": lambda u, v: u * u + u * v + v * v,  # A
        "S": lambda u, v: -(v * v - u * u),  # -B
        "RS": lambda u, v: u * u + 2 * u * v,  # C
        "R2S": lambda u, v: v * v + 2 * u * v,  # D
    }
    points = [(u, 0, v, 0) for u in range(-5, 6) for v in range(-5, 6)]
    columns = evaluate_columns([expand(COEFF_POLYS[e][2]) for e in forms], points)
    for (e, form), got in zip(forms.items(), columns):
        assert got == [form(u, v) for u, _, v, _ in points], e


def test_failed_count_5_clause_names_the_missing_tuple(monkeypatch):
    from latcover import modular

    kept = tuple(t for t in TRIPLE_VANISHING_TUPLES if t != (2, 1, 2, 1))
    monkeypatch.setattr(modular, "TRIPLE_VANISHING_TUPLES", kept)
    report = scan_first_coefficient_vanishing()
    assert report.clauses == {"count-in-0-1-2-5": True, "count-5-set-matches": False}
    assert report.violations == [(2, 1, 2, 1)]


def test_run_all_scans_green():
    reports = run_all_scans()
    assert len(reports) == 8
    assert all(r.ok for r in reports)
    for r in reports:
        d = r.to_dict()
        assert d["ok"] and d["name"] == r.name


@pytest.mark.parametrize("x", [3, 4, 5])
def test_failed_low_order_clause_lists_offending_tuples(monkeypatch, x):
    from latcover import modular

    # Every row of keys reports a low-order count of 2 and keeps its
    # class count.
    counts = modular._counts
    monkeypatch.setattr(modular, "_counts", lambda keys: (counts(keys)[0], 2))
    report = scan_pair_classes(x)
    failed = [clause for clause, ok in report.clauses.items() if not ok]
    assert failed and all(clause.startswith("low-order") for clause in failed)
    assert report.to_dict()["violations"]
    assert len(set(report.violations)) == len(report.violations)


def test_scan_outputs_pinned():
    # The scan reports, the 20 mod-7 verdicts and three value checks, two
    # with unmatched witnesses, as they stood before the scan kernels
    # moved to expanded terms, unit-class keys and row-by-row boxes.
    combos = [
        *((c, "pair") for c in itertools.combinations(ELEMENT_NAMES, 2)),
        *((c, "triple") for c in itertools.combinations(ELEMENT_NAMES, 3)),
    ]
    out = {
        "scans": [r.to_dict() for r in run_all_scans()],
        "mod7": {",".join(c): has_common_zero_mod7(c, kind) for c, kind in combos},
        "values": [
            cross_value_check(F0, dagger(F0), 10, 60).to_dict(),
            cross_value_check(F0, BinaryForm.of(0, 1, 3, 0), 10, 60).to_dict(),
            cross_value_check(
                BinaryForm.of(1, 0, 0, 2), BinaryForm.of(1, 0, 0, 3), 5, 20
            ).to_dict(),
        ],
    }
    assert [c for c, zero in out["mod7"].items() if zero] == ["R,R2", "S,RS,R2S"]
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d1d4edc7d533e726e4c3d54e37d7838f184626238b00b94a725ae84e2e6a851f"
    )

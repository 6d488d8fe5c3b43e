import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latcover.modular import (
    BAD_TUPLES_MOD3,
    BAD_TUPLE_REPS,
    TRIPLE_VANISHING_TUPLES,
    class_count,
    low_order_count,
    run_all_scans,
    scan_first_coefficient_vanishing,
    scan_lifted_classes,
    scan_pair_classes,
    scan_quadratic_forms_mod9,
    top_pairs,
)

tuples4 = st.tuples(*(st.integers(-30, 30) for _ in range(4)))


def test_identity_pair_is_first():
    assert top_pairs((1, 2, 3, 4), 5)[0] == (1, 0)


@given(tuples4, st.sampled_from([3, 4, 5]))
def test_class_count_bounds(t, n):
    pairs = top_pairs(t, n)
    count = class_count(pairs, n)
    assert 1 <= count <= len(pairs)
    assert low_order_count(pairs, n) <= count


def test_class_count_examples():
    # Unit multiples collapse into one class; low-order pairs each count.
    assert class_count([(1, 0), (2, 0)], 3) == 1
    assert class_count([(1, 0), (0, 1)], 3) == 2
    assert class_count([(0, 0), (0, 0)], 3) == 2
    assert class_count([(1, 2), (2, 4), (2, 1)], 5) == 2


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

    monkeypatch.setattr(modular, "low_order_count", lambda pairs, n: 2)
    report = scan_pair_classes(x)
    failed = [clause for clause, ok in report.clauses.items() if not ok]
    assert failed and all(clause.startswith("low-order") for clause in failed)
    assert report.to_dict()["violations"]
    assert len(set(report.violations)) == len(report.violations)

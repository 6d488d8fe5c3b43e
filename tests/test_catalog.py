import hashlib
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latcover import enumeration
from latcover.catalog import (
    COVER_4_6,
    COVER_5_6,
    EXPECTED_COUNTS,
    MAX_CATALOG_ENTRIES,
    Catalog,
    LENGTH3_ENTRY,
    LENGTH4_ENTRIES,
    CatalogEntry,
    canonical_entry,
    column_form,
    entry_from_texts,
    generate_catalog,
    parse,
    parse_subgroup,
    serialize,
    subgroup_text,
    verify_catalog,
)
from latcover.lattices import ZERO, Subgroup, canonicalize, contains, index, is_cover


def test_subgroup_text_roundtrip():
    for text in ("1,0;1,2", "2,0;0,1", "5,0;3,5", "1,2", "0"):
        assert subgroup_text(parse_subgroup(text)) == text


canonical_rank2 = st.tuples(st.integers(1, 200), st.integers(1, 200)).flatmap(
    lambda ab: st.builds(
        lambda c: Subgroup(((ab[0], 0), (c, ab[1]))), st.integers(0, ab[0] - 1)
    )
)


@given(canonical_rank2)
def test_subgroup_text_roundtrip_random(s):
    assert parse_subgroup(subgroup_text(s)) == s


def test_column_form_matches_membership():
    s = canonicalize([(3, 0), (1, 2)])
    a, z, c, b = column_form(s)
    assert z == 0
    # Columns (a, c) and (0, b) must generate the same subgroup.
    assert canonicalize([(a, c), (0, b)]) == s


def test_parse_subgroup_rejects_malformed():
    for bad in ("", "1;2;3", "a,b", "1,1;0,2"):
        with pytest.raises(ValueError):
            parse_subgroup(bad)


def test_canonical_entry_requires_cover():
    with pytest.raises(ValueError):
        canonical_entry((canonicalize([(2, 0), (0, 2)]), ZERO))


def test_catalog_counts(catalog):
    assert len(catalog.entries) == 54
    for k, n in EXPECTED_COUNTS.items():
        assert len(catalog.by_length(k)) == n


def test_known_entries_present(catalog):
    assert catalog.by_length(3) == [entry_from_texts(LENGTH3_ENTRY)]
    four = set(catalog.by_length(4))
    assert four == {entry_from_texts(ts) for ts in LENGTH4_ENTRIES}
    six = set(catalog.by_length(6))
    assert entry_from_texts(COVER_4_6) in six
    assert entry_from_texts(COVER_5_6) in six


def test_index_profiles_of_distinguished_entries():
    assert entry_from_texts(COVER_4_6).indices == (4, 4, 4, 4, 4, 4)
    assert entry_from_texts(COVER_5_6).indices == (5, 5, 5, 5, 5, 5)
    assert entry_from_texts(LENGTH3_ENTRY).indices == (2, 2, 2)


def test_verify_catalog_all_pass(catalog):
    results = verify_catalog(catalog)
    failed = [r for r in results if not r.ok]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]


def test_serialize_parse_roundtrip(catalog):
    text = serialize(catalog)
    again = parse(text)
    assert again.entries == catalog.entries
    assert serialize(again) == text


def test_serialized_catalog_pinned(catalog):
    text = serialize(catalog)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ca43405bed5e6e6550854af9ef03e2f498e05bd447ccfa92726a2d1e36ed17b2"
    )


def test_parse_caps_the_entry_count(catalog):
    # 19 copies of the catalog make 1,026 entries; the first past the cap
    # is on line 1,001.
    text = serialize(catalog)
    assert len(parse(text * 18).entries) == 972 <= MAX_CATALOG_ENTRIES
    with pytest.raises(ValueError, match="line 1001: more than 1000 catalog entries"):
        parse(text * 19)


def test_incomparability_detail_lists_ten_pairs(catalog):
    def detail(cat):
        (r,) = [r for r in verify_catalog(cat) if r.name == "entries-incomparable"]
        return r.ok, r.detail

    assert detail(catalog) == (True, "comparable pairs []")
    # Each entry of a doubled catalog precedes its copy and is preceded by
    # it: 108 comparable pairs, of which the first ten are listed.
    ok, text = detail(Catalog(catalog.entries * 2))
    assert not ok
    assert text == (
        "comparable pairs [(0, 54), (1, 55), (2, 56), (3, 57), (4, 58), "
        "(5, 59), (6, 60), (7, 61), (8, 62), (9, 63)], 108 in all"
    )


def test_incomparability_catches_a_superset_entry():
    # F is E, the length-4 entry of the four index-3 subgroups, plus two
    # index-2 subgroups.  Each slot of E lies in a distinct slot of F,
    # though F sorts its index-2 slots first.
    e = entry_from_texts(LENGTH4_ENTRIES[3])
    f = entry_from_texts(LENGTH4_ENTRIES[3] + ("2,0;0,1", "1,0;0,2"))
    (r,) = [r for r in verify_catalog(Catalog([e, f])) if r.name == "entries-incomparable"]
    assert (r.ok, r.detail) == (False, "comparable pairs [(0, 1)], 1 in all")


def test_large_prime_check_catches_any_prime_above_3():
    # Three index-2 subgroups cover Z^2; the three index-37 slots ride
    # along, and 37 is past any short list of primes.
    index37 = entry_from_texts(
        ("2,0;0,1", "1,0;0,2", "1,0;1,2", "37,0;0,1", "1,0;0,37", "1,0;1,37")
    )
    (r,) = [
        r for r in verify_catalog(Catalog([entry_from_texts(COVER_5_6), index37]))
        if r.name == "length6-unique-large-prime-entry"
    ]
    assert not r.ok
    assert index37.text() in r.detail


def test_precedes_runs_only_on_prefiltered_pairs(monkeypatch, catalog):
    # Counted through the module global that comparable_pairs calls: the
    # containment bitset leaves 307 exact tests of the 10,100 ordered
    # pairs of the minimality filter's candidates, and 150 of the 2,862
    # pairs of distinct catalog entries.
    calls = Counter()
    inner = enumeration.precedes

    def counted(a, b, relation):
        calls["precedes"] += 1
        return inner(a, b, relation)

    monkeypatch.setattr(enumeration, "precedes", counted)
    assert generate_catalog().entries == catalog.entries
    assert calls["precedes"] == 307
    calls.clear()
    verify_catalog(catalog)
    assert calls["precedes"] == 150


def test_parse_reports_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse("len=3 | 1,0;0,2 | 1,0;1,2 | 2,0;0,1\nlen=3 | nonsense\n")
    with pytest.raises(ValueError, match="line 1"):
        parse("len=4 | 1,0;0,2 | 1,0;1,2 | 2,0;0,1\n")


def test_parse_length_header_is_ascii_integer():
    # ``int`` reads "0_3" as 3.
    with pytest.raises(ValueError, match="line 1: malformed catalog line"):
        parse("len=0_3 | 2,0;0,1 | 1,0;0,2 | 1,0;1,2")


def test_parse_subgroup_integer_grammar():
    assert parse_subgroup(" +2, 0 ; -1 , 3 ") == parse_subgroup("2,0;-1,3")
    for bad in ("1,0;1,2_0", "\u0661,0;0,2", "1,0;0,1e3", "1,0;0," + "1" * 101):
        with pytest.raises(ValueError, match="malformed subgroup text"):
            parse_subgroup(bad)


def _index_q_sublattices(s: Subgroup, q: int):
    """The q + 1 sublattices of index q inside a rank-2 subgroup."""
    g1, g2 = s.gens
    subs = [canonicalize([g1, (q * g2[0], q * g2[1])])]
    for k in range(q):
        subs.append(
            canonicalize(
                [(q * g1[0], q * g1[1]), (g2[0] + k * g1[0], g2[1] + k * g1[1])]
            )
        )
    return subs


def test_entries_are_replacement_minimal_for_small_primes(catalog):
    # Replacing any component with any proper sublattice of prime index
    # up to 7 must break the cover.
    for entry in catalog.entries:
        lattices = list(entry.lattices)
        for i, s in enumerate(lattices):
            for q in (2, 3, 5, 7):
                for sub in _index_q_sublattices(s, q):
                    assert index(sub) == q * index(s)
                    replaced = lattices[:i] + [sub] + lattices[i + 1:]
                    assert not is_cover(replaced), (entry.text(), i, q)

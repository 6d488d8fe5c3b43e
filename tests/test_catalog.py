import hashlib
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latcover import catalog as catalog_module
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
    for text in ("1,0;1,2", "2,0;0,1", "5,0;3,5"):
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
    for bad in ("", "1;2;3", "a,b", "1,1;0,2", "0", "1,2", "0,0;0,0", "2,0;1,0"):
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


def _minimality(cat):
    (r,) = [r for r in verify_catalog(cat) if r.name == "entries-minimal"]
    return r.ok, r.detail


def test_incomparability_detail_lists_ten_pairs(catalog):
    assert _minimality(catalog) == (True, "non-minimal []; repeated []")
    # Each entry of a doubled catalog is minimal, and its copy repeats
    # it: 54 repeated positions, of which the first ten are listed.
    assert _minimality(Catalog(catalog.entries * 2)) == (
        False,
        "non-minimal []; repeated [54, 55, 56, 57, 58, 59, 60, 61, 62, 63], 54 in all",
    )


def test_incomparability_catches_a_superset_entry():
    # F is E, the length-4 entry of the four index-3 subgroups, plus two
    # index-2 subgroups.  Each slot of E lies in a distinct slot of F, so
    # F's index-3 slots can be dropped and F is not minimal.
    e = entry_from_texts(LENGTH4_ENTRIES[3])
    f = entry_from_texts(LENGTH4_ENTRIES[3] + ("2,0;0,1", "1,0;0,2"))
    assert _minimality(Catalog([e, f])) == (False, "non-minimal [1], 1 in all; repeated []")


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


def test_minimality_check_fails_an_entry_that_does_not_cover():
    # canonical_entry refuses a non-cover, so the entry is built directly:
    # two of the three index-2 subgroups miss the odd points of x = y.
    # The minimality rule answers False on a union that misses a point,
    # so entries-minimal lists it, with no separate covering check.
    length3 = entry_from_texts(LENGTH3_ENTRY)
    partial = CatalogEntry(length3.lattices[:2])
    assert not is_cover(partial.lattices)
    assert _minimality(Catalog([length3, partial])) == (
        False, "non-minimal [1], 1 in all; repeated []"
    )
    assert "entries-cover" not in {r.name for r in verify_catalog(Catalog([length3]))}


def _replace(entries, old, new):
    return [new if e == old else e for e in entries]


#: For each catalog check that the other tests never see fail, a change
#: to the real catalog that must make it fail.
_BREAKS = {
    "counts-per-length": lambda es: es[:-1],
    "length3-entry": lambda es: es + [entry_from_texts(LENGTH3_ENTRY)],
    "length4-entries": lambda es: _replace(
        es, entry_from_texts(LENGTH4_ENTRIES[1]), entry_from_texts(LENGTH4_ENTRIES[0])
    ),
    "length5-no-all-indices-divisible-by-4": lambda es: es
    + [CatalogEntry(entry_from_texts(COVER_4_6).lattices[:5])],
    "length5-no-index-divisible-by-5": lambda es: es
    + [CatalogEntry(entry_from_texts(COVER_5_6).lattices[:5])],
    "length6-two-entries-all-indices-ge-4": lambda es: [
        e for e in es if e != entry_from_texts(COVER_4_6)
    ],
    "entries-density-above-1": lambda es: es
    + [CatalogEntry(entry_from_texts(LENGTH3_ENTRY).lattices[:2])],
}


@pytest.mark.parametrize("name", sorted(_BREAKS))
def test_each_catalog_check_fails_on_a_crafted_catalog(catalog, name):
    results = {r.name: r.ok for r in verify_catalog(catalog)}
    assert results[name] is True
    broken = Catalog(_BREAKS[name](list(catalog.entries)))
    assert broken.entries != catalog.entries
    (r,) = [r for r in verify_catalog(broken) if r.name == name]
    assert not r.ok, r.detail


def test_minimality_rule_runs_once_per_candidate_and_entry(monkeypatch, catalog):
    # Counted through the module globals of enumeration and catalog: the
    # filter decides each of the 101 candidates on its own, keeping 54,
    # and verify_catalog each of the 54 entries.
    calls = Counter()

    def counted(module):
        inner = module.is_minimal_cover

        def rule(t):
            ok = inner(t)
            calls[module.__name__, ok] += 1
            return ok

        monkeypatch.setattr(module, "is_minimal_cover", rule)

    counted(enumeration)
    counted(catalog_module)
    assert generate_catalog().entries == catalog.entries
    assert calls == {("latcover.enumeration", True): 54, ("latcover.enumeration", False): 47}
    calls.clear()
    assert all(r.ok for r in verify_catalog(catalog))
    assert calls == {("latcover.catalog", True): 54}


def test_parse_reports_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse("len=3 | 1,0;0,2 | 1,0;1,2 | 2,0;0,1\nlen=3 | nonsense\n")
    with pytest.raises(ValueError, match="line 1"):
        parse("len=4 | 1,0;0,2 | 1,0;1,2 | 2,0;0,1\n")


def test_parse_rejects_slots_below_rank_2():
    # Catalog text holds rank-2 subgroups only: a "0" slot is not dropped
    # from the count, and a rank-1 "u,v" slot is not read at all.
    for line in (
        "len=3 | 2,0;0,1 | 1,0;0,2 | 0 | 1,0;1,2 | 0 | 0",
        "len=3 | 2,0;0,1 | 1,0;0,2 | 0,0;0,0 | 1,0;1,2",
        "len=4 | 2,0;0,1 | 1,0;0,2 | 1,2 | 1,0;1,2",
    ):
        with pytest.raises(ValueError, match="line 1: malformed catalog line"):
            parse(line)


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

import hashlib
import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latcover import enumeration
from latcover.catalog import generate_catalog, verify_catalog
from latcover.enumeration import (
    EMPTY_TUPLE,
    FORCING_POINTS,
    SLOTS,
    ForcingListExhausted,
    containment,
    enumerate_minimal_coverings,
    find_lattices,
    possible_predecessors,
    precedes,
    raw_solutions,
)
from latcover.lattices import (
    ZERO,
    Subgroup,
    adjoin,
    canonicalize,
    contains,
    index,
    is_cover,
)

# The unique length-3 covering: even x, even y, and x = y (mod 2).
LENGTH3 = (
    canonicalize([(2, 0), (0, 1)]),
    canonicalize([(1, 0), (0, 2)]),
    canonicalize([(1, 1), (0, 2)]),
)


def prune(t):
    """The normal form of a covering tuple with its redundant slots dropped,
    by the kernel ``raw_solutions`` uses, on a new search's tables.

    Raises ValueError for more than ``SLOTS`` slots, where the forcing
    property says nothing.
    """
    if len(t) > SLOTS:
        raise ValueError(f"{len(t)} slots, more than {SLOTS}")
    search = enumeration.Search()
    ids = search.ids(t)
    ranks = enumeration._slot_ranks(search.subgroups)
    return search.tuple_of(enumeration._prune_ids(ids, search.masks, ranks))


def precedes_pair(a, b):
    """``precedes`` on the containment relation of the two tuples alone."""
    return precedes(a, b, containment((a, b)))


def test_forcing_list_shape():
    assert len(FORCING_POINTS) == 97
    assert FORCING_POINTS[0] == (1, 0)
    assert FORCING_POINTS[1] == (0, 1)


def test_forcing_points_are_distinct():
    # A repeated point is always covered by the time the search reaches
    # it, so a second copy changes nothing but the list's length.
    assert len(set(FORCING_POINTS)) == len(FORCING_POINTS)


def test_raw_solutions_cover():
    sols = raw_solutions()
    assert len(sols) == 6131
    rng = random.Random(5)
    for t in rng.sample(sols, 60):
        assert is_cover(t)


def test_forcing_property_on_random_tuples():
    # If a union contains every forcing point, it covers Z^2.
    rng = random.Random(77)
    checked = 0
    for _ in range(500):
        tup = []
        for _ in range(SLOTS):
            a = rng.randint(1, 8)
            b = rng.randint(1, max(1, 8 // a))
            tup.append(Subgroup(((a, 0), (rng.randint(0, a - 1), b))))
        if all(any(contains(s, p) for s in tup) for p in FORCING_POINTS):
            assert is_cover(tup)
            checked += 1
    assert checked > 0


def test_prune_removes_redundant_slot():
    padded = LENGTH3 + (LENGTH3[0],) + (ZERO,) * 2
    pruned = prune(padded)
    assert set(pruned[:3]) == set(LENGTH3)
    assert pruned[3:] == (ZERO, ZERO, ZERO)
    assert is_cover(pruned)


def test_prune_keeps_minimal_tuple():
    # Nothing is dropped; the slots come back sorted by (index, basis).
    padded = LENGTH3 + (ZERO,) * 3
    assert prune(padded) == (LENGTH3[1], LENGTH3[0], LENGTH3[2]) + (ZERO,) * 3


def test_precedes_partial_order():
    a = LENGTH3 + (ZERO,) * 3
    assert precedes_pair(a, a)
    # A permuted copy is equivalent in both directions.
    b = (LENGTH3[2], LENGTH3[0], LENGTH3[1]) + (ZERO,) * 3
    assert precedes_pair(a, b) and precedes_pair(b, a)
    # A tuple with a strictly smaller slot precedes, not conversely.
    finer = (
        canonicalize([(4, 0), (0, 1)]),
        LENGTH3[1],
        LENGTH3[2],
    ) + (ZERO,) * 3
    assert precedes_pair(finer, a)
    assert not precedes_pair(a, finer)


def _precedes_by_permutations(a, b):
    """Reference: try every permutation of all the slots of ``b`` for
    one that puts each slot of ``a`` inside its image."""
    def inside(p, q):
        return all(contains(q, g) for g in p.gens)

    return any(
        all(inside(p, q) for p, q in zip(a, perm))
        for perm in itertools.permutations(b)
    )


_small_subgroup = st.one_of(
    st.just(ZERO),
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=3
    ).map(canonicalize),
)


def _prune_by_exact_tests(t):
    """Reference for ``prune``: the exact covering test for every slot."""
    slots = list(t)
    for i in range(len(slots)):
        old = slots[i]
        slots[i] = ZERO
        if not is_cover(slots):
            slots[i] = old
    kept = sorted((s for s in slots if s.rank != 0), key=lambda s: (index(s), s.gens))
    return tuple(kept) + (ZERO,) * (len(t) - len(kept))


#: Every subgroup of index 2 to 4: six of them often cover Z^2 with slots
#: to spare, which is where prune's forcing-point prefilter decides.
_LOW_INDEX = sorted(
    {canonicalize([(a, 0), (c, b)])
     for a in range(1, 5) for b in range(1, 5) for c in range(a) if 2 <= a * b <= 4},
    key=lambda s: s.gens,
)


@given(st.lists(
    st.one_of(st.sampled_from(_LOW_INDEX), _small_subgroup),
    min_size=SLOTS, max_size=SLOTS,
))
def test_prune_matches_exact_reference(slots):
    t = tuple(slots)
    assert prune(t) == _prune_by_exact_tests(t)


@st.composite
def _tuple_pairs(draw):
    """A padded 6-slot tuple and a second one that is often coarser."""
    n = draw(st.integers(1, SLOTS))
    a = draw(st.lists(_small_subgroup, min_size=n, max_size=n))
    a += draw(
        st.lists(_small_subgroup, min_size=SLOTS - n, max_size=SLOTS - n)
        if draw(st.booleans())
        else st.just([ZERO] * (SLOTS - n))
    )
    if draw(st.booleans()):
        b = list(draw(st.permutations(a)))
        for i in range(SLOTS):
            if draw(st.booleans()):
                b[i] = adjoin(b[i], draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))))
    else:
        b = draw(st.lists(_small_subgroup, min_size=SLOTS, max_size=SLOTS))
    return tuple(a), tuple(b)


@given(_tuple_pairs())
def test_precedes_matches_permutation_search(pair):
    a, b = pair
    assert precedes_pair(a, b) == _precedes_by_permutations(a, b)


@given(_tuple_pairs())
def test_possible_predecessors_lists_every_predecessor(pair):
    a, b = pair
    listed = possible_predecessors([a, b], containment((a, b)))
    assert 1 in listed[1] and 0 in listed[0]
    if precedes_pair(a, b):
        assert 0 in listed[1]
    if precedes_pair(b, a):
        assert 1 in listed[0]


def _all_pairs_minimal(candidates):
    return [
        c for i, c in enumerate(candidates)
        if not any(j != i and precedes_pair(o, c) for j, o in enumerate(candidates))
    ]


def test_prefilter_is_sound_on_candidates_and_doubled_catalog(catalog):
    candidates = sorted(
        {prune(t) for t in raw_solutions()}, key=enumeration._canonical_sort_key
    )
    assert len(candidates) == 101
    assert len(containment(candidates)) == 80
    # A doubled catalog holds each entry's tuple object twice: positions
    # tell them apart.  On every ordered pair, precedes on the one
    # relation over all the tuples, padded or not, agrees with precedes
    # on the pair alone.
    lattices = [e.lattices for e in catalog.entries]
    padded = [t + (ZERO,) * (SLOTS - len(t)) for t in lattices]
    for tuples in (candidates, lattices * 2, padded * 2):
        relation = containment(tuples)
        listed = possible_predecessors(tuples, relation)
        for j, c in enumerate(tuples):
            for i, o in enumerate(tuples):
                exact = precedes_pair(o, c)
                assert precedes(o, c, relation) == exact
                if exact:
                    assert i in listed[j]
    assert enumerate_minimal_coverings() == _all_pairs_minimal(candidates)


def test_catalog_decides_each_containment_once(monkeypatch):
    # One is_subgroup_of per ordered pair of the distinct subgroups,
    # counted through enumeration's module global: 80 for the candidates,
    # zero included, and 79 for the unpadded catalog entries.
    calls = Counter()
    inner = enumeration.is_subgroup_of

    def counted(a, b):
        calls["is_subgroup_of"] += 1
        return inner(a, b)

    monkeypatch.setattr(enumeration, "is_subgroup_of", counted)
    catalog = generate_catalog()
    assert calls["is_subgroup_of"] == 80**2
    calls.clear()
    assert all(r.ok for r in verify_catalog(catalog))
    assert calls["is_subgroup_of"] == 79**2


def test_minimal_coverings_counts(catalog):
    tuples = enumerate_minimal_coverings()
    assert len(tuples) == 54
    by_len = {}
    for t in tuples:
        k = sum(1 for s in t if s.rank != 0)
        by_len[k] = by_len.get(k, 0) + 1
    assert by_len == {3: 1, 4: 4, 5: 9, 6: 40}


def test_workers_reproduce_sequential_result():
    assert Counter(raw_solutions(workers=2)) == Counter(raw_solutions())


def test_raw_solutions_keeps_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(before + 1)
    try:
        raw_solutions()
        assert sys.getrecursionlimit() == before + 1
    finally:
        sys.setrecursionlimit(before)


def test_recursion_entry_point():
    # find_lattices works on ids interned in the search's own tables.
    search = enumeration.Search()
    sols = find_lattices(search, search.ids(EMPTY_TUPLE), 0)
    assert len(sols) == 6131
    assert [search.tuple_of(t) for t in sols] == raw_solutions()


def test_raw_solutions_pinned_in_order():
    # The 6131 tuples, element for element and in search order, as the
    # search produced them before it worked on forcing-point masks.
    text = repr([tuple(s.gens for s in t) for t in raw_solutions()])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5c6ab67d23a4c27c77eb3ddeeb0bbfb4aadcd5d160e754a8fd7fb9c651bbe1a0"
    )


def test_search_visits_6178_nodes(monkeypatch):
    # The recursion calls find_lattices through its module global.
    calls = 0
    inner = enumeration.find_lattices

    def counted(search, slots, covered):
        nonlocal calls
        calls += 1
        return inner(search, slots, covered)

    monkeypatch.setattr(enumeration, "find_lattices", counted)
    assert len(raw_solutions()) == 6131
    assert calls == 6178


def test_search_past_forcing_list_raises():
    search = enumeration.Search()
    full = (1 << len(FORCING_POINTS)) - 1
    with pytest.raises(ForcingListExhausted):
        find_lattices(search, search.ids(EMPTY_TUPLE), full)


@pytest.mark.parametrize("kept", [40, 80])
def test_catalog_fails_on_a_forcing_list_that_does_not_force(monkeypatch, kept):
    # With a truncated list some union with a full mask does not cover;
    # the search takes it for a cover, its pruned form does not cover
    # either, and the certification must fail the catalog build instead
    # of returning entries.
    monkeypatch.setattr(enumeration, "FORCING_POINTS", FORCING_POINTS[:kept])
    monkeypatch.setattr(enumeration, "_FULL_MASK", (1 << kept) - 1)
    with pytest.raises(ValueError, match="does not cover"):
        generate_catalog()


def _count_is_cover(monkeypatch) -> Counter:
    """Count the calls of enumeration's by-name ``is_cover``."""
    calls = Counter()
    inner = enumeration.is_cover

    def counted(subgroups):
        calls["is_cover"] += 1
        return inner(subgroups)

    monkeypatch.setattr(enumeration, "is_cover", counted)
    return calls


def test_search_and_prune_make_no_exact_test(monkeypatch):
    # The search and prune decide on forcing-point masks alone.
    calls = _count_is_cover(monkeypatch)
    search = enumeration.Search()
    raw = find_lattices(search, search.ids(EMPTY_TUPLE), 0)
    assert len(raw) == 6131
    assert calls["is_cover"] == 0
    assert len({prune(t) for t in map(search.tuple_of, raw)}) == 101
    assert calls["is_cover"] == 0


def test_each_raw_solutions_call_certifies_101_pruned_forms(monkeypatch):
    # One exact test per distinct pruned form, through the module global,
    # in every call: nothing carries over between calls.
    calls = _count_is_cover(monkeypatch)
    for _ in range(2):
        calls.clear()
        raw_solutions()
        assert calls["is_cover"] == 101


@pytest.mark.parametrize("workers", [1, 2])
def test_raw_solutions_fail_when_a_pruned_form_does_not_cover(monkeypatch, workers):
    # The certification is the guard: one wrong verdict, on the pruned
    # length-3 form, fails the call.  With workers the parent process
    # certifies the pooled tuples, so the patch here applies.
    target = prune(LENGTH3 + (ZERO,) * 3)
    inner = enumeration.is_cover

    def rejects_target(subgroups):
        return tuple(subgroups) != target and inner(subgroups)

    monkeypatch.setattr(enumeration, "is_cover", rejects_target)
    with pytest.raises(ValueError, match="does not cover"):
        raw_solutions(workers=workers)


def test_pruned_raw_solutions_pinned():
    # The pruned form of each raw solution, in search order, as prune
    # produced it while it still confirmed each drop with an exact test.
    text = repr([tuple(s.gens for s in prune(t)) for t in raw_solutions()])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "43db3c82de3b94313fb86bd6d8f2a82fc0f2c1589d143ef7b16520a285e1be2e"
    )


def test_minimal_coverings_prune_each_distinct_raw_solution_once(monkeypatch):
    # The search records 6,131 raw tuples, 4,295 of them distinct; only
    # the distinct ones go through the prune kernel, as id tuples.  The
    # sorted candidates are those of pruning every raw tuple into a set.
    raw = raw_solutions()
    expected = sorted({prune(t) for t in raw}, key=enumeration._canonical_sort_key)
    calls = Counter()
    inner_prune = enumeration._prune_ids
    inner_listed = enumeration.possible_predecessors

    def counted(ids, masks, ranks):
        calls["prune"] += 1
        return inner_prune(ids, masks, ranks)

    def recorded(tuples, relation):
        calls["candidates"] += 1
        assert tuples == expected
        return inner_listed(tuples, relation)

    monkeypatch.setattr(enumeration, "_prune_ids", counted)
    monkeypatch.setattr(enumeration, "possible_predecessors", recorded)
    assert len(enumerate_minimal_coverings()) == 54
    assert len(raw) == 6131 and len(set(raw)) == 4295
    assert calls == {"prune": 4295, "candidates": 1}
    assert len(expected) == 101


def test_prune_rejects_more_than_six_slots():
    with pytest.raises(ValueError, match="7 slots"):
        prune(LENGTH3 + (ZERO,) * 4)


def test_catalog_fails_on_a_wrong_prune_drop(monkeypatch):
    # Dropping a slot of the length-3 candidate leaves two subgroups that
    # do not cover.  raw_solutions certifies every distinct pruned form
    # with the exact test, so it raises before the minimality filter or
    # canonical_entry sees them.  The kernel works on ids, where id 0 is
    # the zero subgroup.
    inner = enumeration._prune_ids

    def drops_too_much(ids, masks, ranks):
        out = inner(ids, masks, ranks)
        if sum(1 for i in out if i) == 3:
            out = out[:2] + (0,) * (len(out) - 2)
        return out

    monkeypatch.setattr(enumeration, "_prune_ids", drops_too_much)
    with pytest.raises(ValueError, match="does not cover"):
        generate_catalog()


def _mask_by_contains(s: Subgroup) -> int:
    """Reference for ``_mask``: one ``contains`` per forcing point."""
    return sum(
        1 << i for i, p in enumerate(enumeration.FORCING_POINTS) if contains(s, p)
    )


def test_mask_matches_contains_on_every_interned_subgroup():
    search = enumeration.Search()
    raw_solutions(search=search)
    assert len(search.subgroups) == 185
    for s, m in zip(search.subgroups, search.masks):
        assert enumeration._mask(s.gens) == m == _mask_by_contains(s)


@given(
    st.lists(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=0, max_size=3
    )
)
def test_mask_matches_contains_on_random_subgroups(gens):
    # Zero, one or several generators: canonical subgroups of rank 0, 1
    # and 2 alike.
    s = canonicalize(gens)
    assert enumeration._mask(s.gens) == _mask_by_contains(s)


def test_mask_reads_the_forcing_list_at_call_time(monkeypatch):
    # A mask computed on the full list leaves nothing behind that the
    # second call, on a patched list, could read.
    s = canonicalize([(2, 0), (1, 3)])
    assert enumeration._mask(s.gens) == _mask_by_contains(s) != 0b1101
    points = [(3, 3), (1, 0), (1, 3), (0, 6)]
    monkeypatch.setattr(enumeration, "FORCING_POINTS", tuple(points))
    assert enumeration._mask(s.gens) == 0b1101 == _mask_by_contains(s)


def test_minimal_coverings_call_raw_solutions_once(monkeypatch):
    # A wrapper installed on the module global sees the one call, and the
    # list it returns is the search's id tuples mapped to subgroups.
    seen = []
    inner = enumeration.raw_solutions

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append((kwargs["search"], out))
        return out

    monkeypatch.setattr(enumeration, "raw_solutions", recorded)
    assert len(enumerate_minimal_coverings()) == 54
    [(search, out)] = seen
    assert len(out) == len(search.solutions) == 6131
    assert list(map(search.tuple_of, search.solutions)) == out == inner()


def test_raw_solutions_keeps_a_given_search_in_one_process():
    with pytest.raises(ValueError, match="one process"):
        raw_solutions(workers=2, search=enumeration.Search())

import itertools
import math
import random
from collections import Counter
from collections.abc import Sized
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latcover.lattices as lattices_module
from latcover import enumeration
from latcover.lattices import (
    FULL,
    INDEX_INFINITE,
    MAX_COVER_INDEX,
    ZERO,
    Subgroup,
    _dual,
    adjoin,
    canonicalize,
    contains,
    density_sum,
    index,
    is_cover,
    is_subgroup_of,
    lattice_of,
)
from latcover.mat2 import RatMat2

vec = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
gens_lists = st.lists(vec, max_size=4)


def brute_members(s, radius):
    return {
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if contains(s, (x, y))
    }


def test_canonical_shapes():
    assert canonicalize([]) == ZERO
    assert canonicalize([(0, 0)]) == ZERO
    assert canonicalize([(1, 0), (0, 1)]) == FULL
    s = canonicalize([(2, 0), (0, 3)])
    assert s.gens == ((2, 0), (0, 3))
    assert index(s) == 6


def test_rank1_canonical_direction():
    assert canonicalize([(-2, 4)]).gens == ((2, -4),)
    assert canonicalize([(0, -3)]).gens == ((0, 3),)
    assert canonicalize([(2, 4), (3, 6)]).gens == ((1, 2),)
    assert canonicalize([(2, 4), (4, 8)]).gens == ((2, 4),)
    assert canonicalize([(0, -3), (0, 6)]).gens == ((0, 3),)
    line = canonicalize([(-2, 4)])
    assert adjoin(line, (0, 0)) == line


def test_canonicalize_rejects_non_integers():
    with pytest.raises(TypeError):
        canonicalize([(Fraction(1, 2), 1), (3, 0)])
    with pytest.raises(TypeError):
        canonicalize([(2.7, 0)])


@given(gens_lists)
def test_canonicalize_idempotent(gens):
    s = canonicalize(gens)
    assert canonicalize(s.gens) == s


@given(gens_lists)
def test_canonicalize_preserves_membership(gens):
    s = canonicalize(gens)
    for g in gens:
        assert contains(s, g)


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=3))
def test_generators_inside_original_span(gens):
    # Canonical generators are integer combinations of the inputs:
    # membership in the brute-force span over a small box agrees.
    s = canonicalize(gens)
    span = set()
    frontier = {(0, 0)}
    # Closure of the input set under addition within a box large enough
    # to contain the canonical basis: index <= 2 * 4 * 4 at rank 2, and a
    # rank-1 generator no longer than the inputs.
    box = 40
    for _ in range(200):
        new = set()
        for p in frontier:
            for g in gens:
                q = (p[0] + g[0], p[1] + g[1])
                r = (p[0] - g[0], p[1] - g[1])
                for t in (q, r):
                    if abs(t[0]) <= box and abs(t[1]) <= box and t not in span:
                        new.add(t)
        span |= frontier
        if not new:
            break
        frontier = new
    for g in s.gens:
        assert g in span


def test_index_and_membership():
    s = canonicalize([(3, 0), (1, 2)])
    assert index(s) == 6
    assert contains(s, (1, 2))
    assert contains(s, (4, 2))
    assert not contains(s, (1, 1))
    assert index(ZERO) == INDEX_INFINITE
    assert index(canonicalize([(1, 1)])) == INDEX_INFINITE


# Reference intersection.  Folded over a union's members it gives the
# period box that is_cover derives from their bases without it; the tests
# below check it against brute force.
def intersect(p: Subgroup, q: Subgroup) -> Subgroup:
    """Intersection of two subgroups, in canonical form.

    For rank 2 it is (P* + Q*)*.  With N the lcm of the indices,
    N P* and N Q* are integral, and so is N times the dual of their sum
    N (P n Q)*, as N (P n Q)* contains N Z^2.
    """
    if p.rank == 0 or q.rank == 0:
        return ZERO
    if p.rank == 2 and q.rank == 2:
        n = math.lcm(index(p), index(q))
        return _dual(canonicalize(_dual(p, n).gens + _dual(q, n).gens), n)
    if p.rank == 1 and q.rank == 1:
        (ux, uy), = p.gens
        (vx, vy), = q.gens
        if ux * vy - uy * vx != 0:
            return ZERO
        d1 = math.gcd(ux, uy)
        d2 = math.gcd(vx, vy)
        k = d1 // math.gcd(d1, d2) * d2
        return Subgroup(((ux // d1 * k, uy // d1 * k),))
    if p.rank == 2:
        p, q = q, p
    # p has rank 1, q has rank 2: find the least k >= 1 with k * gen in q.
    (gx, gy), = p.gens
    (a, _), (c, b) = q.gens
    k1 = b // math.gcd(b, gy)
    t = k1 * gx - (k1 * gy // b) * c
    m0 = a // math.gcd(a, t)
    k0 = k1 * m0
    return Subgroup(((k0 * gx, k0 * gy),))


@given(gens_lists, gens_lists)
def test_intersect_is_containment_maximal(g1, g2):
    a, b = canonicalize(g1), canonicalize(g2)
    w = intersect(a, b)
    assert is_subgroup_of(w, a)
    assert is_subgroup_of(w, b)
    members = brute_members(a, 8) & brute_members(b, 8)
    for p in members:
        assert contains(w, p)


@given(gens_lists, gens_lists)
def test_intersect_commutes(g1, g2):
    a, b = canonicalize(g1), canonicalize(g2)
    assert intersect(a, b) == intersect(b, a)


@given(gens_lists, gens_lists, gens_lists)
@settings(max_examples=50)
def test_intersect_associates(g1, g2, g3):
    a, b, c = (canonicalize(g) for g in (g1, g2, g3))
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


def _intersection_by_search(p, q):
    """Reference for the intersection of two rank-2 subgroups: its
    canonical basis (A, 0), (C, B) searched point by point with
    ``contains``.  A is the least x > 0 with (x, 0) in both, B the least
    height y > 0 of a point of both with 0 <= x < A, and C that x.  The
    points of p at height y are the x = (y / b) c (mod a) with b | y, so
    only those are tried."""
    (a, _), (c, b) = p.gens
    w = next(x for x in itertools.count(a, a) if contains(q, (x, 0)))
    for y in itertools.count(b, b):
        for x in range((y // b) * c % a, w, a):
            if contains(q, (x, y)):
                return Subgroup(((w, 0), (x, y)))


def test_intersect_matches_search_on_3000_seeded_pairs():
    # Indices up to 150, so intersections reach index 150 * 149 and
    # heights far past the membership boxes of the tests above.
    rng = random.Random(17)

    def rank2():
        n = rng.randint(1, 150)
        a = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        return Subgroup(((a, 0), (rng.randrange(a), n // a)))

    for _ in range(3000):
        p, q = rank2(), rank2()
        assert intersect(p, q) == _intersection_by_search(p, q), (p, q)


# Small rank-2 bases directly, so that the divisibility conditions on a
# and b often hold and the condition on c decides; canonicalized lists
# add rank 0 and rank 1.
small_rank2 = st.integers(1, 6).flatmap(
    lambda a: st.builds(
        lambda c, b: Subgroup(((a, 0), (c, b))),
        st.integers(0, a - 1),
        st.integers(1, 6),
    )
)
subgroups = st.one_of(small_rank2, gens_lists.map(canonicalize))


@given(subgroups, subgroups)
def test_is_subgroup_of_matches_generator_test(p, q):
    assert is_subgroup_of(p, q) == all(contains(q, g) for g in p.gens)
    w = intersect(p, q)
    assert is_subgroup_of(w, q) and all(contains(q, g) for g in w.gens)


@given(gens_lists, vec)
def test_adjoin_contains_both(gens, v):
    s = canonicalize(gens)
    t = adjoin(s, v)
    assert contains(t, v)
    assert is_subgroup_of(s, t)


def assert_generated_by(t, gens):
    """Check from the definition that ``t`` is the canonical basis of the
    subgroup the points ``gens`` generate, without canonicalize or adjoin.

    With rank 2, t contains the generators and its index is the gcd of
    their 2x2 minors, the index of their span, so t is that span.  With
    rank 1, t is the gcd of the generators' multiples of the primitive
    direction times that direction.
    """
    gens = [g for g in gens if g != (0, 0)]
    assert all(contains(t, g) for g in gens)
    pairs = itertools.combinations(gens, 2)
    det = reduce(math.gcd, (x1 * y2 - y1 * x2 for (x1, y1), (x2, y2) in pairs), 0)
    if det:
        (a, z), (c, b) = t.gens
        assert z == 0 and a >= 1 and b >= 1 and 0 <= c < a
        assert a * b == det
    elif gens:
        u, w = gens[0]
        d = math.gcd(u, w) if u > 0 or (u == 0 and w > 0) else -math.gcd(u, w)
        pu, pw = u // d, w // d
        k = reduce(math.gcd, (x // pu if pu else y // pw for x, y in gens), 0)
        assert t.gens == ((k * pu, k * pw),)
    else:
        assert t == ZERO


def test_adjoin_matches_definition_on_seeded_subgroups():
    # Points with y = 0, negative coordinates and the origin included;
    # then every step the forcing search takes.
    rng = random.Random(26)
    ranks = Counter()

    def point(r):
        return (rng.randint(-r, r), rng.choice([0, rng.randint(-r, r)]))

    for _ in range(4000):
        points = [point(12) for _ in range(rng.choice([0, 1, 2, 2]))]
        s = canonicalize(points)
        assert_generated_by(s, points)
        v = point(30)
        ranks[s.rank] += 1
        assert_generated_by(adjoin(s, v), points + [v])
    assert min(ranks[r] for r in (0, 1, 2)) > 100
    search = enumeration.Search()
    enumeration.raw_solutions(search=search)
    row = len(enumeration.FORCING_POINTS)
    assert len(search.steps) == 1348
    for key in search.steps:
        s, v = search.subgroups[key // row], enumeration.FORCING_POINTS[key % row]
        assert_generated_by(adjoin(s, v), s.gens + (v,))


def _random_lattice(rng, max_index=6):
    a = rng.randint(1, max_index)
    b = rng.randint(1, max(1, max_index // a))
    c = rng.randint(0, a - 1)
    return Subgroup(((a, 0), (c, b)))


def _period_box(lattices):
    """Periods of the union in x and in y.

    Each member with basis (a, 0), (c, b) is invariant under x -> x + a
    and under y -> y + b * a / gcd(a, c), so the union is periodic with
    the lcm of those periods in each direction.
    """
    la = math.lcm(*(s.gens[0][0] for s in lattices))
    lb = math.lcm(
        *(
            s.gens[1][1] * (s.gens[0][0] // math.gcd(s.gens[0][0], s.gens[1][0]))
            for s in lattices
        )
    )
    return la, lb


def _period_box_oracle(lattices):
    """Exhaustive cover check over one full period of the union."""
    la, lb = _period_box(lattices)
    return all(
        any(contains(s, (x, y)) for s in lattices)
        for x in range(la)
        for y in range(lb)
    )


def test_is_cover_matches_oracle_on_1000_random_tuples():
    rng = random.Random(20240817)
    agree = 0
    for _ in range(1000):
        tup = [_random_lattice(rng) for _ in range(rng.randint(1, 6))]
        assert is_cover(tup) == _period_box_oracle(tup)
        agree += 1
    assert agree == 1000


def test_is_cover_matches_oracle_on_wide_intersections(catalog):
    # Members with a up to 13 make intersections wider than 64 bits, so
    # the row masks span several machine words.  Half the tuples are a
    # catalog entry, often with one member dropped (a near miss, since
    # the entries are minimal), plus such wide members.  Tuples whose
    # period box exceeds 10^5 points are skipped to keep the oracle cheap.
    rng = random.Random(20261018)
    seen = {True: 0, False: 0}
    wide = 0
    while sum(seen.values()) < 400:
        if rng.random() < 0.5:
            tup = list(rng.choice(catalog.entries).lattices)
            if rng.random() < 0.7:
                del tup[rng.randrange(len(tup))]
            tup += [_random_lattice(rng, 13) for _ in range(rng.randint(1, 2))]
        else:
            tup = [_random_lattice(rng, 13) for _ in range(rng.randint(2, 6))]
        la, lb = _period_box(tup)
        if la * lb > 10**5:
            continue
        got = is_cover(tup)
        assert got == _period_box_oracle(tup), tup
        seen[got] += 1
        wide += reduce(intersect, tup).gens[0][0] > 64
    assert seen[True] >= 20 and seen[False] >= 20 and wide >= 20, (seen, wide)


def test_is_cover_rejects_huge_index():
    triple = [
        canonicalize([(2, 0), (0, 1)]),
        canonicalize([(1, 0), (0, 2)]),
        canonicalize([(1, 1), (0, 2)]),
    ]
    with pytest.raises(ValueError):
        is_cover(triple + [Subgroup(((10**12, 0), (0, 1)))])
    # Just below the limit the test still runs, over about 5 * 10^5 rows.
    tup = triple + [Subgroup(((2, 0), (1, 249_999)))]
    assert MAX_COVER_INDEX // 2 < index(reduce(intersect, tup)) <= MAX_COVER_INDEX
    assert is_cover(tup)


def test_is_cover_period_is_exact(monkeypatch):
    # Wide members put the index of the members' intersection, computed
    # by folding ``intersect``, on both sides of the cap.  is_cover derives
    # that index without the fold, so raising exactly above the cap pins
    # it; below the cap the verdict must match the oracle.  A cap one
    # below the true index must bite on every tuple, so that no tuple's
    # index is underestimated.  Members of mixed width keep three to six
    # of them in the band, so that every pair of positions decides the
    # index of some tuple.
    rng = random.Random(20261019)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 300:
        tup = [
            _random_lattice(rng, rng.choice((12, 36, 400, 3600)))
            for _ in range(rng.randint(3, 6))
        ]
        tup = [s for s in tup if s != FULL]
        n = index(reduce(intersect, tup))
        if not MAX_COVER_INDEX // 30 < n <= 30 * MAX_COVER_INDEX:
            continue
        above = n > MAX_COVER_INDEX
        if above:
            with pytest.raises(ValueError):
                is_cover(tup)
        else:
            assert is_cover(tup) == _period_box_oracle(tup), tup
        seen[above] += 1
        with monkeypatch.context() as m:
            m.setattr(lattices_module, "MAX_COVER_INDEX", n - 1)
            with pytest.raises(ValueError):
                is_cover(tup)


def test_is_cover_scans_rows_past_l(catalog):
    # Rows 0 to l - 1, l the lcm of the b, lie in every period box and are
    # scanned first; the rest of the box, up to wb = l * k, only once they
    # are full.  Filling them does not suffice: {m | y} with the p cosets
    # (p, 0), (c, 1) fills every row whose height is prime to p, so rows 0
    # to m - 1, and misses row p.
    for m, p in ((2, 3), (3, 5), (4, 7)):
        tup = [Subgroup(((1, 0), (0, m)))] + [Subgroup(((p, 0), (c, 1))) for c in range(p)]
        assert not is_cover(tup)
        assert not _period_box_oracle(tup)
    # Catalog entries, often with one member dropped, plus members that
    # make k > 1, that is wb > l: covers and non-covers agree with the
    # oracle.
    rng = random.Random(20261020)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 100:
        tup = list(rng.choice(catalog.entries).lattices)
        if rng.random() < 0.5:
            del tup[rng.randrange(len(tup))]
        tup += [_random_lattice(rng, 12) for _ in range(rng.randint(1, 2))]
        la, lb = _period_box(tup)
        wb = reduce(intersect, tup).gens[1][1]
        if wb == math.lcm(*(s.gens[1][1] for s in tup)) or la * lb > 10**4:
            continue
        got = is_cover(tup)
        assert got == _period_box_oracle(tup), tup
        seen[got] += 1


def _tuple(*bases):
    return [Subgroup(((a, 0), (c, b))) for a, c, b in bases]


@pytest.mark.parametrize(
    "bases, scanned, cover",
    [
        # Row 0: no member has a = 1, so (1, 0) is missed.
        (((2, 0, 1), (2, 1, 1), (3, 0, 2)), [], False),
        # Row 1: a = 1 is present, but the b = 1 cosets 0 and 1 mod 3
        # leave (2, 1).
        (((1, 0, 2), (3, 0, 1), (3, 1, 1)), [], False),
        # Rows 0 and 1 are full; (1, 2) is missed below l = 4.
        (((1, 0, 4), (2, 0, 1), (2, 1, 1)), [(2, 4)], False),
        # Rows 0 to l - 1 = 1 are full; (1, 3) is missed at wb = 6 > l.
        (((1, 0, 2), (3, 0, 1), (3, 1, 1), (3, 2, 1)), [(2, 2), (2, 6)], False),
        # The length-3 covering scans its whole box.
        (((2, 0, 1), (1, 0, 2), (2, 1, 1)), [(2, 2), (2, 2)], True),
    ],
)
def test_is_cover_exits_match_oracle(monkeypatch, bases, scanned, cover):
    # Rows 0 and 1 are decided before any row of the box is scanned; the
    # rest is scanned as rows 2 to l - 1, then l to wb - 1.
    tup = _tuple(*bases)
    calls = []
    inner = lattices_module._rows_full

    def recorded(rows, full, start, stop):
        calls.append((start, stop))
        return inner(rows, full, start, stop)

    monkeypatch.setattr(lattices_module, "_rows_full", recorded)
    assert is_cover(tup) == _period_box_oracle(tup) == cover
    assert calls == scanned


def test_is_cover_cap_precedes_row_0():
    # Row 0 misses (1, 0), but the intersection's index 10^12 is above
    # the cap, so the cap check answers first.
    with pytest.raises(ValueError, match="above the limit"):
        is_cover([Subgroup(((2, 0), (0, 1))), Subgroup(((10**12, 0), (0, 1)))])


def test_is_cover_keeps_no_module_state():
    def sizes():
        out = {}
        for name, value in vars(lattices_module).items():
            if hasattr(value, "cache_info"):
                out[name] = value.cache_info().currsize
            elif isinstance(value, Sized) and not isinstance(value, type):
                out[name] = len(value)
        return out

    before = sizes()
    rng = random.Random(7)
    keys = set()
    while len(keys) < 1000:
        tup = [_random_lattice(rng) for _ in range(rng.randint(1, 6))]
        key = tuple(sorted(s.gens for s in tup))
        if key not in keys:
            keys.add(key)
            is_cover(tup)
    assert sizes() == before


def test_is_cover_short_circuit_and_rank_filter():
    assert is_cover([FULL, ZERO])
    assert not is_cover([ZERO])
    assert not is_cover([])
    assert not is_cover([canonicalize([(1, 1)])])
    # The classical three-lattice covering: even x, even y, x = y mod 2.
    triple = [
        canonicalize([(2, 0), (0, 1)]),
        canonicalize([(1, 0), (0, 2)]),
        canonicalize([(1, 1), (0, 2)]),
    ]
    assert is_cover(triple)
    assert not is_cover(triple[:2])


def _random_gamma(rng):
    while True:
        entries = [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)
        ]
        g = RatMat2(*entries)
        if g.det() != 0:
            return g


def test_lattice_of_index_multiple_law_on_200_matrices():
    rng = random.Random(8)
    for _ in range(200):
        g = _random_gamma(rng)
        lam = lattice_of(g)
        # The index times |det| is a (positive) integer.
        val = index(lam) * abs(g.det())
        assert val == int(val) and val >= 1
        assert lattice_of(-g) == lam


def _lattice_of_by_residues(gamma):
    """Reference: canonicalize every residue x in (Z/m)^2 with gamma x
    integral, m the common denominator of gamma, together with m Z^2."""
    entries = gamma.entries()
    m = math.lcm(*(e.denominator for e in entries))
    na, nb, nc, nd = (int(e * m) for e in entries)
    gens = [(m, 0), (0, m)]
    for x in range(m):
        for y in range(m):
            if (na * x + nb * y) % m == 0 and (nc * x + nd * y) % m == 0:
                gens.append((x, y))
    return canonicalize(gens)


# Denominators up to 6 keep the reference loop at most 60 x 60.
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@given(st.builds(RatMat2, rationals, rationals, rationals, rationals))
def test_lattice_of_matches_residue_loop(g):
    if g.det() == 0:
        with pytest.raises(ZeroDivisionError):
            lattice_of(g)
    else:
        assert lattice_of(g) == _lattice_of_by_residues(g)


def test_lattice_of_matches_residue_loop_up_to_denominator_12():
    # One denominator d per matrix keeps the residue loop at most 12 x 12.
    rng = random.Random(12)
    seen = 0
    while seen < 500:
        d = rng.randint(1, 12)
        g = RatMat2(*(Fraction(rng.randint(-5 * d, 5 * d), d) for _ in range(4)))
        if g.det() == 0:
            continue
        seen += 1
        assert lattice_of(g) == _lattice_of_by_residues(g), g


def test_lattice_of_integral_iff_full():
    assert lattice_of(RatMat2.of(1, 2, 3, 4)) == FULL
    assert lattice_of(RatMat2.of(Fraction(1, 2), 0, 0, 1)) == canonicalize(
        [(2, 0), (0, 1)]
    )
    with pytest.raises(ZeroDivisionError):
        lattice_of(RatMat2.of(1, 1, 1, 1))


def test_density_sum_exact():
    triple = [
        canonicalize([(2, 0), (0, 1)]),
        canonicalize([(1, 0), (0, 2)]),
        canonicalize([(1, 1), (0, 2)]),
    ]
    assert density_sum(triple) == Fraction(3, 2)
    with pytest.raises(ValueError):
        density_sum([ZERO])

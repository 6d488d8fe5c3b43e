import hashlib
import heapq
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latcover import groebner, poly
from latcover.forms import R_MAT, S_MAT
from latcover.groebner import (
    COEFF_POLYS,
    ELEMENT_NAMES,
    EXCEPTIONAL_TRIPLE,
    ORDER3_ELEMENTS,
    contains_constant,
    has_common_zero_mod7,
    pair_system,
    reduces_to_zero,
    strong_groebner,
    triple_system,
)
from latcover.lattices import xgcd
from latcover.mat2 import RatMat2

#: The non-identity elements of D3 as matrices, with RS = R*S and
#: R2S = R^2*S.
GROUP_MATRICES = {
    "R": R_MAT,
    "R2": R_MAT @ R_MAT,
    "S": S_MAT,
    "RS": R_MAT @ S_MAT,
    "R2S": R_MAT @ R_MAT @ S_MAT,
}
#: Sign of each coefficient row of adj(T) g T against the polynomials.
TOP_SIGN = {"R": 1, "R2": -1, "S": 1, "RS": 1, "R2S": -1}
BOTTOM_SIGN = {"R": -1, "R2": 1, "S": 1, "RS": -1, "R2S": 1}


def _rows(name, t):
    """The (top, bottom) coefficient pairs of ``name`` evaluated at t."""
    (p1,), (p2,), (q1,), (q2,) = poly.evaluate_columns(
        [poly.expand(q) for q in COEFF_POLYS[name]], [t]
    )
    return (p1, p2), (q1, q2)


def test_coefficient_polynomials_are_conjugate_rows():
    # With T = (t1 t2; t3 t4), the two rows of adj(T) g T are the top and
    # bottom coefficient pairs of g, each with a fixed sign.
    for t in itertools.product(range(-3, 4), repeat=4):
        t1, t2, t3, t4 = t
        mat_t = RatMat2.of(t1, t2, t3, t4)
        adj_t = RatMat2.of(t4, -t2, -t3, t1)
        for name, g in GROUP_MATRICES.items():
            m = adj_t @ g @ mat_t
            (p1, p2), (q1, q2) = _rows(name, t)
            assert (m.a, m.b) == (TOP_SIGN[name] * p1, TOP_SIGN[name] * p2)
            assert (m.c, m.d) == (
                BOTTOM_SIGN[name] * q1, BOTTOM_SIGN[name] * q2,
            )


@given(st.tuples(*(st.integers(-30, 30) for _ in range(4))))
def test_swap_symmetry_exchanges_rows(t):
    # Swapping (t1, t2) with (t2, t1) and (t3, t4) with (t4, t3)
    # exchanges the two congruence rows of every element, with the
    # coefficients of x1 and x2 swapped; only S also flips the sign.
    theta = (t[1], t[0], t[3], t[2])
    for name in ELEMENT_NAMES:
        s = -1 if name == "S" else 1
        top_t, bot_t = _rows(name, t)
        top_s, bot_s = _rows(name, theta)
        assert top_s == (s * bot_t[1], s * bot_t[0])
        assert bot_s == (s * top_t[1], s * top_t[0])


#: Lists of polynomials in t1..t4, of degree at most 3 in each variable,
#: over one small pool of monomials that always holds the constant one,
#: so that the polynomials share monomials; coefficient 1 is drawn about
#: as often as all the others together.
t_poly_lists = st.lists(
    st.tuples(*(st.integers(0, 3) for _ in range(4))).map(lambda e: e + (0,) * 4),
    max_size=4,
).flatmap(
    lambda pool: st.lists(
        st.dictionaries(
            st.sampled_from([poly.ONE_MONO, *pool]),
            st.one_of(st.just(1), st.integers(-5, 5).filter(lambda c: c not in (0, 1))),
            max_size=5,
        ),
        max_size=5,
    )
)
t_points = st.tuples(*(st.integers(-4, 4) for _ in range(4)))


def _termwise(p, t):
    return sum(
        c * t[0] ** m[0] * t[1] ** m[1] * t[2] ** m[2] * t[3] ** m[3]
        for m, c in p.items()
    )


@given(t_poly_lists, t_points)
def test_evaluate_matches_termwise_sum(polys, t):
    got = poly.evaluate_columns([poly.expand(p) for p in polys], [t])
    assert got == [[_termwise(p, t)] for p in polys]


@given(t_poly_lists, st.lists(t_points, max_size=8))
def test_evaluate_column_matches_termwise_sum(polys, points):
    got = poly.evaluate_columns([poly.expand(p) for p in polys], points)
    assert got == [[_termwise(p, t) for t in points] for p in polys]


def test_evaluate_column_on_no_points():
    terms = [poly.expand(q) for q in COEFF_POLYS["R"]]
    assert poly.evaluate_columns(terms, []) == [[], [], [], []]
    assert poly.evaluate_columns([(), ()], []) == [[], []]
    assert poly.evaluate_columns([], []) == []


def test_evaluate_columns_on_many_terms_and_a_high_degree():
    # Sums and products are lists at each step, not chains of maps as
    # deep as the term count or the degree, which overflow the C stack.
    n = 300_000
    assert poly.evaluate_columns([[(2, (0,))] * n], [(1, 2, 3, 4)]) == [[2 * n]]
    assert poly.evaluate_columns([[(1, (1,) * n)]], [(5, -1, 0, 0)]) == [[1]]


small_polys = st.lists(
    st.tuples(
        st.tuples(*(st.integers(0, 2) for _ in range(2))),
        st.integers(-6, 6),
    ),
    min_size=1,
    max_size=4,
).map(
    lambda terms: {
        (e[0], e[1], 0, 0, 0, 0, 0, 0): c for e, c in terms if c
    }
)


def mono_key(m):
    """Degrevlex on exponent tuples: higher key = larger monomial."""
    return (sum(m), tuple(-e for e in reversed(m)))


#: Exponent vectors over the whole packed range, and small ones, among
#: which divisibility and ties are common.
small_monomials = st.tuples(*(st.integers(0, 3) for _ in range(poly.NVARS)))
monomials = st.tuples(
    *(st.integers(0, poly.MAX_EXP) for _ in range(poly.NVARS))
) | small_monomials


@given(monomials)
def test_pack_roundtrip(m):
    assert poly.unpack(poly.pack(m)) == m


@given(monomials, monomials)
def test_packed_order_is_degrevlex(a, b):
    assert (poly.pack(a) < poly.pack(b)) == (mono_key(a) < mono_key(b))
    assert (poly.pack(a) == poly.pack(b)) == (a == b)


@given(monomials, monomials)
def test_packed_divides_and_lcm_match_exponents(a, b):
    pa, pb = poly.pack(a), poly.pack(b)
    assert poly.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    assert poly.lcm(pa, pb) == poly.pack(tuple(map(max, a, b)))


def _lcm_by_unpacking(a: int, b: int) -> int:
    """Reference lcm: the field-wise maximum, with the degree summed over
    the unpacked exponents."""
    ge = ((a | poly.GUARD) - b) & poly.GUARD
    take_b = ge - (ge >> 8)
    f = b & take_b | a & (poly.FIELDS ^ take_b)
    return sum(poly.unpack(f)) << poly._DEG_SHIFT | f


#: Exponent vectors that often hold the extreme exponents 0 and MAX_EXP.
extreme_monomials = st.tuples(*(
    st.sampled_from((0, poly.MAX_EXP)) | st.integers(0, poly.MAX_EXP)
    for _ in range(poly.NVARS)
))


@given(extreme_monomials | monomials, extreme_monomials | monomials)
@example((0,) * poly.NVARS, (poly.MAX_EXP,) * poly.NVARS)
@example((poly.MAX_EXP, 0) * (poly.NVARS // 2), (0, poly.MAX_EXP) * (poly.NVARS // 2))
def test_lcm_degree_matches_unpacked_sum(a, b):
    pa, pb = poly.pack(a), poly.pack(b)
    assert poly.lcm(pa, pb) == _lcm_by_unpacking(pa, pb)


def test_pack_rejects_exponents_outside_fields():
    with pytest.raises(ValueError, match="exponents"):
        poly.pack((poly.MAX_EXP + 1,) + (0,) * (poly.NVARS - 1))
    with pytest.raises(ValueError, match="exponents"):
        poly.pack((-1,) + (0,) * (poly.NVARS - 1))


@pytest.mark.parametrize("m", [(1, 2, 3), (1,) * (poly.NVARS + 1)])
def test_pack_rejects_monomials_of_the_wrong_length(m):
    # Zipped with the field shifts, (1, 2, 3) would pack with degree 6 and
    # exponents 1, 2, 3, 255, ..., 255, and a 9-tuple would lose its last.
    with pytest.raises(ValueError, match=f"got {len(m)}"):
        poly.pack(m)


def _power(**exps) -> poly.Poly:
    return {tuple(exps.get(v, 0) for v in poly.VARS): 1}


def test_engine_rejects_degree_above_field_width():
    # Each generator fits, but the pair made when t2^200 is appended
    # after t1^200 has degree 400; a reduction could push one exponent
    # past 255.
    with pytest.raises(ValueError, match="S-pair"):
        strong_groebner([_power(t1=200), _power(t2=200)])
    # t1^200 * t2^100 fits the fields but not the degree bound.
    high = _power(t1=200, t2=100)
    with pytest.raises(ValueError, match="degree"):
        strong_groebner([high])
    with pytest.raises(ValueError, match="degree"):
        reduces_to_zero(high, [_power(t1=1)])


@given(st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in range(poly.NVARS))),
    st.integers(-5, 5).filter(bool),
    min_size=1,
    max_size=12,
))
def test_leading_term_is_degrevlex_maximum(p):
    m = max(p, key=mono_key)
    assert poly.leading_term(poly.pack_poly(p)) == (poly.pack(m), p[m])


@given(st.lists(small_polys, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_groebner_reduces_generators_to_zero(gens):
    gens = [g for g in gens if g]
    if not gens:
        return
    basis = strong_groebner(gens)
    for g in gens:
        assert reduces_to_zero(g, basis)
    # Products with generators stay in the ideal.
    assert reduces_to_zero(poly.mul(gens[0], gens[-1]), basis)


@given(
    small_polys, small_monomials, st.integers(-9, 9).filter(bool),
    small_polys, small_monomials, st.integers(-9, 9).filter(bool),
)
# Every term cancels.
@example({(1, 2, 0, 0, 0, 0, 0, 0): 3}, (0, 1, 0, 0, 0, 0, 0, 1), 2,
         {(1, 2, 0, 0, 0, 0, 0, 0): 3}, (0, 1, 0, 0, 0, 0, 0, 1), -2)
def test_combine_matches_ring_arithmetic(f, u, a, g, v, b):
    # The packed shift of x^u is pack(w + u) - pack(w) for every w.
    shift_u = poly.pack(u) - poly.pack(poly.ONE_MONO)
    shift_v = poly.pack(v) - poly.pack(poly.ONE_MONO)
    pf, pg = poly.pack_poly(f), poly.pack_poly(g)
    got = poly.combine(pf, shift_u, a, pg, shift_v, b)
    want = poly.add(poly.mul(f, {u: a}), poly.mul(g, {v: b}))
    assert poly.unpack_poly(got) == want
    assert 0 not in got.values()
    assert (pf, pg) == (poly.pack_poly(f), poly.pack_poly(g))


def test_engine_leaves_its_arguments_unchanged(reduced_bases):
    gens = triple_system(*EXCEPTIONAL_TRIPLE)
    before = [dict(g) for g in gens]
    strong_groebner(gens)
    assert gens == before
    # normal_form reduces a copy; its divisors stay as they are too.
    leads = groebner._packed_leads(reduced_bases[EXCEPTIONAL_TRIPLE])
    leads_before = [(m, c, dict(g)) for m, c, g in leads]
    for q, member in ((COEFF_POLYS["R"][2], True), (poly.constant(3), False)):
        p = poly.pack_poly(q)
        p_before = dict(p)
        assert (poly.normal_form(p, leads) == {}) == member
        assert p == p_before
    assert leads == leads_before


def _leading_term(p):
    m = max(p, key=mono_key)
    return m, p[m]


def _times_monomial(p, m, k):
    """k * x^m * p, on exponent tuples."""
    return {tuple(map(sum, zip(e, m))): k * c for e, c in p.items()}


@given(st.lists(small_polys, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_groebner_output_is_a_strong_basis(gens):
    # Checks the returned basis itself, not how it was found: for each
    # pair, the S-polynomial and, unless one leading coefficient divides
    # the other, a gcd-polynomial reduce to zero on it.
    gens = [g for g in gens if g]
    if not gens:
        return
    basis = strong_groebner(gens)
    for f, g in itertools.combinations(basis, 2):
        (mf, cf), (mg, cg) = _leading_term(f), _leading_term(g)
        m = tuple(map(max, mf, mg))
        uf = tuple(a - b for a, b in zip(m, mf))
        ug = tuple(a - b for a, b in zip(m, mg))
        lc = math.lcm(cf, cg)
        s_poly = poly.add(
            _times_monomial(f, uf, lc // cf), poly.neg(_times_monomial(g, ug, lc // cg))
        )
        assert reduces_to_zero(s_poly, basis), (basis, f, g)
        if cf % cg and cg % cf:
            _, a, b = xgcd(cf, cg)
            gcd_poly = poly.add(_times_monomial(f, uf, a), _times_monomial(g, ug, b))
            assert reduces_to_zero(gcd_poly, basis), (basis, f, g)


def test_chain_criterion_needs_the_coefficient_condition():
    # The generators reduce to 2*t1^2*t2, t1^2*t2 - t2 and t1*t2, and
    # only the S-polynomial -t2 of the last two yields t2.  When t1*t2
    # is appended, its pairs with the first two have the same lcm
    # t1^2*t2, but the term 2*t1^2*t2 of the first pair does not divide
    # the term t1^2*t2 of the second, so M and F keep the second.  When
    # 2*t2, the S-polynomial of the first two, is appended, it does not
    # divide that queued term t1^2*t2, so B keeps it too.  Either
    # criterion on the monomials alone drops it, and the engine then
    # returns [2*t2, t1*t2].
    t1, t2 = poly.variable("t1"), poly.variable("t2")
    t1_sq_t2 = _power(t1=2, t2=1)
    gens = [
        poly.scale(t1_sq_t2, -2),
        poly.add(poly.scale(t1_sq_t2, -3), poly.neg(t2)),
        poly.mul(t1, t2),
    ]
    assert strong_groebner(gens) == [t2]


def _reference_groebner(gens):
    """The reduced strong Groebner basis with no criteria: every pair's
    S- and gcd-polynomial is reduced, smallest lcm first."""
    leads = []
    queue = []

    def append(g):
        m, c = poly.leading_term(g)
        if c < 0:
            g, c = poly.neg(g), -c
        for k, (mk, _, _) in enumerate(leads):
            heapq.heappush(queue, (poly.lcm(mk, m), k, len(leads)))
        leads.append((m, c, g))

    for g in gens:
        g = poly.normal_form(poly.pack_poly(g), leads)
        if g:
            append(g)
    while queue:
        lcm, i, j = heapq.heappop(queue)
        (mi, ci, gi), (mj, cj, gj) = leads[i], leads[j]
        _, s, t = xgcd(ci, cj)
        lc = math.lcm(ci, cj)
        for a, b in ((lc // ci, -lc // cj), (s, t)):
            cand = poly.add(
                {m + lcm - mi: a * c for m, c in gi.items()},
                {m + lcm - mj: b * c for m, c in gj.items()},
            )
            h = poly.normal_form({m: c for m, c in cand.items() if c}, leads)
            if h:
                append(h)
    # A strong basis reduces canonically, so the reduced basis is its
    # minimal elements, first of equal leading terms, with reduced tails.
    reduced = []
    for i, (m, c, g) in enumerate(leads):
        if not any(
            poly.divides(m2, m) and c % c2 == 0 and (k < i or (m2, c2) != (m, c))
            for k, (m2, c2, _) in enumerate(leads) if k != i
        ):
            tail = {k: v for k, v in g.items() if k != m}
            reduced.append({**poly.normal_form(tail, leads), m: c})
    reduced.sort(key=max)
    return [poly.unpack_poly(p) for p in reduced]


#: Signed coefficients, many pairs of which (4 and 6, 9 and 12) divide
#: neither way, so gcd-polynomials and the coefficient conditions matter.
small_coeffs = st.sampled_from([s * c for c in (1, 2, 3, 4, 6, 9, 12) for s in (1, -1)])


@st.composite
def small_systems(draw):
    """1 to 4 generators in 2 or 3 variables, of degree at most 2."""
    nvars = draw(st.integers(2, 3))
    monos = [
        e + (0,) * (poly.NVARS - nvars)
        for e in itertools.product(range(3), repeat=nvars)
        if sum(e) <= 2
    ]
    gen = st.dictionaries(st.sampled_from(monos), small_coeffs, min_size=1, max_size=4)
    return draw(st.lists(gen, min_size=1, max_size=4))


@given(small_systems())
@settings(max_examples=150, deadline=None)
# Criterion B without its strictness gets 2*t2^2 + 1, t2 + 1, 2 wrong.
@example([
    poly.add(poly.scale(_power(t2=2), 2), poly.constant(1)),
    poly.add(_power(t2=1), poly.constant(1)),
    poly.constant(2),
])
# Criterion B on the monomials alone gets t3, t1*t2 + 1, t2^2, 2 wrong.
@example([
    _power(t3=1),
    poly.add(_power(t1=1, t2=1), poly.constant(1)),
    _power(t2=2),
    poly.constant(2),
])
def test_criteria_keep_the_reduced_basis(gens):
    # The Gebauer-Moeller criteria only skip S-polynomials whose
    # syzygies others generate, so the reduced basis is the one found
    # without them.
    assert strong_groebner(gens) == _reference_groebner(gens)


#: normal_form calls per system: the generators, every S- and
#: gcd-polynomial reduced, and the interreduction.  Reducing every pair's
#: S-polynomial took 15,713 calls over the 20 systems, and Buchberger's
#: chain criterion, tested when a pair was popped, 3,800; the
#: Gebauer-Moeller update leaves 2,805.
NORMAL_FORM_CALLS = {
    ("R", "R2"): 27, ("R", "S"): 109, ("R", "RS"): 96, ("R", "R2S"): 257,
    ("R2", "S"): 109, ("R2", "RS"): 96, ("R2", "R2S"): 257,
    ("S", "RS"): 212, ("S", "R2S"): 212, ("RS", "R2S"): 212,
    ("R", "R2", "S"): 150, ("R", "R2", "RS"): 97, ("R", "R2", "R2S"): 266,
    ("R", "S", "RS"): 98, ("R", "S", "R2S"): 98, ("R", "RS", "R2S"): 98,
    ("R2", "S", "RS"): 122, ("R2", "S", "R2S"): 122, ("R2", "RS", "R2S"): 122,
    ("S", "RS", "R2S"): 45,
}


def test_normal_form_calls_per_system(monkeypatch):
    calls = []
    inner = groebner.normal_form

    def counted(p, leads):
        calls.append(1)
        return inner(p, leads)

    monkeypatch.setattr(groebner, "normal_form", counted)
    counts = {}
    for combo in NORMAL_FORM_CALLS:
        calls.clear()
        strong_groebner(pair_system(*combo) if len(combo) == 2 else triple_system(*combo))
        counts[combo] = len(calls)
    assert counts == NORMAL_FORM_CALLS
    assert sum(counts.values()) == 2805


def test_verify_all_decides_membership_through_the_public_functions(
    monkeypatch, reduced_bases
):
    # Through the module globals: contains_constant(3, .) once on each
    # basis, and reduces_to_zero once, on the exceptional triple's basis,
    # for t1^2 + t1*t3 + t3^2.
    calls = []
    contains, reduces = groebner.contains_constant, groebner.reduces_to_zero

    def counted_contains(c, basis):
        calls.append(("contains_constant", c, id(basis)))
        return contains(c, basis)

    def counted_reduces(p, basis):
        calls.append(("reduces_to_zero", p == COEFF_POLYS["R"][2], id(basis)))
        return reduces(p, basis)

    monkeypatch.setattr(groebner, "contains_constant", counted_contains)
    monkeypatch.setattr(groebner, "reduces_to_zero", counted_reduces)
    assert all(v.ok for v in groebner.verify_all(reduced_bases))
    triple = id(reduced_bases[EXCEPTIONAL_TRIPLE])
    assert [c for c in calls if c[0] == "reduces_to_zero"] == [("reduces_to_zero", True, triple)]
    assert [c for c in calls if c[0] == "contains_constant"] == [
        ("contains_constant", 3, id(b)) for b in reduced_bases.values()
    ]


def test_groebner_principal_ideal():
    basis = strong_groebner([poly.constant(6), poly.constant(10)])
    assert contains_constant(2, basis)
    assert not contains_constant(1, basis)
    assert not contains_constant(3, basis)


def test_groebner_univariate_example():
    x = poly.variable("t1")
    # ideal (2x, x^2 + 3): contains 3x (= x*(x^2+3) - ... ) check closure
    basis = strong_groebner([poly.scale(x, 2), poly.add(poly.mul(x, x), poly.constant(3))])
    assert reduces_to_zero(poly.scale(x, 2), basis)
    assert not contains_constant(3, basis)
    # 9 = (x^2+3)*3 - x*x*3, and 3x^2 = x*2x*2 - x^2 ... verify x*3 in ideal:
    assert reduces_to_zero(poly.scale(poly.mul(x, x), 2), basis)


def test_element_names_and_exceptions():
    # Derived from the matrices: the exceptions are the elements of order
    # 3 (pair family) and of order 2 (triple family).
    assert ELEMENT_NAMES == ("R", "R2", "S", "RS", "R2S")
    assert ORDER3_ELEMENTS == ("R", "R2")
    assert EXCEPTIONAL_TRIPLE == ("S", "RS", "R2S")


def test_pair_system_shapes():
    for e1, e2 in itertools.combinations(ELEMENT_NAMES, 2):
        gens = pair_system(e1, e2)
        assert len(gens) == 9
    for combo in itertools.combinations(ELEMENT_NAMES, 3):
        assert len(triple_system(*combo)) == 5


def test_reduced_basis_sizes(reduced_bases):
    sizes = {combo: len(basis) for combo, basis in reduced_bases.items()}
    expected = {combo: 4 if len(combo) == 2 else 5 for combo in sizes}
    expected[ORDER3_ELEMENTS] = 7
    expected[EXCEPTIONAL_TRIPLE] = 10
    assert sizes == expected


def test_reduced_bases_match_parent(reduced_bases):
    # SHA-256 of the 20 bases, terms in dict order, as computed before the
    # engine moved to packed monomials: any change to a basis, or to the
    # order of its terms, shows here.
    text = repr([[list(g.items()) for g in b] for b in reduced_bases.values()])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f1d2c943fd436de46cf667f73b71bfbb908f424924bf146fd93f01bdf4e45bda"
    )


def test_pair_verdicts(pair_verdicts):
    assert len(pair_verdicts) == 10
    for v in pair_verdicts:
        assert v.ok, v.elements
        expected = set(v.elements) != set(ORDER3_ELEMENTS)
        assert v.contains_3 == expected


def test_triple_verdicts(triple_verdicts):
    assert len(triple_verdicts) == 10
    for v in triple_verdicts:
        assert v.ok, v.elements
        expected = set(v.elements) != set(EXCEPTIONAL_TRIPLE)
        assert v.contains_3 == expected
        if not expected:
            # The quadratic norm form certifies the exceptional triple.
            assert v.norm_form_in_ideal is True


def test_finite_field_oracle_agrees(pair_verdicts, triple_verdicts):
    for v in pair_verdicts:
        assert has_common_zero_mod7(v.elements, "pair") == (not v.contains_3)
    for v in triple_verdicts:
        assert has_common_zero_mod7(v.elements, "triple") == (not v.contains_3)


def test_coefficient_polynomials_are_quadratic_forms():
    # The mod-7 oracle searches projectively, which is sound only while
    # every coefficient polynomial is homogeneous of degree 2.
    for name, polys in COEFF_POLYS.items():
        for q in polys:
            assert q and all(sum(m) == 2 for m in q), name


def _full_search_mod7(elements, kind):
    """Reference for the mod-7 oracle: every tuple of (Z/7)^4 that meets
    the side conditions, with no projective reduction."""
    if kind == "pair":
        polys = [q for e in elements for q in COEFF_POLYS[e]]
    else:
        polys = [COEFF_POLYS[e][0] for e in elements]
    points = [
        t for t in itertools.product(range(7), repeat=4)
        if (kind == "pair" and any(t))
        or (kind == "triple" and (t[0] or t[2]) and (t[1] or t[3]))
    ]
    return any(all(_termwise(q, t) % 7 == 0 for q in polys) for t in points)


def test_projective_oracle_matches_full_search():
    combos = [
        *itertools.combinations(ELEMENT_NAMES, 2),
        *itertools.combinations(ELEMENT_NAMES, 3),
    ]
    for combo in combos:
        kind = "pair" if len(combo) == 2 else "triple"
        assert has_common_zero_mod7(combo, kind) == _full_search_mod7(combo, kind), combo


def test_oracle_rejects_unknown_kind():
    with pytest.raises(ValueError):
        has_common_zero_mod7(("R", "S"), "quadruple")

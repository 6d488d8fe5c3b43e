import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latcover.forms import (
    F0,
    MAX_BOX_RADIUS,
    MAX_DEGREE,
    R_MAT,
    S_MAT,
    SEXTIC_CONJUGATOR,
    BinaryForm,
    _box_value_set,
    _box_values,
    compose,
    corollary_case,
    cross_value_check,
    dagger,
    discriminant,
    evaluate,
    extraordinary_by_C3,
    is_automorphism,
    sextic,
)
from latcover.mat2 import RatMat2, parse_mat2

coeff = st.integers(-6, 6)


def cubic_forms():
    return st.tuples(coeff, coeff, coeff, coeff).filter(any).map(
        lambda cs: BinaryForm.of(*cs)
    )


def test_evaluate_examples():
    assert evaluate(F0, 1, 1) == 2
    assert evaluate(F0, 7, 0) == 0
    assert evaluate(sextic(1, 0), 1, 1) == 1


rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@given(
    st.lists(rational, min_size=2, max_size=8).filter(any),
    st.integers(-20, 20),
    st.integers(-20, 20),
)
@example([Fraction(1, 2), Fraction(-3)], 0, 0)
def test_evaluate_matches_termwise_sum(coeffs, x, y):
    f = BinaryForm.of(*coeffs)
    d = f.degree
    termwise = sum(
        (c * Fraction(x) ** (d - i) * Fraction(y) ** i
         for i, c in enumerate(f.coeffs)),
        start=Fraction(0),
    )
    assert evaluate(f, x, y) == termwise


def test_compose_examples():
    assert compose(F0, S_MAT) == F0
    assert compose(F0, R_MAT) == F0
    assert compose(F0, RatMat2.identity()) == F0


@given(cubic_forms(), st.integers(-8, 8), st.integers(-8, 8))
def test_compose_matches_pointwise(f, x, y):
    g = RatMat2.of(2, 1, -1, 3)
    assert evaluate(compose(f, g), x, y) == evaluate(f, 2 * x + y, -x + 3 * y)


def _fraction_compose(f, gamma):
    """Reference ``compose``: the same expansion on ``Fraction`` lists."""

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    d = f.degree
    pow1, pow2 = [[Fraction(1)]], [[Fraction(1)]]
    for _ in range(d):
        pow1.append(mul(pow1[-1], [Fraction(gamma.a), Fraction(gamma.b)]))
        pow2.append(mul(pow2[-1], [Fraction(gamma.c), Fraction(gamma.d)]))
    out = [Fraction(0)] * (d + 1)
    for i, c in enumerate(f.coeffs):
        for j, v in enumerate(mul(pow1[d - i], pow2[i])):
            out[j] += c * v
    return BinaryForm(tuple(out))


@given(
    st.lists(rational, min_size=2, max_size=7).filter(any),
    st.tuples(rational, rational, rational, rational),
)
@example(
    [Fraction(1, 2), Fraction(-3), Fraction(5, 4)],
    (Fraction(1, 3), 0, 0, Fraction(1, 2)),
)
@settings(deadline=None)
def test_compose_matches_fraction_reference(coeffs, entries):
    f, gamma = BinaryForm.of(*coeffs), RatMat2.of(*entries)
    got = compose(f, gamma)
    assert got == _fraction_compose(f, gamma)
    assert all(type(c) is Fraction for c in got.coeffs)


def test_is_automorphism():
    assert is_automorphism(F0, R_MAT)
    assert not is_automorphism(F0, RatMat2.of(2, 0, 0, 1))
    with pytest.raises(ValueError):
        is_automorphism(F0, RatMat2.of(1, 1, 1, 1))


IDENTITY = RatMat2.identity()


def _order(m):
    """Multiplicative order of ``m``, or None above 12."""
    acc = m
    for n in range(1, 13):
        if acc == IDENTITY:
            return n
        acc = acc @ m
    return None


def _closure(gens):
    """The group generated by the named matrices ``gens``, in
    breadth-first order from the identity: (word, matrix) pairs, each
    word the shortest product of generators, ties broken by generator
    order."""
    elements, frontier = {IDENTITY: "id"}, [("id", IDENTITY)]
    while frontier:
        nxt = []
        for word, m in frontier:
            for name, g in gens:
                p = m @ g
                if p not in elements:
                    elements[p] = name if word == "id" else f"{word}*{name}"
                    nxt.append((elements[p], p))
        frontier = nxt
    return [(word, m) for m, word in elements.items()]


D3 = _closure([("R", R_MAT), ("S", S_MAT)])
D6 = _closure([("R", R_MAT), ("S", S_MAT), ("-id", -IDENTITY)])
#: A cubic that R fixes and S negates.
G_ANTI = BinaryForm.of(-2, -3, 3, 2)


def test_generator_closures():
    # <R, S> and <R, S, -1> are D3 and D6, and R, R^2 are their only
    # elements of order 3.
    assert len(D3) == 6 and len(D6) == 12
    assert sorted(_order(m) for _, m in D3) == [1, 2, 2, 2, 3, 3]
    assert sorted(_order(m) for _, m in D6) == [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6]
    assert {m for _, m in D6 if _order(m) == 3} == {R_MAT, R_MAT @ R_MAT}
    assert {m for _, m in D6} == {m for _, m in D3} | {-m for _, m in D3}
    for group in (D3, D6):
        mats = {m for _, m in group}
        assert all(a @ b in mats for a in mats for b in mats)


def test_d3_stabilizes_f0():
    for word, g in D3:
        assert is_automorphism(F0, g), word


def test_sextic_family_stable_under_conjugated_group():
    t = SEXTIC_CONJUGATOR
    rng = random.Random(3)
    seen = 0
    while seen < 20:
        a, c = rng.randint(-9, 9), rng.randint(-9, 9)
        try:
            f = sextic(a, c)
        except ValueError:
            continue
        seen += 1
        for word, g in D6:
            assert is_automorphism(f, t.inverse() @ g @ t), word


def test_conjugate_properties():
    assert IDENTITY.inverse() @ R_MAT @ IDENTITY == R_MAT
    t = parse_mat2("1/3,0;0,1")
    m = t.inverse() @ R_MAT @ t
    assert 3 in {e.denominator for e in m.entries()}
    assert _order(m) == 3
    with pytest.raises(ZeroDivisionError):
        RatMat2.of(1, 1, 1, 1).inverse()
    with pytest.raises(ZeroDivisionError):
        extraordinary_by_C3(F0, RatMat2.of(1, 1, 1, 1), "d3")


def test_corollary_case_classification():
    assert corollary_case(R_MAT) == "a"
    assert corollary_case(parse_mat2("0,1;-1/3,-1")) is None
    assert corollary_case(parse_mat2("-1/2,-1/2;3/2,-1/2")) == "d"
    assert corollary_case(parse_mat2("1,0;1/2,1")) == "b"
    assert corollary_case(parse_mat2("1,1/2;0,1")) == "c"
    assert corollary_case(parse_mat2("1/2,1/3;0,1")) is None


def _shape_by_cases(a, b, c, d):
    """The integrality shape of (a b; c d), read off the four cases as
    ``corollary_case``'s docstring states them."""
    def integer(x):
        return x == int(x)

    def half_odd(x):
        return integer(2 * x) and (2 * x) % 2 == 1

    if all(map(integer, (a, b, c, d))):
        return "a"
    if integer(a) and integer(d) and integer(b) and half_odd(c):
        return "b"
    if integer(a) and integer(d) and half_odd(b) and integer(c):
        return "c"
    if all(map(half_odd, (a, b, c, d))):
        return "d"
    return None


def test_corollary_case_matches_the_four_cases():
    # Every matrix whose entries have odd numerators and denominators 1,
    # 2 or 3: integers, half-odd-integers and thirds, in every position.
    entries = sorted({Fraction(n, d) for n in (-3, -1, 1, 3) for d in (1, 2, 3)})
    shapes = set()
    for abcd in itertools.product(entries, repeat=4):
        shape = corollary_case(RatMat2(*abcd))
        assert shape == _shape_by_cases(*abcd), abcd
        shapes.add(shape)
    assert shapes == {"a", "b", "c", "d", None}


def test_unimodular_conjugation_preserves_case_a():
    for t in (parse_mat2("1,1;0,1"), parse_mat2("2,1;1,1"), parse_mat2("0,1;-1,0")):
        assert corollary_case(t.inverse() @ R_MAT @ t) == "a"
    t = parse_mat2("1/3,0;0,1")
    assert corollary_case(t.inverse() @ R_MAT @ t) is None


def _det_one(a, b, c):
    """The matrix (a b; c d) with d chosen so that its determinant is 1."""
    return RatMat2(a, b, c, (1 + b * c) / a)


#: Denominators 1..4 make half-odd entries, and so the shapes b, c, d, common.
small_rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
conjugators = st.tuples(small_rational, small_rational, small_rational, small_rational).map(
    lambda e: RatMat2.of(*e)
)
invertible = conjugators.filter(lambda t: t.det() != 0)


@given(st.one_of(
    st.builds(_det_one, small_rational.filter(bool), small_rational, small_rational),
    invertible.map(lambda t: t.inverse() @ R_MAT @ t),
))
@example(parse_mat2("1,0;1/2,1"))
@example(parse_mat2("1,1/2;0,1"))
@example(parse_mat2("-1/2,-1/2;3/2,-1/2"))
@example(parse_mat2("1/2,1/3;0,2"))
def test_corollary_case_is_inverse_invariant(m):
    # Why a verdict needs only T^-1 R T and not T^-1 R^2 T, its inverse.
    assert m.det() == 1
    assert (corollary_case(m) is None) == (corollary_case(m.inverse()) is None)


def test_extraordinary_verdicts():
    assert extraordinary_by_C3(F0, RatMat2.identity(), "d3") is True
    assert extraordinary_by_C3(sextic(1, 0), SEXTIC_CONJUGATOR, "d6") is True
    # XY(X+3Y) = 9 * (F0 after the axis rescaling by 1/3).
    t = parse_mat2("1/3,0;0,1")
    f = BinaryForm.of(0, 1, 3, 0)
    assert extraordinary_by_C3(f, t, "d3") is False


def test_extraordinary_rejects_bad_conjugation():
    # The error names the first generator, in the order R, S, -id, whose
    # conjugate is not an automorphism.
    with pytest.raises(ValueError, match="^conjugate of R is not"):
        extraordinary_by_C3(F0, parse_mat2("2,0;0,1"), "d3")
    with pytest.raises(ValueError, match="^conjugate of S is not"):
        extraordinary_by_C3(G_ANTI, IDENTITY, "d3")
    with pytest.raises(ValueError, match="^conjugate of -id is not"):
        extraordinary_by_C3(F0, IDENTITY, "d6")
    with pytest.raises(ValueError, match="variant"):
        extraordinary_by_C3(F0, IDENTITY, "d5")


def _reference_verdict(f, t, variant):
    """Extraordinariness decided on every element of the group: each
    conjugate T^-1 g T, in breadth-first order, must be an automorphism
    of ``f``, and some conjugate of order 3 must have an integrality
    shape."""
    t_inv = t.inverse()
    conjugates = [(word, t_inv @ g @ t) for word, g in {"d3": D3, "d6": D6}[variant]]
    for word, g in conjugates:
        if compose(f, g) != f:
            raise ValueError(f"conjugate of {word} is not an automorphism of the form")
    return any(_order(g) == 3 and corollary_case(g) is not None for _, g in conjugates)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


variants = st.sampled_from(["d3", "d6"])


@st.composite
def verdict_cases(draw):
    """(form, conjugator, variant): F0 o T or (p F0 + q G_ANTI) o T with
    conjugator T, the sextic (1, c) o T with conjugator C T, or a random
    cubic or sextic."""
    kind = draw(st.sampled_from(["f0", "rotation", "sextic", "random"]))
    t = draw(invertible)
    if kind == "f0":
        return compose(F0, t), t, draw(variants)
    if kind == "rotation":
        p, q = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        f = BinaryForm.of(*(p * a + q * b for a, b in zip(F0.coeffs, G_ANTI.coeffs)))
        return compose(f, t), t, draw(variants)
    if kind == "sextic":
        c = draw(st.integers(-4, 4))
        return compose(sextic(1, c), t), SEXTIC_CONJUGATOR @ t, "d6"
    coeffs = draw(st.sampled_from([4, 7]).flatmap(
        lambda n: st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    ))
    return BinaryForm.of(*coeffs), draw(conjugators), draw(variants)


@given(verdict_cases())
@example((F0, IDENTITY, "d3"))
@example((sextic(1, 0), SEXTIC_CONJUGATOR, "d6"))
@example((BinaryForm.of(0, 1, 3, 0), parse_mat2("1/3,0;0,1"), "d3"))
@example((F0, parse_mat2("2,0;0,1"), "d3"))
@example((G_ANTI, IDENTITY, "d3"))
@example((F0, IDENTITY, "d6"))
@example((F0, RatMat2.of(0, 0, 0, 0), "d3"))
@settings(deadline=None)
def test_extraordinary_matches_whole_group_reference(case):
    # Checking the generators gives the verdict, or the error message,
    # of checking all 6 or 12 elements.
    f, t, variant = case
    assert _outcome(extraordinary_by_C3, f, t, variant) == _outcome(
        _reference_verdict, f, t, variant
    )


@given(cubic_forms(), st.integers(-10, 10), st.integers(-10, 10))
def test_dagger_is_x_doubling(f, x, y):
    assert evaluate(dagger(f), x, y) == evaluate(f, 2 * x, y)


def test_dagger_coefficients():
    assert dagger(F0).coeffs == (0, 4, 2, 0)
    assert dagger(dagger(F0)) == BinaryForm.of(0, 16, 4, 0)
    assert dagger(sextic(1, 0)).degree == 6


def test_discriminant_cubic_formula():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        if not any((a, b, c, d)):
            continue
        f = BinaryForm.of(a, b, c, d)
        want = (
            18 * a * b * c * d
            - 4 * b**3 * d
            + b * b * c * c
            - 4 * a * c**3
            - 27 * a * a * d * d
        )
        assert discriminant(f) == want


def test_discriminant_examples():
    assert discriminant(F0) == 1
    assert discriminant(BinaryForm.of(1, 0, 0, 0)) == 0
    assert discriminant(BinaryForm.of(0, 1, 3, 0)) != 0
    with pytest.raises(ValueError):
        discriminant(BinaryForm.of(1, 1))


@given(cubic_forms())
@settings(max_examples=60)
def test_discriminant_covariance(f):
    g = RatMat2.of(1, 2, 1, 3)
    assert discriminant(compose(f, g)) == g.det() ** 6 * discriminant(f)


def test_sextic_guards():
    assert sextic(1, 0).coeffs == (1, -3, 0, 5, 0, -3, 1)
    with pytest.raises(ValueError):
        sextic(0, 0)


def test_cross_value_check_reflexive():
    rep = cross_value_check(F0, F0, 5, 5)
    assert rep.ok


def test_cross_value_check_f0_companion():
    rep = cross_value_check(F0, dagger(F0), 10, 60)
    assert rep.ok
    d = rep.to_dict()
    assert d["ok"] and d["unmatched_f"] == [] and d["unmatched_g"] == []


def test_cross_value_check_reports_mismatch():
    # X^3 takes the value 1; 2X^3 never does.
    rep = cross_value_check(
        BinaryForm.of(1, 0, 0, 0), BinaryForm.of(2, 0, 0, 0), 2, 12
    )
    assert not rep.ok
    assert any(w.value == 1 for w in rep.unmatched_f)


def test_cross_value_check_requires_integral():
    with pytest.raises(ValueError):
        cross_value_check(BinaryForm.of(Fraction(1, 2), 0, 0, 0), F0, 2, 2)


def _reference_report(f, g, n, m):
    """``cross_value_check(f, g, n, m).to_dict()`` computed in Fraction
    arithmetic, term by term, keeping the first point in (x, y) scan
    order that takes each value."""

    def box_values(h, radius):
        values = {}
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                v = sum(
                    (c * Fraction(x) ** (h.degree - i) * Fraction(y) ** i
                     for i, c in enumerate(h.coeffs)),
                    start=Fraction(0),
                )
                values.setdefault(v, (x, y))
        return values

    def unmatched(small, big):
        return [
            {"value": int(v), "point": list(pt)}
            for v, pt in sorted(small.items()) if v not in big
        ]

    f_small, g_small = box_values(f, n), box_values(g, n)
    f_big, g_big = box_values(f, m), box_values(g, m)
    un_f, un_g = unmatched(f_small, g_big), unmatched(g_small, f_big)
    return {"n": n, "m": m, "ok": not un_f and not un_g,
            "unmatched_f": un_f, "unmatched_g": un_g}


integral_forms = st.lists(st.integers(-4, 4), min_size=2, max_size=7).filter(any).map(
    lambda cs: BinaryForm.of(*cs)
)


@given(integral_forms, integral_forms, st.integers(0, 4), st.integers(0, 12))
@example(BinaryForm.of(1, 0, 0, 0), BinaryForm.of(2, 0, 0, 0), 2, 12)
@example(BinaryForm.of(1, -1, 3, 2), BinaryForm.of(2, 1, 0, -5), 4, 3)
@settings(max_examples=60, deadline=None)
def test_cross_value_check_matches_fraction_reference(f, g, n, m):
    got = cross_value_check(f, g, n, m).to_dict()
    assert got == _reference_report(f, g, n, m)
    assert all(
        type(w["value"]) is int for w in got["unmatched_f"] + got["unmatched_g"]
    )


@given(integral_forms, st.integers(0, 6))
@settings(deadline=None)
def test_box_values_match_pointwise(f, radius):
    # The row-by-row box gives every value with its first point in (x, y)
    # scan order, in the order the scan first meets them.
    f = BinaryForm(tuple(map(int, f.coeffs)))
    want = {}
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            want.setdefault(evaluate(f, x, y), (x, y))
    got = _box_values(f, radius)
    assert list(got.items()) == list(want.items())
    assert all(type(v) is int for v in got)


@given(integral_forms, st.integers(0, 6))
@example(BinaryForm.of(1, 0, -2), 3)
@example(BinaryForm.of(1, -1, 3, 2), 4)
@settings(deadline=None)
def test_box_value_set_matches_full_box(f, radius):
    # The half box x >= 0, with the rows x < 0 taken by symmetry, gives
    # the values of the whole box, for forms of odd and even degree.
    f = BinaryForm(tuple(map(int, f.coeffs)))
    box = range(-radius, radius + 1)
    got = _box_value_set(f, radius)
    assert got == {evaluate(f, x, y) for x in box for y in box}
    assert all(type(v) is int for v in got)


def test_cross_value_check_caps_the_box():
    # Every box the paper's checks use lies inside the cap.
    assert MAX_BOX_RADIUS >= 60
    for n, m in ((MAX_BOX_RADIUS + 1, 0), (0, MAX_BOX_RADIUS + 1)):
        with pytest.raises(ValueError, match="box sizes"):
            cross_value_check(F0, F0, n, m)


def test_form_degree_is_capped():
    # The paper's forms have degrees 3 and 6.
    assert BinaryForm.of(*range(1, MAX_DEGREE + 2)).degree == MAX_DEGREE
    with pytest.raises(ValueError, match="degree must be at most"):
        BinaryForm.of(*range(1, MAX_DEGREE + 3))

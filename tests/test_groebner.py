import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcover import poly
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
from latcover.modular import coefficient_matrix


def _eval_poly(p, t):
    total = 0
    for m, c in p.items():
        v = c
        for e, x in zip(m[:4], t):
            v *= x**e
        total += v
    return total


def test_polynomials_match_scan_coefficients():
    # The symbolic coefficient polynomials and the numeric scan agree on
    # a grid of integer tuples.
    for t in itertools.product(range(-3, 4), repeat=4):
        numeric = coefficient_matrix(t)
        for name, (top, bot) in zip(ELEMENT_NAMES, numeric):
            p1, p2, q1, q2 = COEFF_POLYS[name]
            assert _eval_poly(p1, t) == top[0]
            assert _eval_poly(p2, t) == top[1]
            assert abs(_eval_poly(q1, t)) == abs(bot[0])
            assert abs(_eval_poly(q2, t)) == abs(bot[1])


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


@given(st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in range(poly.NVARS))),
    st.integers(-5, 5).filter(bool),
    min_size=1,
    max_size=12,
))
def test_leading_term_is_degrevlex_maximum(p):
    m = max(p, key=poly.mono_key)
    assert poly.leading_term(p) == (m, p[m])


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


def test_pair_system_shapes():
    for e1, e2 in itertools.combinations(ELEMENT_NAMES, 2):
        gens = pair_system(e1, e2)
        assert len(gens) == 9
    for combo in itertools.combinations(ELEMENT_NAMES, 3):
        assert len(triple_system(*combo)) == 5


def test_reduced_basis_sizes():
    sizes = {
        combo: len(strong_groebner(pair_system(*combo)))
        for combo in itertools.combinations(ELEMENT_NAMES, 2)
    }
    sizes.update(
        (combo, len(strong_groebner(triple_system(*combo))))
        for combo in itertools.combinations(ELEMENT_NAMES, 3)
    )
    expected = {combo: 4 if len(combo) == 2 else 5 for combo in sizes}
    expected[ORDER3_ELEMENTS] = 7
    expected[EXCEPTIONAL_TRIPLE] = 10
    assert sizes == expected


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
            assert v.extra == {"norm_form_in_ideal": True}


def test_finite_field_oracle_agrees(pair_verdicts, triple_verdicts):
    for v in pair_verdicts:
        assert has_common_zero_mod7(v.elements, "pair") == (not v.contains_3)
    for v in triple_verdicts:
        assert has_common_zero_mod7(v.elements, "triple") == (not v.contains_3)


def test_oracle_rejects_unknown_kind():
    with pytest.raises(ValueError):
        has_common_zero_mod7(("R", "S"), "quadruple")

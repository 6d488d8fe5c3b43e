"""Strong Groebner bases over Z and the ideal-membership certificates
for the congruence lemmas.

For every pair of non-identity group elements the four coefficient
polynomials of both elements, together with a unimodularity witness,
generate an ideal; the lemma asserts that 3 lies in that ideal except
when both elements have order 3.  A second family does the same for the
first coefficients of element triples, except for the triple of the
elements of order 2.  Membership of 3 is decided by reducing the
constant against a strong Groebner basis over Z.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

from . import poly
from .forms import R_MAT, S_MAT
from .lattices import xgcd
from .mat2 import RatMat2
from .poly import GUARD, Poly, leading_term, normal_form
from .value import Value

T1, T2, T3, T4 = (poly.variable(n) for n in ("t1", "t2", "t3", "t4"))
U1, U2, U3, U4 = (poly.variable(n) for n in ("u1", "u2", "u3", "u4"))


def _p(*terms) -> Poly:
    acc: Poly = {}
    for t in terms:
        acc = poly.add(acc, t)
    return acc


def _matmul(x, y) -> tuple[Poly, ...]:
    """The product of two 2x2 matrices of polynomials, each given by its
    entries in row order."""
    return tuple(
        _p(poly.mul(x[i], y[j]), poly.mul(x[i + 1], y[j + 2])) for i in (0, 2) for j in (0, 1)
    )


def _conjugate(g: RatMat2) -> tuple[Poly, ...]:
    """The entries of adj(T) g T for the integral g, T = (t1 t2; t3 t4)."""
    g_entries = [poly.constant(int(v)) for v in g.entries()]
    return _matmul(_matmul((T4, poly.neg(T2), poly.neg(T3), T1), g_entries), (T1, T2, T3, T4))


#: The five non-identity elements g of D3 = <R, S>, each with the signs
#: (top, bottom) its two coefficient rows carry against adj(T) g T.
_ELEMENTS = (
    ("R", R_MAT, 1, -1),
    ("R2", R_MAT @ R_MAT, -1, 1),
    ("S", S_MAT, 1, 1),
    ("RS", R_MAT @ S_MAT, 1, -1),
    ("R2S", R_MAT @ R_MAT @ S_MAT, -1, 1),
)

ELEMENT_NAMES = tuple(name for name, *_ in _ELEMENTS)

#: For each non-identity element g, the four coefficient polynomials
#: (top1, top2, bot1, bot2) of its pair of defining congruences: with
#: T = (t1 t2; t3 t4), the entries of adj(T) g T, each row times its sign
#: in ``_ELEMENTS``.  This is the one definition of these polynomials:
#: the residue scans in ``modular`` (the first rows for the class scans,
#: the bottom-left entries of R, S, RS and R2S at (u, 0, v, 0) for the
#: mod-9 quadratic forms), the mod-7 oracle and the ideal-membership
#: certificates all evaluate or reduce these.  The signs are a
#: convention: negating any row leaves every reduced basis and every
#: verdict the same.
COEFF_POLYS: dict[str, tuple[Poly, Poly, Poly, Poly]] = {
    name: tuple(
        poly.scale(entry, sign)
        for entry, sign in zip(_conjugate(g), (top, top, bottom, bottom))
    )
    for name, g, top, bottom in _ELEMENTS
}

#: u1*t1 + u2*t2 + u3*t3 + u4*t4 - 1, forcing gcd(t1, t2, t3, t4) = 1.
WITNESS_ALL = _p(*map(poly.mul, (U1, U2, U3, U4), (T1, T2, T3, T4)), poly.constant(-1))
#: u2*t2 + u4*t4 - 1, forcing gcd(t2, t4) = 1.
WITNESS_24 = _p(poly.mul(U2, T2), poly.mul(U4, T4), poly.constant(-1))
#: u1*t1 + u3*t3 - 1, forcing gcd(t1, t3) = 1.
WITNESS_13 = _p(poly.mul(U1, T1), poly.mul(U3, T3), poly.constant(-1))

#: The elements of order 3 and those of order 2: the pair of the first
#: and the triple of the second are the exceptions of the two families.
ORDER3_ELEMENTS = tuple(e for e, g, *_ in _ELEMENTS if g @ g @ g == RatMat2.identity())
EXCEPTIONAL_TRIPLE = tuple(e for e, g, *_ in _ELEMENTS if g @ g == RatMat2.identity())


def strong_groebner(gens) -> list[Poly]:
    """A strong Groebner basis over Z of the ideal generated by ``gens``.

    Buchberger's algorithm with both S-polynomials and gcd-polynomials.
    S-polynomials are dropped by the Gebauer-Moeller update (J. Symb.
    Comput. 6, 1988), taken over Z with the full term lcm T_ij =
    lcm(LC_i, LC_j) * lcm(LM_i, LM_j) (Lichtblau, Illinois J. Math. 56,
    2012).  It runs once, when an element h is appended:

    * B: a queued pair (i, j) loses its S-polynomial when LT_h | T_ij,
      T_ih != T_ij and T_jh != T_ij.  Its S-syzygy is then (T_ij / T_ih)
      times that of (i, h) minus (T_ij / T_jh) times that of (j, h).
    * M: a new pair (i, h) gets none when the term T_kh of another new
      pair divides T_ih; then T_ik | T_ih too, and its S-syzygy is
      (T_ih / T_kh) times that of (k, h) plus (T_ih / T_ik) times that
      of (i, k).
    * F: of new pairs with equal terms, the lowest index keeps it.

    B needs its strictness: were T_ih = T_ij, M could drop (i, h) for
    (j, h), resting on the (i, j) that B dropped for (i, h).  Every
    criterion divides terms, coefficients included: with the monomials
    alone the quotients need not be integers, and the engine loses
    basis elements
    (``test_chain_criterion_needs_the_coefficient_condition``).  The
    product criterion for coprime leading monomials is unsound over Z
    (for 3*t2 and 3*t1^2 - t2 it would miss t2^2) and is not used.  The
    gcd-polynomial is skipped only when one leading coefficient divides
    the other, in which case it is a plain monomial multiple of a basis
    element.

    A pair goes on the heap only if it needs its S- or gcd-polynomial.
    Under the normal strategy the smallest lcm of the two leading
    monomials comes first, ties broken by creation order: each element's
    pairs with the older ones by index, made when it is appended,
    generators included.  Each pair is keyed once, when it is made; one
    that B strips keeps its key and yields only its gcd-polynomial, if
    any.

    It runs on packed monomials (see ``poly``), packing ``gens`` once and
    unpacking the basis once.  A generator or pair lcm of degree above
    255 raises ``ValueError``: no term of a pair or its reductions
    exceeds the lcm's degree, so no exponent outgrows its field.
    """
    leads: list[tuple[int, int, poly.PackedPoly]] = []  # (LM, LC, g) per element
    # (packed lcm, creation counter, i, j, lc) per pair, i < j, with
    # lc = lcm(LC_i, LC_j), or 0 once the pair needs no S-polynomial.
    queue: list[tuple] = []
    counter = itertools.count()

    def append(g) -> None:
        m, c = leading_term(g)
        if c < 0:
            g, c = poly.neg(g), -c
        # T_kh of each new pair (k, h), as (lcm(LM_k, m), lcm(LC_k, c)).
        if c == 1:
            terms = [(poly.lcm(mk, m), ck) for mk, ck, _ in leads]
        else:
            terms = [(poly.lcm(mk, m), math.lcm(ck, c)) for mk, ck, _ in leads]
        if terms and max(terms)[0] >= poly.DEGREE_BOUND:
            raise ValueError(f"S-pair of degree above {poly.MAX_EXP}")
        # B.  The key stays, so the heap stays ordered.
        for pos, (lcm, n, i, j, lc) in enumerate(queue):
            if (
                lc
                and lc % c == 0
                and ((m | GUARD) - lcm) & GUARD == GUARD  # poly.divides(m, lcm)
                and terms[i] != (lcm, lc) != terms[j]
            ):
                queue[pos] = (lcm, n, i, j, 0)
        # M and F: a term's divisors come before it in (lcm, lc, k) order,
        # equal terms by index, and dividing is transitive, so testing the
        # terms kept so far suffices.
        kept: dict[int, tuple[int, int]] = {}
        for lcm, lc, k in sorted((*t, k) for k, t in enumerate(terms)):
            for m2, c2 in kept.values():
                if lc % c2 == 0 and ((m2 | GUARD) - lcm) & GUARD == GUARD:
                    break
            else:
                kept[k] = (lcm, lc)
        h = len(leads)
        leads.append((m, c, g))
        for k, (lcm, lc) in enumerate(terms):
            lc = lc if k in kept else 0
            if lc or (leads[k][1] % c and c % leads[k][1]):
                heapq.heappush(queue, (lcm, next(counter), k, h, lc))

    for g in gens:
        g = normal_form(poly.pack_poly(g), leads)
        if g:
            append(g)
    while queue:
        lcm, _, i, j, lc = heapq.heappop(queue)
        (mi, ci, gi), (mj, cj, gj) = leads[i], leads[j]
        candidates = []
        if lc:
            candidates.append(
                poly.combine(gi, lcm - mi, lc // ci, gj, lcm - mj, -(lc // cj))
            )
        if ci % cj and cj % ci:
            _, s, t = xgcd(ci, cj)
            candidates.append(poly.combine(gi, lcm - mi, s, gj, lcm - mj, t))
        for cand in candidates:
            h = normal_form(cand, leads)
            if h:
                append(h)
    # Interreduce: drop elements whose leading term another one divides,
    # and reduce the tails of the rest by the others.
    reduced = []
    for i, (m, c, g) in enumerate(leads):
        if not any(
            k != i and poly.divides(m2, m) and c % c2 == 0
            and (k < i or (m2, c2) != (m, c))
            for k, (m2, c2, _) in enumerate(leads)
        ):
            rest = dict(g)
            del rest[m]
            # No tail term is divisible by m, the largest monomial of g,
            # so g itself never reduces its own tail.
            rest = normal_form(rest, leads)
            rest[m] = c
            reduced.append(rest)
    reduced.sort(key=lambda p: leading_term(p)[0])
    return [poly.unpack_poly(p) for p in reduced]


def _packed_leads(basis) -> list[tuple[int, int, poly.PackedPoly]]:
    return [(*leading_term(g), g) for g in map(poly.pack_poly, basis) if g]


def _in_ideal(p: Poly, leads) -> bool:
    return not normal_form(poly.pack_poly(p), leads)


def contains_constant(c: int, basis) -> bool:
    """True iff the constant ``c`` lies in the ideal with the given
    strong Groebner basis."""
    return _in_ideal(poly.constant(c), _packed_leads(basis))


def reduces_to_zero(p: Poly, basis) -> bool:
    return _in_ideal(p, _packed_leads(basis))


def pair_system(e1: str, e2: str) -> list[Poly]:
    """Generators for the element pair {e1, e2}: all four coefficient
    polynomials of both, plus the full unimodularity witness."""
    return [*COEFF_POLYS[e1], *COEFF_POLYS[e2], WITNESS_ALL]


def triple_system(e1: str, e2: str, e3: str) -> list[Poly]:
    """Generators for the element triple: the three first coefficients
    plus both two-variable witnesses."""
    return [
        COEFF_POLYS[e1][0], COEFF_POLYS[e2][0], COEFF_POLYS[e3][0],
        WITNESS_13, WITNESS_24,
    ]


class Verdict(Value):
    """Outcome of one ideal-membership certificate: whether 3 lies in the
    ideal of ``elements``, against the ``expected`` answer.  For the
    exceptional triple, ``norm_form_in_ideal`` says whether
    t1^2 + t1*t3 + t3^2 lies in it; for every other combination it is
    None, which :meth:`~latcover.value.Value.to_dict` leaves out."""

    __slots__ = ("elements", "contains_3", "expected", "norm_form_in_ideal")

    @property
    def ok(self) -> bool:
        return self.contains_3 == self.expected


def certificate_bases() -> dict[tuple[str, ...], list[Poly]]:
    """The 20 reduced strong Groebner bases, keyed by element combination:
    the ten pairs, then the ten triples, in ``itertools.combinations``
    order."""
    combos = [
        *itertools.combinations(ELEMENT_NAMES, 2),
        *itertools.combinations(ELEMENT_NAMES, 3),
    ]
    return {
        c: strong_groebner(pair_system(*c) if len(c) == 2 else triple_system(*c))
        for c in combos
    }


def verify_all(bases) -> list[Verdict]:
    """The 20 certificates, judged on the bases of
    :func:`certificate_bases`: 3 is in the ideal except for the pair of
    order-3 elements and the triple of order-2 elements, where
    t1^2 + t1*t3 + t3^2 is instead."""
    verdicts = []
    for combo, basis in bases.items():
        norm_form = None
        if set(combo) == set(EXCEPTIONAL_TRIPLE):
            norm_form = reduces_to_zero(COEFF_POLYS["R"][2], basis)
        expected = set(combo) not in (set(ORDER3_ELEMENTS), set(EXCEPTIONAL_TRIPLE))
        verdicts.append(Verdict(combo, contains_constant(3, basis), expected, norm_form))
    return verdicts


@functools.cache
def _mod7_points() -> tuple[tuple[tuple[int, ...], ...], int]:
    """The 400 nonzero tuples mod 7 whose first nonzero entry is 1, and
    the bitmask over them of the tuples that meet the triples' side
    conditions (t1, t3) != 0 and (t2, t4) != 0."""
    points = tuple(
        (0,) * k + (1,) + rest
        for k in range(4)
        for rest in itertools.product(range(7), repeat=3 - k)
    )
    side = sum(1 << k for k, t in enumerate(points) if (t[0] or t[2]) and (t[1] or t[3]))
    return points, side


@functools.cache
def _mod7_zeros() -> dict[tuple[str, int], int]:
    """The zeros mod 7 of each ``COEFF_POLYS[element][row]`` among the
    points of ``_mod7_points()``, as a bitmask over them keyed by
    (element, row); the 20 polynomials are evaluated in one call."""
    points, _ = _mod7_points()
    keys = [(e, r) for e in ELEMENT_NAMES for r in range(4)]
    columns = poly.evaluate_columns([poly.expand(COEFF_POLYS[e][r]) for e, r in keys], points)
    return {
        key: sum(1 << k for k, v in enumerate(values) if v % 7 == 0)
        for key, values in zip(keys, columns)
    }


def has_common_zero_mod7(system_elements, kind: str) -> bool:
    """Finite-field cross-check: search (Z/7)^4 for a tuple killing the
    relevant coefficient polynomials while satisfying the gcd side
    conditions.  If 3 lies in the ideal there can be no such zero (3 is
    a unit mod 7), and the exceptional systems do have zeros because
    x^2 + x + 1 splits mod any prime = 1 mod 3.  The check is one-sided:
    a zero refutes "3 in I", but finding none does not prove that 3 lies
    in the ideal, so it cannot stand in for the Groebner certificates.

    The search is projective.  Every coefficient polynomial is a
    quadratic form, so q(c*t) = c^2 * q(t), and the side conditions
    (t != 0 for pairs; (t1, t3) != 0 and (t2, t4) != 0 for triples) hold
    for c*t whenever they hold for t, for any unit c mod 7.  A common
    zero t therefore gives one, c*t, whose first nonzero entry is 1, so
    only those 400 of the 2,400 nonzero tuples are tried.

    The 20 systems share 20 polynomials, whose zero sets among the 400
    tuples are computed together on shared monomial columns, once per
    process, as bitmasks; a system's common zeros are the AND of its
    polynomials' masks and, for a triple, the mask of its side conditions.
    """
    points, side = _mod7_points()
    if kind == "pair":
        rows = [(e, r) for e in system_elements for r in range(4)]
        mask = (1 << len(points)) - 1
    elif kind == "triple":
        rows = [(e, 0) for e in system_elements]
        mask = side
    else:
        raise ValueError(f"unknown system kind {kind!r}")
    for row in rows:
        mask &= _mod7_zeros()[row]
    return bool(mask)

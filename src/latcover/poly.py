"""Sparse multivariate polynomials over Z in the eight variables
t1, t2, t3, t4, u1, u2, u3, u4, with degrevlex term order.

A polynomial is a dict mapping exponent 8-tuples to nonzero integer
coefficients.  The module stays deliberately small: just enough ring
arithmetic plus division with remainder to support strong Groebner
bases over the integers.

Tuple-keyed dicts are the exchange format.  The division engine works
on packed polynomials instead, whose monomials are each one int
(Bachmann-Schoenemann, ISSAC 1998; Monagan-Pearce, CASC 2007)::

    deg << 72 | sum((255 - e_i) << 9*i),   t1 in the lowest field

Each 9-bit field holds 255 - e_i under a zero guard bit, so int order is
degrevlex, the leading monomial is ``max(p)``, and k times m / lm is
``k + (m - lm)``.  Fields hold exponents up to MAX_EXP = 255: ``pack``
rejects larger ones and any tuple that is not of length NVARS, and
``pack_poly`` rejects terms of degree above MAX_EXP, which bounds every
exponent of every reduction of them, as no degrevlex reduction raises
the degree.  ``add``, ``neg`` and ``scale`` serve both key forms;
``divides``, ``lcm``, ``combine`` (the S- and gcd-polynomials),
``leading_term`` and ``normal_form`` work on packed polynomials only.
"""

from __future__ import annotations

import itertools
import operator

VARS = ("t1", "t2", "t3", "t4", "u1", "u2", "u3", "u4")
NVARS = len(VARS)

Monomial = tuple[int, ...]
Poly = dict[Monomial, int]
PackedPoly = dict[int, int]

ONE_MONO: Monomial = (0,) * NVARS

MAX_EXP = 255
_SHIFTS = range(0, 9 * NVARS, 9)
_DEG_SHIFT = 9 * NVARS
FIELDS = sum(MAX_EXP << s for s in _SHIFTS)
GUARD = sum(256 << s for s in _SHIFTS)
#: Packed monomials below this have degree at most MAX_EXP.
DEGREE_BOUND = (MAX_EXP + 1) << _DEG_SHIFT


def variable(name: str) -> Poly:
    e = [0] * NVARS
    e[VARS.index(name)] = 1
    return {tuple(e): 1}


def constant(c: int) -> Poly:
    return {ONE_MONO: c} if c else {}


def pack(m: Monomial) -> int:
    if len(m) != NVARS:
        raise ValueError(f"monomials have {NVARS} exponents, got {len(m)}: {m}")
    a, b, c, d, e, f, g, h = m
    # For integers, the OR lies in 0..MAX_EXP = 2**8 - 1 iff each does.
    if not 0 <= a | b | c | d | e | f | g | h <= MAX_EXP:
        raise ValueError(f"exponents must lie in 0..{MAX_EXP}, got {m}")
    # FIELDS minus the exponents' fields, with no borrow, is 255 - e_i in each.
    return (a + b + c + d + e + f + g + h) << _DEG_SHIFT | FIELDS - (
        a | b << 9 | c << 18 | d << 27 | e << 36 | f << 45 | g << 54 | h << 63
    )


def unpack(k: int) -> Monomial:
    k = FIELDS - (k & FIELDS)
    return (
        k & MAX_EXP, k >> 9 & MAX_EXP, k >> 18 & MAX_EXP, k >> 27 & MAX_EXP,
        k >> 36 & MAX_EXP, k >> 45 & MAX_EXP, k >> 54 & MAX_EXP, k >> 63 & MAX_EXP,
    )


def divides(a: int, b: int) -> bool:
    # Each guard bit survives iff a's field >= b's, i.e. a's exponent <= b's.
    return ((a | GUARD) - b) & GUARD == GUARD


#: The even fields 0, 2, 4, 6 of a packed monomial, 18 bits apart, and
#: the repunit that sums them: in the product, the 18 bits from field
#: 6's position on hold the sum of the four, at most 4 * MAX_EXP < 2**18,
#: and no carry from the lower partial sums reaches them.  ``lcm`` sums
#: the odd fields the same way after a shift by one field.
_EVEN_FIELDS = sum(MAX_EXP << s for s in _SHIFTS[::2])
_REPUNIT_18 = sum(1 << s for s in _SHIFTS[::2])
_SUM_SHIFT = _SHIFTS[-2]
_SUM_MASK = (1 << 18) - 1


def lcm(a: int, b: int) -> int:
    ge = ((a | GUARD) - b) & GUARD
    take_b = ge - (ge >> 8)  # ones in the fields where a's exponent is smaller
    f = b & take_b | a & (FIELDS ^ take_b)
    fields = (
        ((f & _EVEN_FIELDS) * _REPUNIT_18 >> _SUM_SHIFT & _SUM_MASK)
        + ((f >> 9 & _EVEN_FIELDS) * _REPUNIT_18 >> _SUM_SHIFT & _SUM_MASK)
    )
    return (NVARS * MAX_EXP - fields) << _DEG_SHIFT | f


def pack_poly(p: Poly) -> PackedPoly:
    q = {pack(m): c for m, c in p.items()}
    if q and max(q) >= DEGREE_BOUND:
        raise ValueError(f"polynomial of degree above {MAX_EXP}")
    return q


def unpack_poly(p: PackedPoly) -> Poly:
    return {unpack(k): c for k, c in p.items()}


def add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def scale(p: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {m: k * c for m, c in p.items()}


def combine(f: PackedPoly, f_shift: int, a: int, g: PackedPoly, g_shift: int, b: int) -> PackedPoly:
    """a * f * x^u + b * g * x^v for packed f and g, built in one dict;
    each shift is given in packed form, ``pack(w + u) - pack(w)`` for
    any w, as ``lcm - lm`` is.  ``a`` and ``b`` must be nonzero."""
    out = {k + f_shift: a * c for k, c in f.items()}
    for k, c in g.items():
        k += g_shift
        s = out.get(k, 0) + b * c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def expand(p: Poly) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``p`` as (coeff, variable indices) terms, one index per unit of
    degree: t1*t2^2 becomes (c, (0, 1, 1)).  Evaluate with
    :func:`evaluate_columns`."""
    return tuple(
        (c, tuple(i for i, e in enumerate(m) for _ in range(e)))
        for m, c in p.items()
    )


def evaluate_columns(term_lists, points) -> list[list[int]]:
    """The values at each of ``points`` of each list of :func:`expand`
    terms in ``term_lists``, one column per list.  The points are
    transposed once, and each distinct monomial's column, the product
    down the columns of its variables, is built once and shared by every
    list of the call; a term with coefficient 1 adds it unscaled."""
    if not points:
        return [[] for _ in term_lists]
    n = len(points)
    cols = list(zip(*points))
    monomials = {}
    out = []
    # Each product and sum is a list before the next map takes it: a
    # chain of maps as long as a degree or a term count overflows the C
    # stack.
    for terms in term_lists:
        total = None
        for c, idx in terms:
            column = monomials.get(idx)
            if column is None:
                column = cols[idx[0]] if idx else [1] * n
                for i in idx[1:]:
                    column = list(map(operator.mul, column, cols[i]))
                monomials[idx] = column
            if c != 1:
                column = map(operator.mul, itertools.repeat(c), column)
            total = column if total is None else list(map(operator.add, total, column))
        out.append([0] * n if total is None else list(total))
    return out


def leading_term(p: PackedPoly) -> tuple[int, int]:
    if not p:
        raise ValueError("zero polynomial has no leading term")
    m = max(p)  # packed order is degrevlex
    return m, p[m]


def normal_form(p: PackedPoly, leads) -> PackedPoly:
    """Remainder of the packed ``p`` on division over Z by the packed
    polynomials g of ``leads``, given as (LM(g), LC(g), g) triples.

    A term c * m is rewritten using the first g with LM(g) | m whose
    quotient is nonzero, replacing c by its symmetric remainder modulo
    LC(g).  With ``leads`` a strong Groebner basis the result is zero
    exactly for ideal members.
    """
    p = dict(p)
    out: PackedPoly = {}
    while p:
        m = max(p)  # the leading monomial, as in leading_term
        c = p[m]
        for lm, lc, g in leads:
            if ((lm | GUARD) - m) & GUARD == GUARD:  # divides(lm, m)
                q = c // lc
                # Pull the remainder toward zero: |c - q*lc| <= |lc| / 2.
                r = c - q * lc
                if 2 * abs(r) > abs(lc):
                    q += 1 if lc > 0 else -1
                if q:
                    # p -= q * (m / lm) * g, in place.
                    shift = m - lm
                    for k, a in g.items():
                        k += shift
                        s = p.get(k, 0) - q * a
                        if s:
                            p[k] = s
                        else:
                            del p[k]
                    break
        else:
            out[m] = c
            del p[m]
    return out

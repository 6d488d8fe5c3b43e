"""Binary forms over Q with the GL2 action, the dihedral automorphism
machinery, the half-integrality criterion for extraordinariness and a
desk-scale value-set comparison.

A form of degree d is stored as the coefficient vector (c0, ..., cd) of
sum c_i X^(d-i) Y^i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .mat2 import RatMat2

Rat = Fraction

#: Largest degree ``BinaryForm.of`` accepts (the paper's forms: 3 and 6);
#: ``compose`` costs about degree^3 operations.
MAX_DEGREE = 24


@dataclass(frozen=True)
class BinaryForm:
    """A nonzero homogeneous polynomial in X, Y of degree >= 1."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs) -> "BinaryForm":
        if len(coeffs) > MAX_DEGREE + 1:
            raise ValueError(
                f"degree must be at most {MAX_DEGREE}, got {len(coeffs) - 1}"
            )
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) < 2 or not any(cs):
            raise ValueError("need a nonzero form of degree >= 1")
        return BinaryForm(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __str__(self) -> str:
        d = self.degree
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "*".join(
                filter(None, (
                    f"X^{d - i}" if d - i > 1 else ("X" if d - i else ""),
                    f"Y^{i}" if i > 1 else ("Y" if i else ""),
                ))
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)


F0 = BinaryForm.of(0, 1, 1, 0)  # X*Y*(X + Y)


def _row(coeffs, x) -> list:
    """The coefficients c_i * x^(d-i) of F(x, Y), highest power of Y first."""
    return [c * x**k for k, c in enumerate(reversed(coeffs))]


def evaluate(f: BinaryForm, x, y) -> int | Fraction:
    """F(x, y) for integers or fractions x, y: the coefficients of
    F(x, Y) in Y, then Horner's rule in y.

    The result is an ``int`` when the coefficients and x, y are all
    ``int``, and a ``Fraction`` otherwise."""
    acc, *rest = _row(f.coeffs, x)
    for r in rest:
        acc = acc * y + r
    return acc


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def compose(f: BinaryForm, gamma: RatMat2) -> BinaryForm:
    """(F o gamma)(X, Y) = F(a X + b Y, c X + d Y), exactly: E*F composed
    with D*gamma on ints, E and D the lcms of their denominators, then
    divided by E * D^d."""
    d = f.degree
    e_den = math.lcm(*(c.denominator for c in f.coeffs))
    d_den = math.lcm(*(v.denominator for v in gamma.entries()))
    coeffs = [int(c * e_den) for c in f.coeffs]
    a, b, c, dd = (int(v * d_den) for v in gamma.entries())
    # Powers of the two linear substitutes, as coefficient lists in Y.
    pow1 = [[1]]
    pow2 = [[1]]
    for _ in range(d):
        pow1.append(_poly_mul(pow1[-1], [a, b]))
        pow2.append(_poly_mul(pow2[-1], [c, dd]))
    out = [0] * (d + 1)
    for i, k in enumerate(coeffs):
        if not k:
            continue
        term = _poly_mul(pow1[d - i], pow2[i])
        for j, v in enumerate(term):
            out[j] += k * v
    scale = e_den * d_den**d
    return BinaryForm(tuple(Fraction(v, scale) for v in out))


def is_automorphism(f: BinaryForm, gamma: RatMat2) -> bool:
    if gamma.det() == 0:
        raise ValueError("automorphisms must be invertible")
    return compose(f, gamma) == f


@dataclass(frozen=True)
class GroupElement:
    name: str
    matrix: RatMat2
    order: int


S_MAT = RatMat2.of(0, 1, 1, 0)
R_MAT = RatMat2.of(0, 1, -1, -1)


def _element(name: str, m: RatMat2) -> GroupElement:
    return GroupElement(name, m, m.order())


@functools.cache
def dihedral_groups() -> tuple[tuple[GroupElement, ...], tuple[GroupElement, ...]]:
    """The groups generated by S, R and by S, -R as explicit 6- and
    12-element tuples, built once per process."""
    d3 = (
        _element("id", RatMat2.identity()),
        _element("R", R_MAT),
        _element("R2", R_MAT @ R_MAT),
        _element("S", S_MAT),
        _element("RS", R_MAT @ S_MAT),
        _element("R2S", R_MAT @ R_MAT @ S_MAT),
    )
    d6 = d3 + tuple(_element("-" + g.name, -g.matrix) for g in d3)
    return d3, d6


def _conjugate_all(t: RatMat2, group) -> list[GroupElement]:
    """T^-1 g T for each g of ``group``, inverting T once; the order is
    invariant under conjugation."""
    t_inv = t.inverse()
    return [GroupElement(g.name, t_inv @ g.matrix @ t, g.order) for g in group]


def conjugate(t: RatMat2, g: GroupElement) -> GroupElement:
    """T^-1 g T; the order is invariant under conjugation."""
    return _conjugate_all(t, [g])[0]


def _is_half_odd(x: Fraction) -> bool:
    return x.denominator == 2


def corollary_case(sigma: RatMat2) -> str | None:
    """Classify the entries (a, b; c, d) into the four admissible
    integrality shapes, or None.

    (a) all integers; (b) a, d, b integers and c a half-odd-integer;
    (c) a, d, c integers and b a half-odd-integer; (d) all four
    half-odd-integers.
    """
    a, b, c, d = sigma.entries()
    ints = [x.denominator == 1 for x in (a, b, c, d)]
    halves = [_is_half_odd(x) for x in (a, b, c, d)]
    if all(ints):
        return "a"
    if ints[0] and ints[3]:
        if ints[1] and halves[2]:
            return "b"
        if halves[1] and ints[2]:
            return "c"
    if all(halves):
        return "d"
    return None


def extraordinary_by_C3(f: BinaryForm, t: RatMat2, variant: str = "d3") -> bool:
    """Decide extraordinariness of a form whose automorphism group is
    the conjugate by ``t`` of the dihedral group named by ``variant``.

    The supplied conjugation is verified elementwise; the form is
    extraordinary iff some conjugated element of order 3 lands in one of
    the four integrality shapes.
    """
    d3, d6 = dihedral_groups()
    group = {"d3": d3, "d6": d6}.get(variant.lower())
    if group is None:
        raise ValueError("variant must be 'd3' or 'd6'")
    conjugated = _conjugate_all(t, group)
    for g in conjugated:
        if not is_automorphism(f, g.matrix):
            raise ValueError(
                f"conjugate of {g.name} is not an automorphism of the form"
            )
    return any(
        g.order == 3 and corollary_case(g.matrix) is not None
        for g in conjugated
    )


def dagger(f: BinaryForm) -> BinaryForm:
    """The companion form F(2X, Y): coefficient c_i picks up 2^(d-i)."""
    return compose(f, RatMat2.of(2, 0, 0, 1))


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination with pivoting."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for cc in range(col, n):
                    m[r][cc] -= factor * m[col][cc]
    return det


def _resultant(p: list[Fraction], q: list[Fraction]) -> Fraction:
    """Resultant of two binary forms given by full coefficient vectors
    (formal degrees len-1), via the Sylvester determinant."""
    dp, dq = len(p) - 1, len(q) - 1
    n = dp + dq
    rows = []
    for shift in range(dq):
        rows.append(
            [Fraction(0)] * shift + list(p) + [Fraction(0)] * (n - dp - 1 - shift)
        )
    for shift in range(dp):
        rows.append(
            [Fraction(0)] * shift + list(q) + [Fraction(0)] * (n - dq - 1 - shift)
        )
    return _det(rows)


def discriminant(f: BinaryForm) -> Fraction:
    """disc F = (-1)^(d(d-1)/2) Res(F_X, F_Y) / d^(d-2); zero exactly
    when F has a repeated projective root."""
    d = f.degree
    if d < 3:
        raise ValueError("discriminant normalization requires degree >= 3")
    fx = [(d - i) * c for i, c in enumerate(f.coeffs[:-1])]
    fy = [(i + 1) * c for i, c in enumerate(f.coeffs[1:])]
    res = _resultant(fx, fy)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res / Fraction(d) ** (d - 2)


#: The displayed sextic family is stabilized not by the dihedral group
#: itself but by its conjugate under this reflection: pass it as the
#: conjugating matrix when checking extraordinariness.
SEXTIC_CONJUGATOR = RatMat2.of(1, 0, 0, -1)


def sextic(a: int, c: int) -> BinaryForm:
    """The degree-6 family with parameters (a, c), stable under the
    conjugate of the 12-element dihedral group by ``SEXTIC_CONJUGATOR``;
    rejects parameter pairs with vanishing discriminant."""
    f = BinaryForm.of(a, -3 * a, c, 5 * a - 2 * c, c, -3 * a, a)
    if discriminant(f) == 0:
        raise ValueError(f"degenerate parameters (a, c) = ({a}, {c})")
    return f


@dataclass
class ValueWitness:
    value: int
    point: tuple[int, int]


@dataclass
class CompareReport:
    """Outcome of the two-directional boxed value-set comparison.

    ``unmatched_f`` holds values of the first form on the small box with
    no preimage of the second form on the big box; ``unmatched_g`` the
    converse.  Empty lists are necessary, never sufficient, for value-set
    equality.
    """

    n: int
    m: int
    unmatched_f: list[ValueWitness]
    unmatched_g: list[ValueWitness]

    @property
    def ok(self) -> bool:
        return not self.unmatched_f and not self.unmatched_g

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "ok": self.ok,
            "unmatched_f": [
                {"value": w.value, "point": list(w.point)}
                for w in self.unmatched_f
            ],
            "unmatched_g": [
                {"value": w.value, "point": list(w.point)}
                for w in self.unmatched_g
            ],
        }


#: Largest box radius of ``cross_value_check`` (the paper's boxes: 60).
MAX_BOX_RADIUS = 200


def _box_values(f: BinaryForm, radius: int) -> dict[int, tuple[int, int]]:
    """Each value of ``f`` on the box |x|, |y| <= radius, with the first
    point in (x, y) scan order that takes it."""
    values: dict[int, tuple[int, int]] = {}
    box = range(-radius, radius + 1)
    for x in box:
        top, *rest = _row(f.coeffs, x)
        for y in box:
            acc = top
            for r in rest:
                acc = acc * y + r
            values.setdefault(acc, (x, y))
    return values


def _box_value_set(f: BinaryForm, radius: int) -> set[int]:
    """The values of ``f`` on the box |x|, |y| <= radius, evaluated a
    whole row at a time by Horner's rule in y.  Only the rows x >= 0 are
    evaluated: F(-x, -y) = (-1)^d F(x, y), so the rows x < 0 take the
    values of the rows x > 0, negated when the degree d is odd."""
    box = range(-radius, radius + 1)
    values: set[int] = set()
    for x in range(radius + 1):
        top, *rest = _row(f.coeffs, x)
        row = [top] * len(box)
        for r in rest:
            row = [acc * y + r for acc, y in zip(row, box)]
        values.update(row)
    if f.degree % 2:
        values.update([-v for v in values])
    return values


def cross_value_check(
    f: BinaryForm, g: BinaryForm, n: int = 10, m: int | None = None
) -> CompareReport:
    """Search, in both directions, for values of one form on the box
    |x|, |y| <= n missed by the other form on the box |x|, |y| <= m.

    The radius-n boxes keep each value's first point, the witness a
    report gives; the radius-m boxes are only searched, so they are
    built as value sets, from the half box x >= 0."""
    if not (f.is_integral() and g.is_integral()):
        raise ValueError("value-set comparison requires integral forms")
    if m is None:
        m = 6 * n
    if not (0 <= n <= MAX_BOX_RADIUS and 0 <= m <= MAX_BOX_RADIUS):
        raise ValueError(f"box sizes must lie in 0..{MAX_BOX_RADIUS}, got {n} and {m}")
    # Integral forms take integer values: evaluate on int coefficients.
    f, g = (BinaryForm(tuple(map(int, h.coeffs))) for h in (f, g))
    f_small, g_small = _box_values(f, n), _box_values(g, n)
    f_big, g_big = _box_value_set(f, m), _box_value_set(g, m)
    unmatched_f = [
        ValueWitness(v, pt) for v, pt in sorted(f_small.items())
        if v not in g_big
    ]
    unmatched_g = [
        ValueWitness(v, pt) for v, pt in sorted(g_small.items())
        if v not in f_big
    ]
    return CompareReport(n, m, unmatched_f, unmatched_g)

"""Binary forms over Q with the GL2 action, the generators of the
dihedral automorphism groups, the half-integrality criterion for
extraordinariness and a desk-scale value-set comparison.

A form of degree d is stored as the coefficient vector (c0, ..., cd) of
sum c_i X^(d-i) Y^i.  Every evaluation goes through one kernel: the
coefficients of F(x, Y), then Horner's rule in y along a row of y's.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .mat2 import RatMat2
from .value import Value

#: Largest degree ``BinaryForm.of`` accepts (the paper's forms: 3 and 6);
#: ``compose`` costs about degree^3 operations.
MAX_DEGREE = 24


class BinaryForm(Value):
    """A nonzero homogeneous polynomial in X, Y of degree >= 1."""

    __slots__ = ("coeffs",)

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


def _row_values(coeffs, x, ys) -> list:
    """F(x, y) for each y of ``ys``: the coefficients c_i * x^(d-i) of
    F(x, Y), highest power of Y first, then Horner's rule in y across
    the whole row."""
    top, *rest = [c * x**k for k, c in enumerate(reversed(coeffs))]
    row = [top] * len(ys)
    for r in rest:
        row = [acc * y + r for acc, y in zip(row, ys)]
    return row


def evaluate(f: BinaryForm, x, y) -> int | Fraction:
    """F(x, y) for integers or fractions x, y: a row of one point.

    The result is an ``int`` when the coefficients and x, y are all
    ``int``, and a ``Fraction`` otherwise."""
    return _row_values(f.coeffs, x, (y,))[0]


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


S_MAT = RatMat2.of(0, 1, 1, 0)
R_MAT = RatMat2.of(0, 1, -1, -1)

#: Generators of D3 = <R, S> and D6 = <R, S, -1>, in the order a verdict
#: checks them.  R has order 3; its powers R and R^2 are the only
#: elements of order 3 in either group.
GENERATORS = {
    "d3": (("R", R_MAT), ("S", S_MAT)),
    "d6": (("R", R_MAT), ("S", S_MAT), ("-id", -RatMat2.identity())),
}


#: The four admissible integrality shapes of (a b; c d), keyed by the
#: denominators of (a, b, c, d).  A reduced fraction is a half-odd-integer
#: exactly when its denominator is 2.
_SHAPES = {(1, 1, 1, 1): "a", (1, 1, 2, 1): "b", (1, 2, 1, 1): "c", (2, 2, 2, 2): "d"}


def corollary_case(sigma: RatMat2) -> str | None:
    """Classify the entries (a, b; c, d) into the four admissible
    integrality shapes, or None.

    (a) all integers; (b) a, d, b integers and c a half-odd-integer;
    (c) a, d, c integers and b a half-odd-integer; (d) all four
    half-odd-integers.
    """
    return _SHAPES.get(tuple(x.denominator for x in sigma.entries()))


def extraordinary_by_C3(f: BinaryForm, t: RatMat2, variant: str = "d3") -> bool:
    """Decide extraordinariness of a form whose automorphism group is
    the conjugate by ``t`` of the dihedral group named by ``variant``.

    The automorphisms of ``f`` form a group, so the conjugation is
    verified on the generators alone; the first that fails is named in
    the error.  The form is extraordinary iff a conjugate of R or R^2
    lands in one of the four integrality shapes.  T^-1 R^2 T is the
    inverse (d -b; -c a) of the determinant-1 matrix T^-1 R T = (a b;
    c d), which has a shape exactly when T^-1 R T has, so T^-1 R T
    decides.
    """
    gens = GENERATORS.get(variant.lower())
    if gens is None:
        raise ValueError("variant must be 'd3' or 'd6'")
    t_inv = t.inverse()
    conjugates = {name: t_inv @ g @ t for name, g in gens}
    for name, g in conjugates.items():
        if not is_automorphism(f, g):
            raise ValueError(
                f"conjugate of {name} is not an automorphism of the form"
            )
    return corollary_case(conjugates["R"]) is not None


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


class ValueWitness(Value):
    """A value of a form and a point where the form takes it."""

    __slots__ = ("value", "point")


class CompareReport(Value):
    """Outcome of the two-directional boxed value-set comparison.

    ``unmatched_f`` holds values of the first form on the small box with
    no preimage of the second form on the big box; ``unmatched_g`` the
    converse.  Empty lists are necessary, never sufficient, for value-set
    equality.  Its JSON is :meth:`~latcover.value.Value.to_dict`, ``ok``
    included, with each witness as its value and point.
    """

    __slots__ = ("n", "m", "unmatched_f", "unmatched_g")

    @property
    def ok(self) -> bool:
        return not self.unmatched_f and not self.unmatched_g


#: Largest box radius of ``cross_value_check`` (the paper's boxes: 60).
MAX_BOX_RADIUS = 200


def _box_values(f: BinaryForm, radius: int) -> dict[int, tuple[int, int]]:
    """Each value of ``f`` on the box |x|, |y| <= radius, with the first
    point in (x, y) scan order that takes it."""
    values: dict[int, tuple[int, int]] = {}
    box = range(-radius, radius + 1)
    for x in box:
        for y, v in zip(box, _row_values(f.coeffs, x, box)):
            values.setdefault(v, (x, y))
    return values


def _box_value_set(f: BinaryForm, radius: int) -> set[int]:
    """The values of ``f`` on the box |x|, |y| <= radius.  Only the rows
    x >= 0 are evaluated: F(-x, -y) = (-1)^d F(x, y), so the rows x < 0
    take the values of the rows x > 0, negated when the degree d is odd."""
    box = range(-radius, radius + 1)
    values: set[int] = set()
    for x in range(radius + 1):
        values.update(_row_values(f.coeffs, x, box))
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
    default_m = m is None
    if default_m:
        m = 6 * n
    if not (0 <= n <= MAX_BOX_RADIUS and 0 <= m <= MAX_BOX_RADIUS):
        raise ValueError(
            f"box sizes must lie in 0..{MAX_BOX_RADIUS}, got {n} and {m}"
            + (" (m defaulted to 6*n)" if default_m else "")
        )
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

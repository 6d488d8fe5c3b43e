"""2x2 matrices over the rationals, exact throughout: products,
negation, determinant and inverse, and the parsers of the CLI's
number and matrix syntax."""

from __future__ import annotations

import re
from fractions import Fraction

from .value import Value

#: Longest number text :func:`parse_rational` accepts.  The paper's forms
#: and matrices have entries of a few digits; the cap keeps a single entry
#: from making the exact arithmetic downstream arbitrarily slow.
MAX_NUMBER_LENGTH = 100

_RATIONAL = re.compile(r"[+-]?(?:\d+(?:/\d+|\.\d*)?|\.\d+)", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse an integer ``p``, a fraction ``p/q`` or a decimal like ``-0.25``.

    Raises ValueError for anything else and for text longer than
    :data:`MAX_NUMBER_LENGTH`.  Exponent notation is refused because
    ``Fraction`` reads ``1e999999999`` as a 10^9-digit integer; a zero
    denominator raises ZeroDivisionError.
    """
    text = text.strip()
    if len(text) > MAX_NUMBER_LENGTH:
        raise ValueError(
            f"number has {len(text)} characters, above the limit {MAX_NUMBER_LENGTH}"
        )
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected p, p/q or a decimal without exponent, got {text!r}")
    return Fraction(text)


class RatMat2(Value):
    """An immutable 2x2 rational matrix (a b; c d)."""

    __slots__ = ("a", "b", "c", "d")

    @staticmethod
    def of(a, b, c, d) -> "RatMat2":
        return RatMat2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def identity() -> "RatMat2":
        return RatMat2.of(1, 0, 0, 1)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "RatMat2") -> "RatMat2":
        return RatMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "RatMat2":
        return RatMat2(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "RatMat2":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        return RatMat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)


def parse_mat2(text: str) -> RatMat2:
    """Parse ``"a,b;c,d"``; each entry as in :func:`parse_rational`."""
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError(f"expected two rows in {text!r}")
    flat = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected two entries per row in {text!r}")
        flat.extend(parse_rational(p) for p in parts)
    return RatMat2(*flat)

"""2x2 matrices over the rationals, exact throughout."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class RatMat2:
    """An immutable 2x2 rational matrix (a b; c d)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

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

    def order(self, limit: int = 24):
        """Multiplicative order, or None if it exceeds ``limit``."""
        acc = self
        for n in range(1, limit + 1):
            if acc == RatMat2.identity():
                return n
            acc = acc @ self
        return None

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)


def parse_mat2(text: str) -> RatMat2:
    """Parse ``"a,b;c,d"`` with rational entries like ``1/3``."""
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError(f"expected two rows in {text!r}")
    flat = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected two entries per row in {text!r}")
        flat.extend(Fraction(p.strip()) for p in parts)
    return RatMat2(*flat)

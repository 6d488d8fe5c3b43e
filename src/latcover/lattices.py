"""Exact arithmetic on subgroups of Z^2.

A subgroup of Z^2 has rank 0, 1 or 2 and is kept in a unique canonical
basis, so equality of subgroups is plain equality of objects:

* rank 0: no generators,
* rank 1: a single generator (u, v) with u > 0, or u == 0 and v > 0,
* rank 2: generators (a, 0) and (c, b) with a >= 1, b >= 1 and 0 <= c < a.

For a rank-2 subgroup the index in Z^2 is a * b and membership of (x, y)
amounts to b | y and a | (x - (y // b) * c).

:func:`lattice_of` is taken by duality, as the canonical form of an
integer multiple of a dual (see :func:`_dual`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce

from .value import Value

Vec2 = tuple[int, int]

#: Marker returned by :func:`index` for subgroups of rank < 2.
INDEX_INFINITE = math.inf


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, s, t = -g, -s, -t
    return g, s, t


class Subgroup(Value):
    """A subgroup of Z^2 in canonical basis form.  Immutable and hashable.

    Do not call the constructor with a non-canonical basis; use
    :func:`canonicalize` instead.
    """

    __slots__ = ("gens",)

    @property
    def rank(self) -> int:
        return len(self.gens)

    def __repr__(self) -> str:
        return f"Subgroup{self.gens!r}"


ZERO = Subgroup(())
FULL = Subgroup(((1, 0), (0, 1)))


def canonicalize(gens) -> Subgroup:
    """Canonical basis of the subgroup generated by ``gens``.

    Accepts any finite iterable of integer pairs, possibly empty or
    linearly dependent; a coordinate that is not an integer raises
    TypeError.  Idempotent: re-canonicalizing a canonical basis returns
    an equal subgroup.  The basis is built by :func:`adjoin`, one
    generator at a time.
    """
    return reduce(
        adjoin, ((operator.index(x), operator.index(y)) for x, y in gens), ZERO
    )


def index(s: Subgroup):
    """Index [Z^2 : s]; ``INDEX_INFINITE`` when the rank is below 2."""
    if s.rank != 2:
        return INDEX_INFINITE
    (a, _), (_, b) = s.gens
    return a * b


def contains(s: Subgroup, v: Vec2) -> bool:
    """Exact membership test of the point ``v`` in the subgroup ``s``."""
    x, y = v
    if s.rank == 0:
        return x == 0 and y == 0
    if s.rank == 1:
        (u, w), = s.gens
        if u:
            return x % u == 0 and (x // u) * w == y
        return x == 0 and y % w == 0
    # The reference copy of rank-2 membership, which tests compare the others with.
    (a, _), (c, b) = s.gens
    return y % b == 0 and (x - (y // b) * c) % a == 0


def is_subgroup_of(a: Subgroup, b: Subgroup) -> bool:
    """True iff every generator of ``a`` lies in ``b``."""
    return all(contains(b, g) for g in a.gens)


def _dual(m: Subgroup, n: int) -> Subgroup:
    """n m* in canonical form, m* = {y : y . x in Z for x in m} the dual
    of the rank-2 subgroup m.  The basis (p, 0), (r, q) of m has the dual
    basis (1/p, -r/(pq)), (0, 1/q); n m* is integral iff n Z^2 lies in m,
    as it does when the index pq divides n.  (n m*)* = m / n."""
    (p, _), (r, q) = m.gens
    return canonicalize([(n // p, -(n * r) // (p * q)), (0, n // q)])


def adjoin(s: Subgroup, v: Vec2) -> Subgroup:
    """Canonical form of the subgroup generated by ``s`` and the point ``v``.

    The Hermite normal form built one generator at a time, and the one
    routine that computes a canonical basis.  For v = (x, y):

    * rank 0: the line through v, sign-normalized; the origin leaves
      ``s`` as it is.
    * rank 1, basis (u, w), v on the line: v is an integer multiple of
      the primitive direction (u, w) / gcd(u, w), so the result is
      gcd(u, w, x, y) times that direction.
    * rank 1, v off the line: the index is |u y - w x| and the least
      height is g = gcd(w, y) = p w + q y, reached at p (u, w) + q v,
      so the basis is (a, 0), ((p u + q x) mod a, g), a = |u y - w x| / g.
    * rank 2, basis (a, 0), (c, b): with g = gcd(b, y) = p b + q y, the
      unimodular change from (c, b), v to p (c, b) + q v = (p c + q x, g)
      and (y / g) (c, b) - (b / g) v = ((y / g) c - (b / g) x, 0) gives
      the basis (a', 0), ((p c + q x) mod a', g), with a' the gcd of a
      and (y / g) c - (b / g) x.
    """
    x, y = v
    if len(s.gens) == 2:
        (a, _), (c, b) = s.gens
        g, p, q = xgcd(b, y)
        a = math.gcd(a, y // g * c - b // g * x)
        return Subgroup(((a, 0), ((p * c + q * x) % a, g)))
    if not s.gens:
        if x < 0 or (x == 0 and y < 0):
            x, y = -x, -y
        return Subgroup(((x, y),)) if x or y else s
    (u, w), = s.gens
    det = u * y - w * x
    if det:
        g, p, q = xgcd(w, y)
        a = abs(det) // g
        return Subgroup(((a, 0), ((p * u + q * x) % a, g)))
    d, k = math.gcd(u, w), math.gcd(u, w, x, y)
    return Subgroup(((u // d * k, w // d * k),))


#: Largest intersection index :func:`is_cover` and :func:`is_minimal_cover`
#: accept.  The search makes no exact covering test; the package's own
#: queries, on the 101 pruned forms that ``raw_solutions`` certifies and on
#: the 54 catalog entries, peak at an index of 36.  So this leaves wide
#: margin, while one row mask stays at most 125 kB and the row loop well
#: under a second.  Past it a single query would take minutes or exhaust
#: memory, so such input is rejected instead.
MAX_COVER_INDEX = 10**6


def _period_factor(members, l: int) -> int:
    """The lcm k of g / gcd(g, d - d') over pairs of members, with g the
    gcd of their a and d = (l / b) c; see :func:`is_cover`.  Members with
    a = 1 are skipped: their g is 1 against every other member."""
    k = 1
    earlier = []
    for (a, _), (c, b) in members:
        if a == 1:
            continue
        d = l // b * c
        for a2, d2 in earlier:
            g = math.gcd(a, a2)
            if g > 1:
                k = math.lcm(k, g // math.gcd(g, d - d2))
        earlier.append((a, d))
    return k


def _rows_full(rows, full: int, start: int, stop: int) -> bool:
    """True iff every row j in [start, stop) of the box is ``full``."""
    for j in range(start, stop):
        mask = 0
        for b, c, a, comb in rows:
            if j % b == 0:
                mask |= comb << ((j // b) * c % a)
        if mask != full:
            return False
    return True


def is_cover(subgroups) -> bool:
    """True iff the union of the given subgroups is all of Z^2.

    Only rank-2 members can contribute.  Their intersection w, with basis
    (wa, 0), (wc, wb), lies in every member, so the union is w-periodic
    and covers Z^2 iff it covers the box [0, wa) x [0, wb).  Only the box
    is needed, not w itself.  A point (x, 0) lies in w iff every member's
    a divides x, so wa is the lcm of the a.  wb is the least height y > 0
    of a point of w.  Every member's b must divide y, so y = l t with l
    the lcm of the b, and some x must solve the congruences x = t d
    (mod a), d = (l / b) c, of all members.  Such a system is solvable
    iff it is pairwise solvable, that is iff g / gcd(g, d - d') divides t
    for every pair of members, g being the gcd of their a.  So wb is l
    times the lcm k of those quotients.

    Each row j of the box is a ``wa``-bit mask: a member (a, 0), (c, b)
    with b | j holds the x with x = (j / b) * c (mod a), and since a | wa
    these are the bits of ``comb_a = full // (2**a - 1)`` (every a-th bit)
    shifted left by that residue.  The test stops at the first row that is
    not full.

    Rows 0 and 1 are decided from the bases first.  (x, 0) lies in a
    member iff a | x, so row 0 is full iff some member has a = 1.  (x, 1)
    lies only in the members with b = 1, at x = c (mod a), so row 1 is
    full iff their cosets fill Z / wa; only their masks are built for it.
    Both rows are points of Z^2, so a miss in either is a verdict whatever
    the box height.  A member with a = b = 1 is Z^2 and answers True at
    once, so a full row 0 has a member with b > 1, l >= 2, and rows 0 and
    1 lie below l.  Most non-covers fail in these two rows.

    Every quotient divides its g, which divides wa, so k divides wa and
    wa * l * wa bounds the index wa * wb.  Rows 2 to l - 1 lie in every
    box, since wb >= l, so they are scanned next and k is only computed
    once they are all full.  Only when the bound exceeds
    :data:`MAX_COVER_INDEX` is k computed before any row, and ValueError
    raised if the index wa * wb itself exceeds it; this cap check
    precedes every verdict but the one for a member equal to Z^2.  Keeps
    no state between calls.
    """
    members = [s.gens for s in subgroups if len(s.gens) == 2]
    if not members:
        return False
    wa = l = 1
    row0 = False
    row1 = []
    for (a, _), (c, b) in members:
        if a == 1:
            if b == 1:
                return True
            row0 = True
        else:
            wa = math.lcm(wa, a)
            if b == 1:
                row1.append((a, c))
                continue
        l = math.lcm(l, b)
    k = _period_factor(members, l) if wa * l * wa > MAX_COVER_INDEX else None
    if k is not None and wa * l * k > MAX_COVER_INDEX:
        raise ValueError(
            f"covering test needs an intersection of index {wa * l * k}, "
            f"above the limit {MAX_COVER_INDEX}"
        )
    if not row0 or not row1:
        return False
    full = (1 << wa) - 1
    mask = 0
    for a, c in row1:
        mask |= full // ((1 << a) - 1) << c
    if mask != full:
        return False
    rows = [(b, c, a, full // ((1 << a) - 1)) for (a, _), (c, b) in members]
    if not _rows_full(rows, full, 2, l):
        return False
    if k is None:
        k = _period_factor(members, l)
    return _rows_full(rows, full, l, l * k)


def _core(members) -> Subgroup:
    """The intersection D of the rank-2 bases ``members``, as
    (wa, 0), (wc, wb) with wa and wb as in :func:`is_cover`; wc is the
    lowest bit of the AND of the members' row masks at height wb.
    Raises ValueError when the index wa * wb exceeds
    :data:`MAX_COVER_INDEX`."""
    wa = math.lcm(*(a for (a, _), _ in members))
    l = math.lcm(*(b for _, (_, b) in members))
    wb = l * _period_factor(members, l)
    if wa * wb > MAX_COVER_INDEX:
        raise ValueError(
            f"minimality test needs an intersection of index {wa * wb}, "
            f"above the limit {MAX_COVER_INDEX}"
        )
    full = (1 << wa) - 1
    inside = full
    for (a, _), (c, b) in members:
        inside &= full // ((1 << a) - 1) << (wb // b * c % a)
    return Subgroup(((wa, 0), ((inside & -inside).bit_length() - 1, wb)))


def is_minimal_cover(subgroups) -> bool:
    """True iff the subgroups cover Z^2 and none can be dropped or
    replaced by a proper subgroup of it with the union still Z^2.
    Rank-0 slots are ignored.

    This is irredundancy (B. H. Neumann, Publ. Math. Debrecen 3, 1954):
    a cover is minimal iff each slot H is generated by U_H, the points
    that H alone covers.  Any proper subgroup that can replace H contains
    U_H, and U_H generates one that can.  By Neumann's lemma a slot of
    infinite index can be dropped, so a rank-1 slot answers False.

    U_H is a union of cosets of the core D, the intersection of the
    slots, so D and the points of U_H in D's period box [0, wa) x [0, wb)
    generate it; see :func:`_core`.  The box's rows are is_cover's row
    masks: a row that is not full means no cover, and a bit is in U_H iff
    it is in H's mask alone.  Row by row, the points of U_H are adjoined
    to D until the result equals H, so no row is kept.  A slot equal to
    D answers False, as it lies in every other slot; any other slot is
    not D, so an empty U_H leaves the result short of it.  A slot equal
    to Z^2 answers without the box.
    """
    members = [s.gens for s in subgroups if s.gens]
    if not members or any(len(gens) == 1 for gens in members):
        return False
    if FULL.gens in members:
        return len(members) == 1
    core = _core(members)
    (wa, _), (_, wb) = core.gens
    full = (1 << wa) - 1
    rows = [(b, c, a, full // ((1 << a) - 1)) for (a, _), (c, b) in members]
    if core.gens in members:
        return False
    built = [core] * len(members)
    for j in range(wb):
        seen = multi = 0
        masks = [comb << (j // b * c % a) if j % b == 0 else 0 for b, c, a, comb in rows]
        for mask in masks:
            multi |= seen & mask
            seen |= mask
        if seen != full:
            return False
        for i, (gens, mask) in enumerate(zip(members, masks)):
            bits = mask & ~multi
            while bits and built[i].gens != gens:
                x = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                built[i] = adjoin(built[i], (x, j))
    return all(s.gens == gens for s, gens in zip(built, members))


def lattice_of(gamma) -> Subgroup:
    """The subgroup of integer points that ``gamma`` maps into Z^2.

    ``gamma`` is a 2x2 rational matrix with nonzero determinant; a
    singular one raises ZeroDivisionError.  The result only depends on
    gamma up to sign, and equals Z^2 exactly when gamma is integral.

    x and gamma x are integral iff x . z and x . gamma^T w are integers
    for all integer z and w, so the subgroup is the dual of M = Z^2 +
    gamma^T Z^2, spanned by Z^2 and the rows of gamma.  With D the common
    denominator of gamma, D M is integral and contains D Z^2, so the dual
    of M, D times that of D M, is integral.
    """
    if gamma.det() == 0:
        raise ZeroDivisionError("matrix is singular")
    d = math.lcm(*(e.denominator for e in gamma.entries()))
    a, b, c, dd = (e.numerator * (d // e.denominator) for e in gamma.entries())
    return _dual(canonicalize([(d, 0), (0, d), (a, b), (c, dd)]), d)


def density_sum(subgroups) -> Fraction:
    """Sum of the reciprocal indices, exactly."""
    total = Fraction(0)
    for s in subgroups:
        if s.rank != 2:
            raise ValueError("density is zero for rank-deficient subgroups")
        total += Fraction(1, index(s))
    return total

"""The seeded query batch of the ``catalog`` workload and the oracles
that check it without the code under test.

A subgroup is drawn as a raw integer basis: a Hermite basis of the
chosen index times a random unimodular matrix, so the library has to
canonicalize it and the oracle never sees the library's canonical form.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from operator import or_

#: Indices of the random subgroups.  The union of subgroups of index at
#: most 6 repeats with period lcm(2..6) = 60, which bounds the oracle's box.
MAX_INDEX = 6
#: Denominators of the random matrices; every lcm of them divides 60, so
#: the residue loop of ``lattice_of`` stays at most 60 x 60.
DENOMINATORS = (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60)
#: The p + 1 lines through the origin mod p cover Z^2, so every batch
#: has genuine covers.  A unimodular matrix only permutes these lines,
#: so the random extras are what make each such tuple new.
LINE_COVER_PRIMES = (2, 3)
#: Batch sizes: the is_cover queries take about as long as the search's
#: own is_cover calls (~0.6 s), while repeating almost no argument.
COVER_QUERIES = 20_000
LATTICE_MATRICES = 200


def _unimodular(rng):
    """A random matrix of determinant +-1, as columns ((p, q), (r, s))."""
    p, q, r, s = 1, 0, 0, 1
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            p, r = p + k * q, r + k * s
        else:
            q, s = q + k * p, s + k * r
    if rng.random() < 0.5:
        p, q = -p, -q
    return (p, q), (r, s)


def _apply(u, v):
    (p, q), (r, s) = u
    x, y = v
    return (p * x + r * y, q * x + s * y)


def random_basis(rng, idx: int):
    """Raw generators of a random subgroup of index ``idx``."""
    a = rng.choice([d for d in range(1, idx + 1) if idx % d == 0])
    b = idx // a
    c = rng.randrange(a)
    u = _unimodular(rng)
    return (_apply(u, (a, 0)), _apply(u, (c, b)))


def line_cover(rng, p: int):
    """Raw generators of the p + 1 index-p lines mod p."""
    u = _unimodular(rng)
    lines = [((p, 0), (0, 1))] + [((1, k), (0, p)) for k in range(p)]
    return [tuple(_apply(u, g) for g in basis) for basis in lines]


def cover_batch(rng, n: int):
    """Yield ``n`` raw subgroup tuples.  About one in sixteen is a line
    cover plus at least two random subgroups, so covers are not all alike."""
    for _ in range(n):
        if rng.random() < 1 / 16:
            p = rng.choice(LINE_COVER_PRIMES)
            members = line_cover(rng, p)
            members += [random_basis(rng, rng.randint(2, MAX_INDEX))
                        for _ in range(rng.randint(2, 7 - p))]
        else:
            members = [random_basis(rng, rng.randint(2, MAX_INDEX))
                       for _ in range(rng.randint(4, 6))]
        rng.shuffle(members)
        yield members


def catalog_inputs(seed: int):
    """The seeded batch: (raw subgroup tuples, matrix entry 4-tuples)."""
    rng = random.Random(seed)
    batch = list(cover_batch(rng, COVER_QUERIES))
    return batch, matrix_batch(rng, LATTICE_MATRICES)


def _member(basis, x: int, y: int) -> bool:
    """(x, y) lies in the lattice with columns (p, q), (r, s) iff the
    adjugate maps it into det * Z^2 (Cramer's rule)."""
    (p, q), (r, s) = basis
    det = p * s - r * q
    return (s * x - r * y) % det == 0 and (p * y - q * x) % det == 0


def covers(bases) -> bool:
    """Period-box oracle: a union of full-rank lattices covers Z^2 iff it
    covers [0, L)^2 for L the lcm of their determinants, because each
    lattice contains det * Z^2.  Each row x of the box is a bit mask over
    y; a lattice's row depends only on x mod its determinant."""
    dets = [abs(p * s - r * q) for (p, q), (r, s) in bases]
    period = math.lcm(*dets)
    members = []
    for basis, det in zip(bases, dets):
        progression = [sum(1 << y for y in range(y0, period, det))
                       for y0 in range(det)]
        members.append((det, [
            sum(progression[y] for y in range(det) if _member(basis, x, y))
            for x in range(det)
        ]))
    full = (1 << period) - 1
    return all(
        reduce(or_, (rows[x % det] for det, rows in members)) == full
        for x in range(period)
    )


def matrix_batch(rng, n: int):
    """``n`` nonsingular 2x2 rational matrices as entry 4-tuples."""
    out = []
    while len(out) < n:
        entries = tuple(
            Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
            for _ in range(4)
        )
        a, b, c, d = entries
        if a * d - b * c:
            out.append(entries)
    return out


def lattice_law_holds(entries, lattice_gens, lattice_index) -> bool:
    """``lattice_of(g)`` is mapped by g into Z^2, so index * |det g| is
    the index of its image in Z^2: an integer >= 1."""
    a, b, c, d = entries
    image_ok = all(
        (a * x + b * y).denominator == 1 and (c * x + d * y).denominator == 1
        for x, y in lattice_gens
    )
    scaled = Fraction(lattice_index) * abs(a * d - b * c)
    return image_ok and scaled.denominator == 1 and scaled >= 1

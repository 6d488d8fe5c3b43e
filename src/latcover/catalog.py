"""The catalog of minimal coverings: canonical entries, persistence
and the per-length verification checks.
"""

from __future__ import annotations

import re

from .enumeration import (
    SLOTS,
    CoveringTuple,
    Search,
    comparable_pairs,
    enumerate_minimal_coverings,
)
from .lattices import Subgroup, ZERO, canonicalize, density_sum, index, is_cover, xgcd
from .mat2 import MAX_NUMBER_LENGTH
from .value import Value

#: Expected number of minimal coverings per length; they sum to 54.
EXPECTED_COUNTS = {3: 1, 4: 4, 5: 9, 6: 40}

#: Most entries :func:`parse` accepts.  The incomparability check of
#: :func:`verify_catalog` looks at all ordered pairs of entries and of
#: their distinct subgroups, so its cost grows with the square of the
#: count; the real catalog has 54.
MAX_CATALOG_ENTRIES = 1000

#: Longest catalog text :func:`parse` accepts, in characters, so that
#: ``verify-catalog --in`` reads a bounded amount of any file.  The real
#: catalog has 3,387 and its longest line 68; this allows 1000 characters
#: for each of :data:`MAX_CATALOG_ENTRIES` lines.
MAX_CATALOG_CHARS = 10**6

#: Most comparable pairs the incomparability check lists in its detail.
_SHOWN_PAIRS = 10


def column_form(s: Subgroup) -> tuple[int, int, int, int]:
    """The column-style canonical basis (a, c), (0, b) of a rank-2
    subgroup, returned as (a, c, b) packed with the zero: (a, 0, c, b).

    This is the basis convention of the display format: the text
    ``a,0;c,b`` denotes the matrix with rows (a, 0) and (c, b), whose
    columns (a, c) and (0, b) generate the subgroup.
    """
    if s.rank != 2:
        raise ValueError("column form requires rank 2")
    (a, _), (c, b) = s.gens
    # Smallest y with (g, y) in the subgroup: k*c = g (mod a) gives
    # k*(c, b) = (g, b*k) minus a multiple of (a, 0).
    g, k, _ = xgcd(c, a)
    b2 = b * (a // g)
    return (g, 0, b * k % b2, b2)


def subgroup_text(s: Subgroup) -> str:
    """Display form: ``a,0;c,b`` for rank 2, ``u,v`` for rank 1, ``0``."""
    if s.rank == 2:
        a, _, c, b = column_form(s)
        return f"{a},0;{c},{b}"
    if s.rank == 1:
        (u, v), = s.gens
        return f"{u},{v}"
    return "0"


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_integer(text: str) -> int:
    """Parse an ASCII integer ``[+-]?[0-9]+``, surrounding blanks allowed.

    Raises ValueError for anything else, such as ``_`` separators or
    non-ASCII digits, which ``int`` would accept, and for text longer
    than :data:`~latcover.mat2.MAX_NUMBER_LENGTH`.
    """
    text = text.strip()
    if len(text) > MAX_NUMBER_LENGTH or not _INTEGER.fullmatch(text):
        raise ValueError(
            f"expected an ASCII integer of at most {MAX_NUMBER_LENGTH} characters, "
            f"got {text[:20]!r}"
        )
    return int(text)


def parse_subgroup(text: str) -> Subgroup:
    """Inverse of :func:`subgroup_text`."""
    text = text.strip()
    if text == "0":
        return ZERO
    rows = text.split(";")
    try:
        if len(rows) == 1:
            u, v = (_parse_integer(p) for p in rows[0].split(","))
            return canonicalize([(u, v)])
        if len(rows) == 2:
            a, z = (_parse_integer(p) for p in rows[0].split(","))
            c, b = (_parse_integer(p) for p in rows[1].split(","))
            if z != 0:
                raise ValueError
            return canonicalize([(a, c), (0, b)])
    except ValueError:
        pass
    raise ValueError(f"malformed subgroup text {text!r}")


class CatalogEntry(Value):
    """An unordered minimal covering.  Its subgroups are stored sorted, so
    equal coverings are equal tuples whatever their slot order."""

    __slots__ = ("lattices",)

    @property
    def length(self) -> int:
        return len(self.lattices)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(index(s) for s in self.lattices)

    def text(self) -> str:
        parts = " | ".join(subgroup_text(s) for s in self.lattices)
        return f"len={self.length} | {parts}"


def _entry_sort_key(s: Subgroup):
    return (index(s), column_form(s))


def canonical_entry(t: CoveringTuple) -> CatalogEntry:
    """Drop rank-0 slots and sort the lattices into the canonical order.

    More than ``SLOTS`` lattices are rejected: the catalog lists
    coverings by at most that many subgroups, and the matching search of
    the incomparability check in :func:`verify_catalog` backtracks over
    an entry's slots, so its cost grows fast with the entry length.
    """
    lattices = [s for s in t if s.rank != 0]
    if len(lattices) > SLOTS:
        raise ValueError(f"{len(lattices)} lattices, more than {SLOTS}")
    if not is_cover(t):
        raise ValueError("tuple does not cover Z^2")
    if any(s.rank != 2 for s in lattices):
        raise ValueError("nonzero slots must have rank 2")
    lattices.sort(key=_entry_sort_key)
    return CatalogEntry(tuple(lattices))


def entry_from_texts(texts) -> CatalogEntry:
    """Build an entry from display-form lattices, e.g. ``"2,0;0,1"``."""
    return canonical_entry(tuple(parse_subgroup(t) for t in texts))


class Catalog(Value):
    """The minimal coverings, as a list of :class:`CatalogEntry`."""

    __slots__ = ("entries",)

    def by_length(self, k: int) -> list[CatalogEntry]:
        return [e for e in self.entries if e.length == k]


def generate_catalog(search: Search | None = None) -> Catalog:
    entries = [canonical_entry(t) for t in enumerate_minimal_coverings(search)]
    entries.sort(key=lambda e: (e.length, e.indices, e.text()))
    return Catalog(entries)


def serialize(catalog: Catalog) -> str:
    return "".join(e.text() + "\n" for e in catalog.entries)


def parse(text: str) -> Catalog:
    """Parse the line format written by :func:`serialize`.

    Raises ValueError naming the offending line number on bad input,
    including the line of an entry past :data:`MAX_CATALOG_ENTRIES`, and
    on text longer than :data:`MAX_CATALOG_CHARS`.
    """
    if len(text) > MAX_CATALOG_CHARS:
        raise ValueError(f"catalog text longer than {MAX_CATALOG_CHARS} characters")
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if len(entries) == MAX_CATALOG_ENTRIES:
            raise ValueError(
                f"line {lineno}: more than {MAX_CATALOG_ENTRIES} catalog entries"
            )
        try:
            head, *parts = [p.strip() for p in line.split("|")]
            if not head.startswith("len=") or not parts:
                raise ValueError
            length = _parse_integer(head[4:])
            entry = entry_from_texts(parts)
            if entry.length != length:
                raise ValueError
        except ValueError as exc:
            reason = f": {exc}" if str(exc) else ""
            raise ValueError(
                f"line {lineno}: malformed catalog line {line!r}{reason}"
            ) from exc
        entries.append(entry)
    return Catalog(entries)


# The explicitly known entries, in display form.

LENGTH3_ENTRY = ("2,0;0,1", "1,0;0,2", "1,0;1,2")

LENGTH4_ENTRIES = (
    ("1,0;0,2", "4,0;0,1", "1,0;1,2", "2,0;1,2"),
    ("1,0;0,4", "2,0;0,1", "1,0;1,2", "1,0;2,4"),
    ("1,0;0,2", "2,0;0,1", "1,0;1,4", "1,0;3,4"),
    ("1,0;0,3", "3,0;0,1", "1,0;1,3", "1,0;2,3"),
)

COVER_4_6 = ("1,0;0,4", "4,0;0,1", "1,0;1,4", "1,0;3,4", "1,0;2,4", "2,0;1,2")
COVER_5_6 = ("1,0;0,5", "5,0;0,1", "1,0;1,5", "1,0;4,5", "1,0;2,5", "1,0;3,5")


class CheckResult(Value):
    """One named check: whether it passed, and a detail that may be empty."""

    __slots__ = ("name", "ok", "detail")


def verify_catalog(catalog: Catalog) -> list[CheckResult]:
    """Run every per-length structural check against the catalog.

    The incomparability check is
    :func:`~latcover.enumeration.comparable_pairs` over the entries'
    lattices, unpadded: it decides containment once, and runs the exact
    :func:`~latcover.enumeration.precedes` test on 150 of the 2,862
    ordered pairs of the real catalog.
    """
    results: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, ok, detail))

    counts = {k: len(catalog.by_length(k)) for k in EXPECTED_COUNTS}
    check(
        "counts-per-length",
        counts == EXPECTED_COUNTS and len(catalog.entries) == sum(EXPECTED_COUNTS.values()),
        f"got {counts}, total {len(catalog.entries)}",
    )

    check(
        "length3-entry",
        catalog.by_length(3) == [entry_from_texts(LENGTH3_ENTRY)],
    )
    expected4 = sorted(
        (entry_from_texts(ts) for ts in LENGTH4_ENTRIES),
        key=lambda e: (e.indices, e.text()),
    )
    got4 = sorted(catalog.by_length(4), key=lambda e: (e.indices, e.text()))
    check("length4-entries", got4 == expected4)

    five = catalog.by_length(5)
    check(
        "length5-no-all-indices-divisible-by-4",
        not [e for e in five if all(i % 4 == 0 for i in e.indices)],
    )
    check(
        "length5-no-index-divisible-by-5",
        not [e for e in five if any(i % 5 == 0 for i in e.indices)],
    )

    six = catalog.by_length(6)
    big = [e for e in six if all(i >= 4 for i in e.indices)]
    expected_big = {entry_from_texts(COVER_4_6), entry_from_texts(COVER_5_6)}
    check(
        "length6-two-entries-all-indices-ge-4",
        len(big) == 2 and set(big) == expected_big,
        f"got {[e.text() for e in big]}",
    )

    def has_large_prime_index(e: CatalogEntry) -> bool:
        # i divides 6**i iff 2 and 3 are its only prime factors.
        return any(pow(6, i, i) for i in e.indices)

    large = [e for e in six if has_large_prime_index(e)]
    check(
        "length6-unique-large-prime-entry",
        large == [entry_from_texts(COVER_5_6)],
        f"got {[e.text() for e in large]}",
    )

    cover_ok = all(is_cover(e.lattices) for e in catalog.entries)
    check("entries-cover", cover_ok)
    check(
        "entries-density-above-1",
        all(1 < density_sum(e.lattices) <= 6 for e in catalog.entries),
    )

    comparable = comparable_pairs([e.lattices for e in catalog.entries])
    check(
        "entries-incomparable",
        not comparable,
        f"comparable pairs {comparable[:_SHOWN_PAIRS]}"
        + (f", {len(comparable)} in all" if comparable else ""),
    )

    return results

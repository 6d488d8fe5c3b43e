"""Recursive forced-point search for coverings of Z^2 by six subgroups.

The search grows a 6-slot tuple of subgroups one forced point at a time:
whenever the current union misses a point of the forcing list, that point
is adjoined to one of the slots (only up to the first empty slot, which
breaks slot-permutation symmetry) and the search recurses.  Recorded
tuples cover Z^2; pruning and a partial-order filter then reduce them to
the minimal coverings.

The search keeps, for each subgroup, the bit mask of the forcing points it
contains, so the union's mask is an OR of slot masks.  A union that misses
a forcing point is not all of Z^2, so the exact covering test
:func:`~latcover.lattices.is_cover` only runs on tuples whose mask is full.
Those tests go through a bounded memo keyed by the sorted rank-2 bases:
the search tests 2,209 distinct tuples, all of them covers.
:func:`prune` runs no exact test; it decides on the masks alone.  The
memos are keyed by basis tuples, not by :class:`Subgroup` objects, so
that hashing and comparing the keys runs in C.
"""

from __future__ import annotations

from functools import lru_cache

from .lattices import (
    FULL,
    ZERO,
    Subgroup,
    adjoin,
    contains,
    index,
    is_cover,
    is_subgroup_of,
)

SLOTS = 6

#: The forcing list: any union of six subgroups containing all of these
#: points covers Z^2.  Order matters for the raw solution count.
FORCING_POINTS: tuple[tuple[int, int], ...] = (
    (1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3), (3, 1),
    (1, -3), (3, -1), (1, 4), (2, 3), (3, 2), (4, 1), (1, -4), (2, -3),
    (3, -2), (4, -1), (5, 1), (1, 5), (5, -1), (1, -5), (1, 6), (2, 5),
    (3, 4), (4, 3), (5, 2), (6, 1), (1, 7), (3, 5), (5, 3), (7, 1),
    (1, 8), (2, 7), (4, 5), (5, 4), (7, 2), (8, 1), (1, 9), (3, 7),
    (7, 3), (9, 1), (1, 10), (2, 9), (3, 8), (4, 7), (5, 6), (6, 5),
    (7, 4), (8, 3), (9, 2), (10, 1), (1, 11), (5, 7), (7, 5), (11, 1),
    (1, 12), (2, 11), (5, 8), (6, 7), (7, 6), (8, 5), (9, 4), (10, 3),
    (11, 2), (12, 1), (1, 13), (3, 11), (5, 9), (9, 5), (11, 3), (13, 1),
    (1, 14), (2, 13), (4, 11), (7, 8), (8, 7), (11, 4), (13, 2), (14, 1),
    (1, 15), (3, 13), (5, 11), (7, 9), (9, 7), (11, 5), (13, 3), (15, 1),
    (1, 16), (8, 9), (9, 8), (16, 1), (2, 15), (1, 30), (1, 17), (30, 1),
    (17, 1),
)

CoveringTuple = tuple[Subgroup, ...]

EMPTY_TUPLE: CoveringTuple = (ZERO,) * SLOTS


class ForcingListExhausted(RuntimeError):
    """The search ran past the end of the forcing list.

    For six slots this cannot happen unless the forcing list or the
    recursion has been tampered with.
    """


#: The mask of a union that contains every forcing point.
_FULL_MASK = (1 << len(FORCING_POINTS)) - 1

#: Size of each of the three memos below.  The search reaches 185
#: distinct subgroups, takes 1,348 distinct (subgroup, point) steps and
#: tests 2,209 distinct tuples, so all fit with room to spare, and other
#: callers cannot grow them further.
_MEMO_SIZE = 4096


@lru_cache(maxsize=_MEMO_SIZE)
def _mask(gens: tuple) -> int:
    """Bit i is set iff the subgroup with basis ``gens`` contains
    ``FORCING_POINTS[i]``."""
    s = Subgroup(gens)
    bits = 0
    for i, p in enumerate(FORCING_POINTS):
        if contains(s, p):
            bits |= 1 << i
    return bits


@lru_cache(maxsize=_MEMO_SIZE)
def _step(gens: tuple, point_index: int) -> Subgroup | None:
    """The subgroup with basis ``gens`` enlarged by the forcing point
    ``point_index``, or None if the enlargement is all of Z^2."""
    enlarged = adjoin(Subgroup(gens), FORCING_POINTS[point_index])
    return None if enlarged.gens == FULL.gens else enlarged


@lru_cache(maxsize=_MEMO_SIZE)
def _cover_memo(key: tuple) -> bool:
    """:func:`is_cover` of the subgroups with the rank-2 bases ``key``.

    Calls ``is_cover`` through the module global, so a wrapper installed
    there sees every miss.
    """
    return is_cover([Subgroup(gens) for gens in key])


def _covers(slots) -> bool:
    """Memoized :func:`is_cover`, keyed by the sorted rank-2 bases."""
    return _cover_memo(tuple(sorted(s.gens for s in slots if len(s.gens) == 2)))


def _children(slots: CoveringTuple, point_index: int):
    """One search step from ``slots``.

    Finds the first forcing point from ``point_index`` on that the union
    misses, as the lowest clear bit of the OR of the slot masks, then
    adjoins it to each slot in turn, up to the first rank-0 slot, leaving
    out enlargements that are all of Z^2.  Yields
    ``(child, covers, next_index)`` in slot order.  ``covers`` is the
    exact :func:`is_cover` verdict, which is only computed when the
    child's union contains every forcing point: otherwise it is False.
    """
    covered = 0
    for s in slots:
        covered |= _mask(s.gens)
    missed = (_FULL_MASK & ~covered) >> point_index
    if not missed:
        raise ForcingListExhausted(
            f"the union contains every forcing point from position {point_index} on"
        )
    point_index += (missed & -missed).bit_length() - 1

    last_slot = 0
    while slots[last_slot].gens and last_slot < SLOTS - 1:
        last_slot += 1

    work = list(slots)
    for i in range(last_slot + 1):
        enlarged = _step(slots[i].gens, point_index)
        if enlarged is not None:
            work[i] = enlarged
            child = tuple(work)
            full = (covered | _mask(enlarged.gens)) == _FULL_MASK
            yield child, full and _covers(child), point_index + 1
            work[i] = slots[i]


def find_lattices(slots: CoveringTuple, point_index: int) -> list[CoveringTuple]:
    """Every covering tuple found below the node ``slots``.

    The traversal order is fixed: depth first, children in the order
    :func:`_children` yields them.
    """
    solutions: list[CoveringTuple] = []
    for child, covers, next_index in _children(slots, point_index):
        if covers:
            solutions.append(child)
        else:
            solutions.extend(find_lattices(child, next_index))
    return solutions


def prune(t: CoveringTuple) -> CoveringTuple:
    """The normal form of a covering tuple with its redundant slots dropped.

    Each slot in turn, in slot order, is replaced by the zero subgroup if
    the other slots' forcing-point masks together are full.  By the
    forcing property (at most ``SLOTS`` subgroups whose union contains
    every forcing point cover Z^2) the rest then still covers, and a
    missed forcing point shows that it does not, so no exact test runs.
    The surviving slots come back sorted by (index, basis), followed by
    the zero slots, so tuples that differ only in slot order prune to
    equal tuples.  Raises ValueError for more than ``SLOTS`` slots, where
    the forcing property says nothing.

    A wrong drop is not silent.  It yields a candidate that does not
    cover, and every tuple below it in :func:`precedes` fails to cover
    too.  That order is antisymmetric on pruned forms, so the minimality
    filter of :func:`enumerate_minimal_coverings` keeps some non-covering
    candidate, and the exact test of
    :func:`~latcover.catalog.canonical_entry` makes building the catalog
    raise ValueError.
    """
    if len(t) > SLOTS:
        raise ValueError(f"{len(t)} slots, more than {SLOTS}")
    slots = list(t)
    masks = [_mask(s.gens) for s in slots]
    for i in range(len(slots)):
        rest = 0
        for j, m in enumerate(masks):
            if j != i:
                rest |= m
        if rest == _FULL_MASK:
            slots[i] = ZERO
            masks[i] = 0
    kept = sorted((s for s in slots if s.rank != 0), key=lambda s: (index(s), s.gens))
    return tuple(kept) + (ZERO,) * (len(t) - len(kept))


def precedes(a: CoveringTuple, b: CoveringTuple) -> bool:
    """The permutation partial order: a <= b iff some permutation sigma
    has every generator of a[i] inside b[sigma(i)].

    The permutation only moves the slots up to and including the first
    rank-0 slot of ``a``; later slots (all rank 0 in a pruned tuple) are
    matched identically.  The candidate slots of ``b`` for each slot of
    ``a`` are listed one slot at a time, and the answer is False as soon
    as one slot of ``a`` has none; a matching search runs over the lists.
    """
    k = len(a) - 1
    for i, s in enumerate(a):
        if not s.gens:
            k = i
            break
    if not all(is_subgroup_of(a[i], b[i]) for i in range(k + 1, len(a))):
        return False
    rows = []
    for i in range(k + 1):
        row = [j for j in range(k + 1) if is_subgroup_of(a[i], b[j])]
        if not row:
            return False
        rows.append(row)

    used = [False] * (k + 1)

    def assign(i: int) -> bool:
        if i > k:
            return True
        for j in rows[i]:
            if not used[j]:
                used[j] = True
                if assign(i + 1):
                    return True
                used[j] = False
        return False

    return assign(0)


def _canonical_sort_key(t: CoveringTuple):
    return tuple(sorted((index(s) if s.rank == 2 else 0, s.gens) for s in t))


def _subtree(task: tuple[CoveringTuple, int]) -> list[CoveringTuple]:
    return find_lattices(*task)


def _expand_frontier(min_tasks: int):
    """Breadth-first expansion of the search root into independent tasks.

    Returns (solutions found so far, open tasks).  Used to fan the search
    out over worker processes.
    """
    solutions: list[CoveringTuple] = []
    tasks: list[tuple[CoveringTuple, int]] = [(EMPTY_TUPLE, 0)]
    while tasks and len(tasks) < min_tasks:
        for child, covers, next_index in _children(*tasks.pop(0)):
            if covers:
                solutions.append(child)
            else:
                tasks.append((child, next_index))
    return solutions, tasks


def raw_solutions(workers: int = 1) -> list[CoveringTuple]:
    """All covering tuples produced by the search from the empty tuple.

    With ``workers > 1`` independent subtrees run in separate processes;
    the combined list is identical to the sequential one up to order.
    """
    if workers <= 1:
        return find_lattices(EMPTY_TUPLE, 0)
    from concurrent.futures import ProcessPoolExecutor

    head, tasks = _expand_frontier(8 * workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for chunk in pool.map(_subtree, tasks):
            head.extend(chunk)
    return head


def enumerate_minimal_coverings() -> list[CoveringTuple]:
    """The minimal coverings of Z^2 by up to six subgroups.

    Prunes every raw solution to its normal form, so that raw solutions
    differing only in slot order meet in one set element; sorts the
    distinct candidates, then keeps only those not preceded by another
    candidate.  The outcome does not depend on the traversal order.
    """
    candidates = sorted(
        {prune(t) for t in raw_solutions()}, key=_canonical_sort_key
    )
    return [
        c for c in candidates
        if not any(o is not c and precedes(o, c) for o in candidates)
    ]

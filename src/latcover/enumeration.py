"""Recursive forced-point search for coverings of Z^2 by six subgroups.

The search grows a 6-slot tuple of subgroups one forced point at a time:
whenever the current union misses a point of the forcing list, that point
is adjoined to one of the slots (only up to the first empty slot, which
breaks slot-permutation symmetry) and the search recurses.  Recorded
tuples are then pruned to sets of slots, and a minimality rule applied
to each pruned form on its own reduces them to the minimal coverings.

Each search works on its own :class:`Search` tables, in which the 185
subgroups it reaches are interned as small ints, so slot tuples and steps
are ints and int tuples.  Every id carries the bit mask of the forcing
points its subgroup contains.  Each node of the search is handed its
union's mask, and gives each child the mask ORed with the enlarged
slot's, so the next forcing point to adjoin is the mask's lowest clear
bit.  The search takes a full mask for a cover, as the forcing property
allows, and runs no exact test.  :func:`raw_solutions` certifies its
output instead: it prunes each distinct raw tuple once, on the masks,
and runs the exact :func:`~latcover.lattices.is_cover` on each of the
101 distinct pruned forms.  A raw tuple's slots include its pruned
form's, so this covers every raw tuple.  A pruned form is the set of
the ids it keeps, with no slot order and no zero slots; only
:func:`enumerate_minimal_coverings` orders slots, once, on the 101
forms.  The tables live as long as the caller keeps the :class:`Search`.

The minimality filter and ``verify-catalog`` share one rule,
:func:`~latcover.lattices.is_minimal_cover`: a covering is minimal iff
each slot is generated by the points that it alone covers.  It compares
no two tuples.  The covering order itself, :func:`precedes`, is kept as
the reference that the tests check the rule against.
"""

from __future__ import annotations

from .lattices import (
    FULL,
    ZERO,
    Subgroup,
    adjoin,
    contains,
    index,
    is_cover,
    is_minimal_cover,
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


def _mask(gens: tuple) -> int:
    """Bit i is set iff the subgroup with basis ``gens`` contains
    ``FORCING_POINTS[i]``.  Rank-2 membership is decided inline, as
    :func:`~latcover.lattices.contains` would."""
    if len(gens) != 2:
        s = Subgroup(gens)
        return sum(1 << i for i, p in enumerate(FORCING_POINTS) if contains(s, p))
    # Inlined, not 97 contains calls for each subgroup a search interns.
    (a, _), (c, b) = gens
    bits = 0
    for i, (x, y) in enumerate(FORCING_POINTS):
        if y % b == 0 and (x - y // b * c) % a == 0:
            bits |= 1 << i
    return bits


class Search:
    """The tables of one forcing search, on subgroups interned as ints.

    ``subgroups[i]`` is the subgroup with id i and ``masks[i]`` its
    forcing-point mask; id 0 is the zero subgroup.  ``steps`` maps
    ``i * len(FORCING_POINTS) + p`` to the id of subgroup i enlarged by
    forcing point p, or to -1 when that is all of Z^2.  ``solutions``
    holds the id tuples that a :func:`raw_solutions` call on these tables
    found, and ``pruned`` the set of their certified pruned forms, each
    the frozenset of the nonzero ids it keeps.
    """

    def __init__(self):
        self.subgroups: list[Subgroup] = []
        self.masks: list[int] = []
        self.steps: dict[int, int] = {}
        self.solutions: list[tuple[int, ...]] = []
        self.pruned: set[frozenset[int]] = set()
        self._ids: dict[tuple, int] = {}
        self.intern(ZERO)

    def intern(self, s: Subgroup) -> int:
        """The id of ``s``, new if ``s`` was not seen before."""
        i = self._ids.get(s.gens)
        if i is None:
            i = self._ids[s.gens] = len(self.subgroups)
            self.subgroups.append(s)
            self.masks.append(_mask(s.gens))
        return i

    def ids(self, t: CoveringTuple) -> tuple[int, ...]:
        """The ids of the slots of ``t``, interning new subgroups."""
        return tuple(map(self.intern, t))

    def tuple_of(self, ids) -> CoveringTuple:
        """The subgroups with the given ids, as a tuple."""
        return tuple(map(self.subgroups.__getitem__, ids))

    def enlarge(self, i: int, point_index: int) -> int:
        """Fill in ``steps`` for subgroup ``i`` and a forcing point."""
        enlarged = adjoin(self.subgroups[i], FORCING_POINTS[point_index])
        j = -1 if enlarged.gens == FULL.gens else self.intern(enlarged)
        self.steps[i * len(FORCING_POINTS) + point_index] = j
        return j


def _children(search: Search, slots: tuple[int, ...], covered: int):
    """One search step from the tuple of ids ``slots``, whose union has
    the forcing-point mask ``covered``.

    Finds the first forcing point the union misses, the lowest clear bit
    of ``covered``, then adjoins it to each slot in turn, up to the first
    zero slot, leaving out enlargements that are all of Z^2.  Returns a
    list of ``(child, mask)`` in slot order, ``mask`` being the child's
    union's, ``covered`` OR the enlarged slot's mask.  A full ``mask``
    makes the child a cover by the forcing property, which
    :func:`raw_solutions` certifies on its output.
    """
    if covered == _FULL_MASK:
        raise ForcingListExhausted("the union contains every forcing point")
    point_index = (~covered & (covered + 1)).bit_length() - 1

    masks, steps, row = search.masks, search.steps, len(FORCING_POINTS)
    children = []
    for k, i in enumerate(slots):
        j = steps.get(i * row + point_index)
        if j is None:
            j = search.enlarge(i, point_index)
        if j >= 0:
            children.append((slots[:k] + (j,) + slots[k + 1:], covered | masks[j]))
        if not i:
            break
    return children


def find_lattices(
    search: Search, slots: tuple[int, ...], covered: int
) -> list[tuple[int, ...]]:
    """Every covering tuple of ids found below the node ``slots``, whose
    union has the forcing-point mask ``covered``.

    The traversal order is fixed: depth first, children in the order
    :func:`_children` lists them.  Every forcing point before the first
    one the union misses is covered, since each was covered or adjoined
    on the way down, so the mask alone says where the search stands.
    """
    solutions: list[tuple[int, ...]] = []
    for child, mask in _children(search, slots, covered):
        if mask == _FULL_MASK:
            solutions.append(child)
        else:
            solutions.extend(find_lattices(search, child, mask))
    return solutions


def _prune_ids(ids: tuple[int, ...], masks: list[int]) -> frozenset[int]:
    """The ids a covering tuple of ids of one :class:`Search` keeps once
    its redundant slots are dropped, given the search's ``masks``.

    Each slot in turn, in slot order, is dropped if the other slots'
    masks together are full.  By the forcing property the rest then still
    covers, and a missed forcing point shows that it does not, so no
    exact test runs.  The pruned form is the set of the kept nonzero
    ids, so tuples that differ only in slot order or zero padding prune
    to one set.  A wrong drop yields a set that does not cover, and the
    certification of :func:`raw_solutions` raises ValueError on it.
    """
    # after[k] is the OR of the masks of slots k + 1 on, none dropped yet;
    # before is the OR of the masks of the slots kept so far.
    after = [0] * len(ids)
    for k in range(len(ids) - 1, 0, -1):
        after[k - 1] = after[k] | masks[ids[k]]
    before = 0
    kept = []
    for i, rest in zip(ids, after):
        if before | rest != _FULL_MASK:
            before |= masks[i]
            if i:
                kept.append(i)
    return frozenset(kept)


def precedes(a: CoveringTuple, b: CoveringTuple) -> bool:
    """The slot-permutation order: a <= b iff each nonzero slot of ``a``
    lies inside a distinct slot of ``b``.

    Zero slots of ``a`` are skipped, since the zero subgroup lies inside
    every slot, so tuples of any length compare, padded or not; on
    tuples of one length this is some permutation sigma with every a[i]
    inside b[sigma(i)].  The candidate slots of ``b`` for each nonzero
    slot of ``a`` are listed one slot at a time, and the answer is False
    as soon as one has none; a matching search runs over the lists.
    No package code calls it; the tests check
    :func:`~latcover.lattices.is_minimal_cover` against it.
    """
    rows = []
    for s in a:
        if s.gens:
            row = [j for j, t in enumerate(b) if is_subgroup_of(s, t)]
            if not row:
                return False
            rows.append(row)

    used = [False] * len(b)

    def assign(i: int) -> bool:
        if i == len(rows):
            return True
        for j in rows[i]:
            if not used[j]:
                used[j] = True
                if assign(i + 1):
                    return True
                used[j] = False
        return False

    return assign(0)


def _slot_key(s: Subgroup):
    return (index(s), s.gens)


def _subtree(
    task: tuple[CoveringTuple, int], search: Search | None = None
) -> list[CoveringTuple]:
    """Every covering tuple found below a node, given with its union's
    forcing-point mask, searched on the tables of ``search`` or on new
    ones; their id tuples stay in ``solutions``."""
    slots, covered = task
    if search is None:
        search = Search()
    search.solutions = find_lattices(search, search.ids(slots), covered)
    return list(map(search.tuple_of, search.solutions))


def _expand_frontier(min_tasks: int):
    """Breadth-first expansion of the search root into independent tasks.

    Returns (solutions found so far, open tasks), as subgroup tuples, a
    task with its union's mask; a solution is a tuple whose mask is full.
    Used to fan the search out over worker processes, each of which
    interns the subgroups of its tasks anew; the parent certifies the
    pooled solutions.
    """
    search = Search()
    solutions: list[tuple[int, ...]] = []
    tasks: list[tuple[tuple[int, ...], int]] = [(search.ids(EMPTY_TUPLE), 0)]
    while tasks and len(tasks) < min_tasks:
        for child, mask in _children(search, *tasks.pop(0)):
            if mask == _FULL_MASK:
                solutions.append(child)
            else:
                tasks.append((child, mask))
    return (
        [search.tuple_of(t) for t in solutions],
        [(search.tuple_of(t), mask) for t, mask in tasks],
    )


def raw_solutions(
    workers: int = 1, *, search: Search | None = None
) -> list[CoveringTuple]:
    """All covering tuples produced by the search from the empty tuple,
    certified: raises ValueError if one does not cover Z^2.

    The search takes a tuple whose union contains every forcing point
    for a cover.  The certification prunes each of the 4,295 distinct
    raw tuples once with :func:`_prune_ids` and runs the exact
    :func:`is_cover`, through the module global, on each of the 101
    distinct pruned forms; a raw tuple's slots include those of its
    pruned form, so every raw tuple is certified.  With ``workers > 1``
    independent subtrees run in separate processes, and this process
    interns and certifies the combined list, which is identical to the
    sequential one up to order.  A ``search`` given is searched on in
    this process, so ``workers`` must then be 1; its ``solutions`` are
    the id tuples of the returned list, in order, and ``pruned`` their
    pruned forms, as frozensets of ids.
    """
    if search is None:
        search = Search()
    elif workers > 1:
        raise ValueError("a search's tables live in one process; use workers=1")
    if workers <= 1:
        out = _subtree((EMPTY_TUPLE, 0), search)
    else:
        from concurrent.futures import ProcessPoolExecutor

        out, tasks = _expand_frontier(8 * workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_subtree, tasks):
                out.extend(chunk)
        search.solutions = list(map(search.ids, out))
    search.pruned = {_prune_ids(t, search.masks) for t in set(search.solutions)}
    for t in search.pruned:
        if not is_cover(search.tuple_of(t)):
            raise ValueError(f"{[s.gens for s in search.tuple_of(t)]} does not cover Z^2")
    return out


def enumerate_minimal_coverings(search: Search | None = None) -> list[CoveringTuple]:
    """The minimal coverings of Z^2 by up to six subgroups.

    Runs :func:`raw_solutions` once, on ``search`` or on new tables,
    and takes as candidates the distinct pruned forms it certified, in
    which raw solutions differing only in slot order meet.  Only these
    become subgroup tuples again, without zero slots: each tuple's slots
    are sorted by (index, basis), and the tuples by (length, slot keys).
    It keeps those that :func:`~latcover.lattices.is_minimal_cover`,
    called through the module global, accepts, each on its own.  The
    outcome does not depend on the traversal order.
    """
    search = search or Search()
    raw_solutions(search=search)
    candidates = sorted(
        (tuple(sorted(search.tuple_of(t), key=_slot_key)) for t in search.pruned),
        key=lambda t: (len(t), list(map(_slot_key, t))),
    )
    return [c for c in candidates if is_minimal_cover(c)]

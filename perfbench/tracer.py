"""Spans and call counters recorded from outside the latcover package.

A traced pass replaces library functions with wrappers in every latcover
module that holds them, because modules import functions by name
(``groebner`` takes ``normal_form`` from ``poly``, ``enumeration`` and
``catalog`` take ``is_cover`` from ``lattices``) and ``find_lattices``
recurses through its module global.  Patching only the defining module
would silently miss those calls.

Kinds of wrapper, chosen by how often a function runs:

* span: one span record (name, start, end, parent, run id) per call;
* timed: a call count and total time, charged to the enclosing span;
* counted: a call count only;
* cover: timed, and counts calls whose sorted argument was seen before.

Counts are kept per stage, the outermost open span, so that the search
and the seeded batch report their ``is_cover`` traffic apart.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

from speed import now as _clock


class NullTracer:
    """Tracing off: stages cost one ``nullcontext`` each."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        #: Time of timed calls charged to each open span, by span index.
        self.child_time: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._stage = "-"
        self._seen_cover_keys: defaultdict = defaultdict(set)

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, _clock(), 0.0, parent, self.run_id))
        self._stack.append(idx)
        outer = self._stage
        if parent == -1:
            self._stage = name
        try:
            yield
        finally:
            self._stack.pop()
            self._stage = outer
            n, start, _, p, r = self.spans[idx]
            self.spans[idx] = (n, start, _clock(), p, r)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_time(self, name: str, child: str) -> float:
        """Time in spans ``name`` minus the timed ``child`` calls in them."""
        return sum(
            (end - start) - self.child_time[(idx, child)]
            for idx, (n, start, end, _, _) in enumerate(self.spans)
            if n == name
        )

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _timed_wrapper(self, name, fn):
        counts, times, child_time, stack = (
            self.counts, self.times, self.child_time, self._stack
        )

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                key = (self._stage, name)
                counts[key] += 1
                times[key] += dt
                if stack:
                    child_time[(stack[-1], name)] += dt
        return wrapper

    def _counted_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self._stage, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _cover_key_wrapper(self, name, fn):
        """Timed wrapper for ``is_cover`` that also records whether the
        sorted argument was already seen in this pass and stage."""
        timed = self._timed_wrapper(name, fn)
        counts, seen = self.counts, self._seen_cover_keys

        def wrapper(subgroups):
            key = tuple(sorted(s.gens for s in subgroups if s.rank == 2))
            stage_seen = seen[self._stage]
            if key in stage_seen:
                counts[(self._stage, name + ".repeat")] += 1
            else:
                stage_seen.add(key)
            return timed(subgroups)
        return wrapper

    def install(self, plan) -> None:
        """Wrap each ``(module, function, kind)`` of ``plan`` wherever a
        latcover module holds it, then check that no original is left."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "latcover" or n.startswith("latcover.")]
        make = {
            "span": self._span_wrapper,
            "timed": self._timed_wrapper,
            "counted": self._counted_wrapper,
            "cover": self._cover_key_wrapper,
        }
        originals = []
        for module, fname, kind in plan:
            fn = getattr(sys.modules["latcover." + module], fname)
            wrapped = make[kind](f"{module}.{fname}", fn)
            originals.append(fn)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
        for m in mods:
            for attr, value in vars(m).items():
                if any(value is fn for fn in originals):
                    raise RuntimeError(f"{m.__name__}.{attr} left unwrapped")

    def count(self, stage: str, name: str) -> int:
        return self.counts[(stage, name)]

    def count_all(self, name: str) -> int:
        return sum(c for (_, n), c in self.counts.items() if n == name)

    def time_in(self, stage: str, name: str) -> float:
        return self.times[(stage, name)]

    def time_all(self, name: str) -> float:
        return sum(t for (_, n), t in self.times.items() if n == name)


#: What a traced pass wraps.  Hot inner functions are timed or only
#: counted, to keep the overhead and the span list small.
TRACE_PLAN = (
    ("enumeration", "raw_solutions", "span"),
    ("enumeration", "enumerate_minimal_coverings", "span"),
    ("enumeration", "find_lattices", "counted"),
    ("enumeration", "precedes", "timed"),
    ("lattices", "is_cover", "cover"),
    ("lattices", "canonicalize", "counted"),
    ("catalog", "serialize", "span"),
    ("catalog", "parse", "span"),
    ("catalog", "verify_catalog", "span"),
    ("groebner", "strong_groebner", "span"),
    ("groebner", "contains_constant", "span"),
    ("groebner", "reduces_to_zero", "span"),
    ("groebner", "has_common_zero_mod7", "span"),
    ("poly", "normal_form", "timed"),
    ("poly", "leading_term", "counted"),
    ("modular", "run_all_scans", "span"),
    ("forms", "extraordinary_by_C3", "span"),
    ("forms", "cross_value_check", "span"),
    ("forms", "evaluate", "counted"),
)

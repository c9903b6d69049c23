"""In-memory span tracing for the traced benchmark run.

Spans are taken *from outside the program*: :meth:`Tracer.instrument`
swaps a layer's public function (a module attribute or a class method)
for a wrapper that records a span around each call, and
:meth:`Tracer.restore` puts the originals back.  Nothing in ``src/``
is edited.  A span carries a name, start, end, its parent (the
enclosing span on the same thread) and the thread it ran on; the
spans are written out as one Chrome-trace JSON when the run ends.

A layer's *self time* is its span's duration minus the time its direct
children cover.  The ledger (:meth:`Tracer.ledger`) sums self times per
stage over the main thread's spans inside one root span and reports
which share of the root's wall the stages explain.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time


class Tracer:
    def __init__(self) -> None:
        #: one tuple per finished span:
        #: (span id, name, start ns, end ns, parent id or 0, thread id)
        self.spans: list = []
        #: span id -> attributes returned by an ``attrs_of`` hook
        self.attrs: dict = {}
        #: "owner.attr" names that could not be instrumented
        self.missing: list = []
        self.main_tid = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_Span":
        """A context manager recording a span around a block; entering
        it yields the span id."""
        return _Span(self, name)

    def wrap(self, name: str, fn, attrs_of=None):
        """*fn* with a span named *name* around every call.

        *attrs_of(result)*, when given, returns a dict stored as the
        span's attributes (e.g. a simulated cycle count).
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        attrs = self.attrs
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, get_ident()))
            if attrs_of is not None:
                attrs[sid] = attrs_of(result)
            return result

        return traced

    def instrument(self, owner, attr: str, name: str,
                   attrs_of=None) -> bool:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        *owner* is a module (for functions looked up as module globals,
        patch the module that *calls* them) or a class (for methods).
        A missing attribute is remembered in :attr:`missing` instead of
        raising, so the ledger gate can report the unmeasured stage.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}"
                                f".{attr}")
            return False
        own = isinstance(owner, type) and attr in vars(owner)
        if isinstance(owner, type) and own:
            original = vars(owner)[attr]
        self._patches.append((owner, attr, original,
                              own or not isinstance(owner, type)))
        setattr(owner, attr, self.wrap(name, original, attrs_of))
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> dict:
        """Span id -> duration minus the time its direct children cover."""
        child_ns: dict = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        return {sid: (end - start) - child_ns.get(sid, 0)
                for sid, _, start, end, _, _ in self.spans}

    def by_name(self, *names: str) -> list:
        wanted = set(names)
        return [s for s in self.spans if s[1] in wanted]

    def total_s(self, *names: str) -> float:
        """Summed duration of every span named *names*, on any thread."""
        return sum(end - start for _, _, start, end, _, _
                   in self.by_name(*names)) / 1e9

    def count(self, *names: str) -> int:
        return len(self.by_name(*names))

    def sum_by_ancestor(self, names, ancestor: str) -> dict:
        """Seconds spent in spans named *names*, grouped by their nearest
        enclosing span named *ancestor* (e.g. simulation time per
        sample)."""
        parents = {s[0]: (s[4], s[1]) for s in self.spans}
        wanted = set(names)
        out: dict = {}
        for sid, name, start, end, parent, _ in self.spans:
            if name not in wanted:
                continue
            while parent and parents[parent][1] != ancestor:
                parent = parents[parent][0]
            out[parent] = out.get(parent, 0.0) + (end - start) / 1e9
        return out

    def ledger(self, root_sid: int, stages: dict) -> dict:
        """Self time per stage inside the root span, and the coverage.

        *stages* maps a stage name to the span names it sums.  Only the
        main thread's spans count: work a thread pool does on the main
        thread's behalf is inside the main-thread span that waited for
        it, so counting the pool's spans too would count it twice.
        """
        root = next(s for s in self.spans if s[0] == root_sid)
        r_start, r_end = root[2], root[3]
        selfs = self.self_ns()
        owner = {span: stage for stage, names in stages.items()
                 for span in names}
        totals = {stage: 0 for stage in stages}
        for sid, name, start, end, _, tid in self.spans:
            if (tid == self.main_tid and name in owner
                    and start >= r_start and end <= r_end):
                totals[owner[name]] += selfs[sid]
        wall = r_end - r_start
        covered = sum(totals.values())
        return {"wall_s": wall / 1e9,
                "stages_s": {k: v / 1e9 for k, v in totals.items()},
                "coverage": covered / wall if wall else 0.0}

    def overhead_pct(self, wall_s: float) -> float:
        """Estimated tracing cost as a share of *wall_s*: the number of
        spans times the calibrated cost of one traced call."""
        if wall_s <= 0:
            return 0.0
        return 100.0 * len(self.spans) * span_cost_s() / wall_s

    def write_chrome(self, path: str) -> None:
        """All spans as Chrome-trace complete events (``chrome://tracing``
        or Perfetto open the file)."""
        pid = os.getpid()
        base = min((s[2] for s in self.spans), default=0)
        events = []
        for sid, name, start, end, parent, tid in self.spans:
            args = {"id": sid, "parent": parent}
            args.update(self.attrs.get(sid) or {})
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "ts": (start - base) / 1000.0,
                           "dur": (end - start) / 1000.0, "pid": pid,
                           "tid": tid, "args": args})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


class _Span:
    """One open span (a class, not a generator: cheaper to enter, so
    less of the tracing cost falls outside the span it measures)."""

    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self.sid

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.start, end,
                                  self.parent, threading.get_ident()))


@functools.cache
def span_cost_s() -> float:
    """Seconds one traced call adds over an untraced one (calibrated
    once per process on a no-op function, best of five rounds)."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("calibrate", noop)
    n = 20_000
    best = float("inf")
    for _ in range(5):
        tracer.spans.clear()
        start = time.perf_counter_ns()
        for _ in range(n):
            traced()
        mid = time.perf_counter_ns()
        for _ in range(n):
            noop()
        end = time.perf_counter_ns()
        best = min(best, ((mid - start) - (end - mid)) / n)
    return max(best, 0.0) / 1e9

"""In-memory spans around calls into the library, recorded from outside it.

A span has a name, a start, an end and the index of the span that was open
when it started.  Spans are opened by the benchmark itself (``span``) or by
wrappers installed over library names (``wrap``): a wrapper replaces the
attribute at the name the caller looks up, so a call made deep inside a
constructor is still seen.  Every replaced attribute is put back by
``restore``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

ROOT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.calls: dict[str, int] = {}  # wrapped site -> number of calls
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else ROOT)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- wrapping library names ---------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(original)``; undone by restore."""
        if not hasattr(owner, attr):
            raise AttributeError(
                f"cannot wrap {getattr(owner, '__name__', owner)}.{attr}: "
                "no such attribute")
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``name`` is a string or a function of the call's arguments.
        ``observe(args, result)`` runs after the span has closed.
        """
        site = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.calls[site] = 0
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                tracer.calls[site] += 1
                with tracer.span(name(args) if callable(name) else name):
                    result = original(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            traced.__wrapped__ = original
            return traced

        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def uncalled(self) -> list[str]:
        """Wrapped sites that recorded zero calls."""
        return sorted(site for site, n in self.calls.items() if n == 0)

    # -- analysis -----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its child spans.

        One thread records all spans and they nest, so the children of a
        span are disjoint and their durations simply add up.
        """
        dur = self.durations()
        out = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent != ROOT:
                out[parent] -= dur[idx]
        for idx, (d, s) in enumerate(zip(dur, out)):
            if not (-1e-9 <= s <= d + 1e-12):
                raise RuntimeError(f"span {self.names[idx]!r}: self time {s} "
                                   f"outside [0, duration {d}]")
        return out

    def ancestor(self, idx: int, name: str) -> int:
        """Index of the innermost enclosing span called ``name``, or ROOT."""
        idx = self.parents[idx]
        while idx != ROOT and self.names[idx] != name:
            idx = self.parents[idx]
        return idx

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self.names, self.starts, self.ends,
                                      self.parents)]

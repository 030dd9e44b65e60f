"""In-memory span tracer that wraps a program's public functions from outside.

A span is ``(name, start, end, parent, tags)``; ``parent`` is the index of
the enclosing span or -1. Self time is a span's duration minus the
durations of its direct children.

Wrapped functions are timed at their outermost active call only, so a
recursive function (or one re-entered through another binding) is never
counted twice in its own time; every call is still counted. ``uninstall``
puts every original back, and a target that does not exist is skipped and
noted rather than raised.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.calls = collections.Counter()
        self.notes: list = []
        self._open: list = []  # indices of open spans, innermost last
        self._installed: list = []  # (owner, attr, original)
        self._wrappers: dict = {}  # id(original) -> (wrapper, original); keeping original keeps the id unique

    # -- spans -----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        index = self._begin(name, tags)
        try:
            yield tags
        finally:
            self._end(index)

    def _begin(self, name: str, tags: dict) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, tags])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    def clear(self) -> None:
        self.spans.clear()
        self.calls.clear()

    # -- wrapping --------------------------------------------------------------

    def _wrapper(self, original, name: str):
        key = id(original)
        if key not in self._wrappers:
            active = [0]
            tracer = self

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if active[0]:
                    return original(*args, **kwargs)
                active[0] += 1
                index = tracer._begin(name, {})
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._end(index)
                    active[0] -= 1

            self._wrappers[key] = (wrapper, original)
        return self._wrappers[key][0]

    def wrap(self, owner, attr: str, name: str) -> bool:
        """Replace ``owner.attr`` (a module or class attribute) by a timing
        wrapper named ``name``. Returns False, with a note, if it is missing."""
        original = vars(owner).get(attr)
        if not callable(original):
            self.notes.append("%s.%s: not found, %s not traced" % (owner.__name__, attr, name))
            return False
        setattr(owner, attr, self._wrapper(original, name))
        self._installed.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()

    # -- aggregation -----------------------------------------------------------

    def _self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per span name: calls, spans, total and self seconds."""
        out: dict = {}
        for (name, start, end, _, _), self_s in zip(self.spans, self._self_times()):
            row = out.setdefault(name, {"calls": 0, "spans": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        for name, n in self.calls.items():
            out.setdefault(name, {"calls": 0, "spans": 0, "total_s": 0.0, "self_s": 0.0})["calls"] = n
        for name, row in out.items():
            if name not in self.calls:
                row["calls"] = row["spans"]
        return out

    def self_within(self, root: str, prefixes: tuple) -> float:
        """Self seconds of the spans named with one of ``prefixes`` that are
        ``root`` spans or run inside one."""
        total = 0.0
        for i, self_s in enumerate(self._self_times()):
            if not self.spans[i][0].startswith(prefixes):
                continue
            while i >= 0 and self.spans[i][0] != root:
                i = self.spans[i][3]
            if i >= 0:
                total += self_s
        return total

    def children_of(self, parent_name: str, name: str) -> list:
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        return [
            s for s in self.spans
            if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent_name
        ]

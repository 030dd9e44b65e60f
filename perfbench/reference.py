"""A fixed piece of pure-Python work that gauges how fast the host runs
Python at the moment, so that timings can be scaled to a steady host.

On a shared host the same pass over the same inputs takes from 1x to 2x
its quiet-host time, in phases that last from seconds to minutes; a whole
run can sit inside a slow phase. The benchmark therefore runs
reference chunks after each timed item and scales the item's time by
``CHUNK_S`` over the mean chunk time right before and after it: a time
reads as seconds on a host where one chunk takes ``CHUNK_S``.

The chunk does the kind of work the program does (frozen dataclass terms,
``isinstance`` dispatch, recursion, substitution and structural hashing) but
calls none of its code, so a change to the program leaves the chunk, and
with it the scale, as it was.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# seconds one chunk takes on a quiet host (CPython 3.11, shared 2-vCPU x86-64)
CHUNK_S = 0.0047
# reference time run after each timed item, as a share of the item's time
SHARE = 0.25
_DEPTH = 10
_RESULT = (416, 170, 171)


@dataclass(frozen=True)
class Num:
    v: int


@dataclass(frozen=True)
class Var:
    n: str


@dataclass(frozen=True)
class Add:
    l: object
    r: object


@dataclass(frozen=True)
class Let:
    n: str
    e: object
    b: object


def _build(d: int, i: int):
    if d == 0:
        return Var("x") if i % 3 == 0 else Num(i % 7)
    if d % 3 == 0:
        return Let("x", Num(d), _build(d - 1, i * 2 + 1))
    return Add(_build(d - 1, i * 2), _build(d - 1, i * 2 + 1))


def _subst(e, n: str, v):
    if isinstance(e, Var):
        return v if e.n == n else e
    if isinstance(e, Num):
        return e
    if isinstance(e, Add):
        return Add(_subst(e.l, n, v), _subst(e.r, n, v))
    return Let(e.n, _subst(e.e, n, v), e.b if e.n == n else _subst(e.b, n, v))


def _step(e):
    """One leftmost small step, or None for a value."""
    if isinstance(e, Num):
        return None
    if isinstance(e, Add):
        s = _step(e.l)
        if s is not None:
            return Add(s, e.r)
        s = _step(e.r)
        if s is not None:
            return Add(e.l, s)
        return Num(e.l.v + e.r.v)
    s = _step(e.e)
    if s is not None:
        return Let(e.n, s, e.b)
    return _subst(e.b, e.n, e.e)


def chunk() -> tuple:
    """Evaluate a fixed term to its value, keeping every term on the way in a
    dict. Returns (value, steps, distinct terms)."""
    e = Let("x", Num(1), _build(_DEPTH, 1))
    seen = {}
    n = 0
    while True:
        seen[e] = n
        s = _step(e)
        if s is None:
            return e.v, n, len(seen)
        e, n = s, n + 1


def gauge(busy_s: float) -> tuple:
    """Run chunks for about ``SHARE * busy_s`` seconds, at least one.
    Returns (seconds, chunks)."""
    clock = time.perf_counter
    n = max(1, round(SHARE * busy_s / CHUNK_S))
    # The chunk makes no cycles, so reference counting frees all it builds.
    # With the collector off its time does not depend on how big the
    # program's heap is at the moment, and it leaves the program's collection
    # schedule as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        for _ in range(n):
            if chunk() != _RESULT:
                raise AssertionError("reference chunk computed a wrong result")
        return clock() - t0, n
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, chunk_s: float) -> float:
    """``seconds`` measured while a chunk took ``chunk_s``, as seconds on a
    host where a chunk takes ``CHUNK_S``."""
    return seconds * CHUNK_S / chunk_s

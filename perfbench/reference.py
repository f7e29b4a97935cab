"""A fixed piece of interpreter work that tells how fast the host runs
at this moment.

A shared host can run the same request up to 1.5x slower for seconds to
minutes at a time, and how much of a 20 s run falls in such a stretch
changes from run to run.  ``run.py`` therefore times :func:`work` right
before every request and scales the request's time by
:data:`NOMINAL_SECONDS` / the reference time.  A request that met a slow
host met a slow reference too, so the scaled times read as if the host
always ran at its nominal speed.

:func:`work` does the kinds of things the program does — small objects,
attribute and dict access, float math, sorting, JSON — with nothing from
``repro``, so no change to the program moves it.  Do not change this
file: every scaled figure is relative to it.
"""

from __future__ import annotations

import gc
import json
import math
import time

#: What :func:`work` takes on the nominal host: about its time on a
#: 2-CPU VM while that host runs at full speed.
NOMINAL_SECONDS = 0.0015


class _Item:
    __slots__ = ("name", "rate", "size", "tags")

    def __init__(self, name: str, rate: float, size: int, tags: "dict") -> None:
        self.name = name
        self.rate = rate
        self.size = size
        self.tags = tags


def work() -> float:
    """The reference work; returns a checksum so nothing is skipped."""
    items = [
        _Item(f"item-{i}", (i % 97) / 7.0 + 0.5, i * 37 % 1009, {"k": i % 5, "v": float(i)})
        for i in range(600)
    ]
    groups: "dict" = {}
    for item in items:
        groups.setdefault(item.tags["k"], []).append(item)
    total = 0.0
    for group in groups.values():
        for item in group:
            total += math.log1p(item.rate * item.size) / (1.0 + item.tags["v"])
    ranked = sorted(items, key=lambda item: (item.rate * item.size, item.name))
    rows = [
        {"name": item.name, "score": round(item.rate * item.size, 6), "k": item.tags["k"]}
        for item in ranked[:300]
    ]
    return total + len(json.loads(json.dumps(rows, sort_keys=True)))


def seconds() -> float:
    """How long :func:`work` takes right now.

    The cyclic garbage collector is off meanwhile: a collection would
    cost more the larger the program's heap, and the reference must not
    depend on the program.  The work makes no cycles, so reference
    counting frees all of it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        work()
        return time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()

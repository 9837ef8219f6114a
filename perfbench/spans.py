"""Span recorder that times calls into the package from outside it.

``install`` wraps every public function of the layer modules, and
``Graph.from_edges``, with a recorder, and rebinds each wrapped function
under every name the package holds for it (``engine`` calls the steps it
imported from ``propagation``, for example), so calls between modules are
recorded too.  Spans stay in memory as (name, start, end, parent) rows and
are written out once, at the end.  The package itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("graph", "propagation", "learning", "engine", "metrics", "synth")


class Recorder:
    """In-memory span list; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- derived views -------------------------------------------------------

    def duration(self, i: int) -> float:
        """Seconds."""
        return self.spans[i][2] - self.spans[i][1]

    def _within(self, i: int, root: int) -> bool:
        while i != -1:
            if i == root:
                return True
            i = self.spans[i][3]
        return False

    def find(self, name: str, under: int | None = None) -> list[int]:
        """Indices of spans called ``name``, optionally inside span ``under``."""
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (under is None or self._within(i, under))]

    def total(self, name: str, under: int | None = None) -> float:
        """Summed duration in seconds."""
        return sum(self.duration(i) for i in self.find(name, under))

    def median_ms(self, name: str, under: int | None = None) -> float:
        durs = [self.duration(i) for i in self.find(name, under)]
        return statistics.median(durs) * 1e3 if durs else float("nan")

    def self_time(self, i: int) -> float:
        """Duration minus the part covered by direct child spans."""
        kids = sum(self.duration(j) for j, s in enumerate(self.spans) if s[3] == i)
        return self.duration(i) - kids

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def install(rec: Recorder):
    """Wrap the layer modules' public functions under every name they have."""
    import jwprop
    from jwprop.graph import Graph

    wrapped = {}  # id of the original function -> its wrapper
    for layer in LAYERS:
        mod = sys.modules[f"jwprop.{layer}"]
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                wrapped[id(fn)] = rec.wrap(f"{layer}.{attr}", fn)
    holders = [jwprop] + [m for k, m in sys.modules.items() if k.startswith("jwprop.")]
    for holder in holders:
        for attr, fn in list(vars(holder).items()):
            if inspect.isfunction(fn) and id(fn) in wrapped:
                setattr(holder, attr, wrapped[id(fn)])
    build = Graph.__dict__["from_edges"].__func__
    Graph.from_edges = classmethod(rec.wrap("graph.Graph.from_edges", build))

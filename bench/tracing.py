"""Span recording from the benchmark's own files.

A :class:`Tracer` keeps ``[name, start, end, parent]`` records in one
list; the run is single-threaded, so the open span is one index and
spans nest strictly.  Nothing is written until the run ends
(:func:`write_spans`).  A span's *self time* is its duration minus its
direct children's durations, so self times partition the root exactly.

A span's layer is the part of its name before the first dot
(``replication.read`` -> ``replication``).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "self_times",
           "rescale", "concatenated", "write_spans", "read_spans"]

#: Index of the fields of one span record.
NAME, START, END, PARENT = range(4)


class Tracer:
    """Collects spans and counts for one traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Index of the innermost open span, -1 outside any.
        self.current = -1
        #: Work counted at the same seams the spans are recorded at.
        self.counts: Counter[str] = Counter()
        #: Objects whose public counters are read when the run ends
        #: (simulators, stream engines); held so ids are not reused.
        self.seen: dict[str, dict[int, Any]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        spans = self.spans
        parent = self.current
        self.current = len(spans)
        record = [name, time.perf_counter(), 0.0, parent]
        spans.append(record)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self.current = parent

    def wrap(self, function: Callable, name: str,
             count: str | None = None) -> Callable:
        """``function`` recorded as a span named ``name`` per call."""
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def timed(*args, **kwargs):
            parent = self.current
            self.current = len(spans)
            record = [name, clock(), 0.0, parent]
            spans.append(record)
            if count is not None:
                counts[count] += 1
            try:
                return function(*args, **kwargs)
            finally:
                record[END] = clock()
                self.current = parent

        timed.__wrapped__ = function
        return timed

    def wrap_iterator(self, function: Callable, name: str) -> Callable:
        """A generator function with each ``next`` recorded as a span."""
        span = self.span

        def timed(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while True:
                with span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        timed.__wrapped__ = function
        return timed

    def remember(self, kind: str, thing: Any) -> None:
        self.seen.setdefault(kind, {})[id(thing)] = thing


class NullTracer:
    """The tracer of an untraced run: every hook is a no-op."""

    enabled = False
    _nothing = nullcontext()

    def span(self, name: str):
        return self._nothing


NULL_TRACER = NullTracer()


def self_times(spans: list[list]) -> list[float]:
    """Self seconds per span, in span order."""
    own = [record[END] - record[START] for record in spans]
    for record in spans:
        if record[PARENT] >= 0:
            own[record[PARENT]] -= record[END] - record[START]
    return own


def rescale(spans: list[list], scale: float) -> None:
    """Span times, in place, as scaled seconds from the first span."""
    origin = spans[0][START] if spans else 0.0
    for record in spans:
        record[START] = (record[START] - origin) * scale
        record[END] = (record[END] - origin) * scale


def concatenated(first: list[list], second: list[list]) -> list[list]:
    """Two span trees as one list, parent indexes kept valid."""
    shift = len(first)
    return first + [
        [name, start, end, parent + shift if parent >= 0 else -1]
        for name, start, end, parent in second
    ]


def write_spans(spans: list[list], path: Path, workload: str) -> None:
    """One JSON object per span, in span order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for index, (name, start, end, parent) in enumerate(spans):
            handle.write(json.dumps({
                "id": index, "name": name, "start": start, "end": end,
                "parent": parent if parent >= 0 else None,
                "workload": workload,
            }) + "\n")


def read_spans(path: Path) -> list[list]:
    """The span records of a :func:`write_spans` file."""
    spans = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            data = json.loads(line)
            parent = data["parent"]
            spans.append([data["name"], data["start"], data["end"],
                          -1 if parent is None else parent])
    return spans

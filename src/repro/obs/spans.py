"""Deterministic span tracing for the simulated request hot path.

A :class:`Span` is one timed unit of work — an agent operation, a
replicated write — with labels fixed at start and attributes attached
at finish.  The :class:`Tracer` assigns **sequential** span ids (no
randomness: ids must be a pure function of the seed) and timestamps
from the injected ``now_fn``, the simulated clock in campaigns.

Finished spans accumulate in finish order.  Under the simulator that
order is event-loop order, itself a pure function of ``(seed,
config)`` — so a span export, like a metrics export, is byte-identical
across same-seed runs.

Spans are deliberately coarse: one per *operation* (a write with its
429 retries, a read), not one per wire message — wire-level counts are
counters (:mod:`repro.obs.metrics`), which cost one integer add
instead of an object allocation on the busiest path.

A span is stored at most once (``docs/obs.md``, "Cost model"): the
:class:`Span` object lives only while the span is open, and a keeping
tracer's :meth:`Tracer.finish` keeps the span's snapshot record — one
dict — which :meth:`Tracer.snapshot` hands out as it stands.  Every
span with the same labels shares one ``labels`` dict; a record's
``attrs`` is the ``finish`` keyword dict itself.  A tracer built with
``keep=False`` closes spans and stores nothing: a campaign whose
caller exports no spans runs on one, and its agents and substrates
open no span at all (:attr:`Tracer.keeps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Span", "Tracer"]


@dataclass(slots=True)
class Span:
    """One open unit of work."""

    span_id: int
    name: str
    start: float
    labels: dict[str, str]
    parent_id: int | None = None
    end: float | None = None

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start


class Tracer:
    """Creates spans and keeps their records as they finish.

    ``finished`` holds one snapshot record per finished span, in finish
    order: ``span_id``, ``parent_id``, ``name``, ``labels``, ``start``,
    ``end`` and ``attrs`` (finish-time facts — attempt counts, outcome
    flags, ids — as JSON-safe scalars, so records survive worker
    transport and the digest-validated export unchanged).  The records
    and their ``labels`` / ``attrs`` dicts are **read-only**: a
    snapshot hands out these very dicts, and one ``labels`` dict is
    shared by every span that carries the same label set.

    With ``keep=False`` a span still gets its id and its end time, but
    ``finish`` stores no record, so ``finished`` stays empty.
    """

    def __init__(self,
                 now_fn: Callable[[], float] | None = None,
                 keep: bool = True) -> None:
        self._now = now_fn if now_fn is not None else (lambda: 0.0)
        self._next_id = 1
        self._keep = keep
        self.finished: list[dict] = []
        #: One labels dict per distinct ``(key, value)`` sequence.
        self._label_sets: dict[tuple[tuple[str, str], ...],
                               dict[str, str]] = {}

    @property
    def keeps(self) -> bool:
        """True when :meth:`finish` stores a record (``keep``).

        A caller whose spans only matter as records may skip
        ``start`` / ``finish`` on a tracer that keeps nothing; the
        tracer itself still numbers every span it is asked for.
        """
        return self._keep

    def start(self, name: str, parent: Span | None = None,
              at: float | None = None, **labels: str) -> Span:
        # Keyed after str(): a key of raw values would alias
        # ``host=1`` with ``host=True`` (equal, same hash).
        labels = {key: str(value) for key, value in labels.items()}
        span = Span(
            span_id=self._next_id,
            name=name,
            start=self._now() if at is None else at,
            labels=self._label_sets.setdefault(tuple(labels.items()),
                                               labels),
            parent_id=None if parent is None else parent.span_id,
        )
        self._next_id += 1
        return span

    def finish(self, span: Span, at: float | None = None,
               **attrs: object) -> Span:
        span.end = end = self._now() if at is None else at
        if self._keep:
            self.finished.append({
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "labels": span.labels,
                "start": span.start,
                "end": end,
                "attrs": attrs,
            })
        return span

    def snapshot(self) -> list[dict]:
        """Finished spans' records, in finish order (read-only dicts).

        A new list each call, so a span finished later never appears
        in a snapshot already taken.
        """
        return list(self.finished)

"""Common vocabulary for anomaly checkers.

Each checker implements the :class:`AnomalyChecker` interface: fed a
test's operations one at a time in canonical stream order
(:mod:`repro.core.stream`) it emits :class:`AnomalyObservation`
instances the moment the violating read arrives; ``check(trace)`` is
the same checker run to completion over a finished
:class:`~repro.core.trace.TestTrace`.  One *observation* is one read
operation that exhibits the anomaly (for divergence anomalies, one
agent pair) — the unit the paper's per-test distribution figures
(Figs. 4–7) count.

Anomaly kinds are identified by the string constants below; analysis
code treats them as opaque keys, so adding a new anomaly means adding a
checker plus a constant, nothing else.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.stream import StreamOp, TestMeta, run_to_completion
from repro.core.trace import TestTrace

__all__ = [
    "READ_YOUR_WRITES",
    "MONOTONIC_WRITES",
    "MONOTONIC_READS",
    "WRITES_FOLLOW_READS",
    "CONTENT_DIVERGENCE",
    "ORDER_DIVERGENCE",
    "SESSION_ANOMALIES",
    "DIVERGENCE_ANOMALIES",
    "ALL_ANOMALIES",
    "AnomalyObservation",
    "AnomalyChecker",
    "by_agent",
]

READ_YOUR_WRITES = "read_your_writes"
MONOTONIC_WRITES = "monotonic_writes"
MONOTONIC_READS = "monotonic_reads"
WRITES_FOLLOW_READS = "writes_follow_reads"
CONTENT_DIVERGENCE = "content_divergence"
ORDER_DIVERGENCE = "order_divergence"

#: The four session-guarantee violations (§III.1).
SESSION_ANOMALIES = (
    READ_YOUR_WRITES,
    MONOTONIC_WRITES,
    MONOTONIC_READS,
    WRITES_FOLLOW_READS,
)
#: The two divergence anomalies (§III.2).
DIVERGENCE_ANOMALIES = (CONTENT_DIVERGENCE, ORDER_DIVERGENCE)
#: Everything, in the paper's presentation order.
ALL_ANOMALIES = SESSION_ANOMALIES + DIVERGENCE_ANOMALIES


@dataclass(frozen=True)
class AnomalyObservation:
    """One concrete manifestation of an anomaly in a trace.

    Attributes
    ----------
    anomaly:
        One of the anomaly-kind constants in this module.
    agent:
        The agent whose read exhibited the anomaly.  For divergence
        anomalies this is the lexicographically first agent of the pair.
    time:
        Reference-frame response time of the detecting read (for
        divergence, of the later read of the pair).
    pair:
        For divergence anomalies, the unordered agent pair involved
        (stored sorted); None for session anomalies.
    details:
        Checker-specific evidence — missing message ids, the reordered
        pair, the two observed sequences, etc.  Keys are stable per
        checker and documented in the checker's module.
    """

    anomaly: str
    agent: str
    time: float
    pair: tuple[str, str] | None = None
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.pair is not None and tuple(sorted(self.pair)) != self.pair:
            object.__setattr__(self, "pair", tuple(sorted(self.pair)))


class AnomalyChecker(abc.ABC):
    """Interface every anomaly checker implements.

    Lifecycle per test: ``open_test`` once, ``observe`` per operation
    in canonical stream order, ``close_test`` once; several tests may
    be open at a time.  ``observe`` returns the observations the
    operation triggers *immediately* — the live telemetry feed.
    ``close_test`` returns the test's **complete** observation list in
    the checker's documented order (everything already surfaced live
    plus stragglers whose evidence only completed later) and drops
    every byte of the test's state.
    """

    #: Anomaly-kind constant produced by this checker.
    anomaly: str = ""

    @abc.abstractmethod
    def open_test(self, meta: TestMeta) -> None:
        """Allocate per-test state for ``meta.test_id``."""

    @abc.abstractmethod
    def observe(self, meta: TestMeta,
                sop: StreamOp) -> list[AnomalyObservation]:
        """Ingest one operation; return observations it fired."""

    @abc.abstractmethod
    def close_test(self, meta: TestMeta) -> list[AnomalyObservation]:
        """Return the test's full observation list; free its state."""

    @abc.abstractmethod
    def state_size(self) -> int:
        """Number of retained state atoms, across all open tests."""

    def check(self, trace: TestTrace) -> list[AnomalyObservation]:
        """Return all observations of this anomaly in ``trace``.

        Checkers are pure with respect to the trace: they never mutate
        it, and a given trace always yields the same observations.
        """
        (observations,) = run_to_completion([self], trace)
        return observations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} anomaly={self.anomaly!r}>"


def by_agent(meta: TestMeta,
             emitted: Sequence[AnomalyObservation] | None
             ) -> list[AnomalyObservation]:
    """A test's observations agent by agent, in ``meta.agents`` order.

    ``emitted`` is in stream order — per agent, its session order —
    and the sort is stable, so each agent's stay in that order.  A
    checker that never fired passes None or nothing.
    """
    if not emitted:
        return []
    rank = {agent: a for a, agent in enumerate(meta.agents)}
    return sorted(emitted, key=lambda obs: rank[obs.agent])

"""Checker registry: run every anomaly checker over a trace at once.

:func:`check_all` returns a :class:`TraceReport` — what the stream
engine builds for every record — with observations grouped by anomaly
kind, plus the convenience accessors the figures need (per-agent
counts, per-pair booleans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from repro.core.anomalies.base import (
    ALL_ANOMALIES,
    DIVERGENCE_ANOMALIES,
    AnomalyChecker,
    AnomalyObservation,
)
from repro.core.anomalies.content_divergence import ContentDivergenceChecker
from repro.core.anomalies.monotonic_reads import MonotonicReadsChecker
from repro.core.anomalies.monotonic_writes import MonotonicWritesChecker
from repro.core.anomalies.order_divergence import OrderDivergenceChecker
from repro.core.anomalies.read_your_writes import ReadYourWritesChecker
from repro.core.anomalies.writes_follow_reads import WritesFollowReadsChecker
from repro.core.stream import run_to_completion
from repro.core.trace import TestTrace

__all__ = ["session_checkers", "default_checkers", "check_all",
           "TraceReport"]


def session_checkers() -> list[AnomalyChecker]:
    """Fresh instances of the four §III.1 checkers, in paper order."""
    return [
        ReadYourWritesChecker(),
        MonotonicWritesChecker(),
        MonotonicReadsChecker(),
        WritesFollowReadsChecker(),
    ]


def default_checkers() -> list[AnomalyChecker]:
    """Fresh instances of all six checkers, in the paper's order."""
    return [
        *session_checkers(),
        ContentDivergenceChecker(),
        OrderDivergenceChecker(),
    ]


@dataclass
class TraceReport:
    """All anomaly observations for one test trace, grouped by kind."""

    test_id: str
    service: str
    test_type: str
    agents: tuple[str, ...]
    observations: dict[str, list[AnomalyObservation]] = field(
        default_factory=dict
    )

    def has(self, anomaly: str) -> bool:
        """Did the anomaly occur at all in this test?"""
        return bool(self.observations.get(anomaly))

    def count(self, anomaly: str) -> int:
        """Total observations of ``anomaly`` in this test."""
        return len(self.observations.get(anomaly, []))

    def count_by_agent(self, anomaly: str) -> dict[str, int]:
        """Observations of ``anomaly`` per observing agent."""
        counts = {agent: 0 for agent in self.agents}
        for obs in self.observations.get(anomaly, []):
            counts[obs.agent] = counts.get(obs.agent, 0) + 1
        return counts

    def agents_observing(self, anomaly: str) -> frozenset[str]:
        """The set of agents that saw ``anomaly`` in this test.

        For divergence anomalies both agents of each divergent pair are
        counted as observers.
        """
        observers: set[str] = set()
        for obs in self.observations.get(anomaly, []):
            if obs.pair is not None:
                observers.update(obs.pair)
            else:
                observers.add(obs.agent)
        return frozenset(observers)

    def diverged_pairs(self, anomaly: str) -> frozenset[tuple[str, str]]:
        """Agent pairs that exhibited a divergence anomaly."""
        if anomaly not in DIVERGENCE_ANOMALIES:
            raise ValueError(
                f"{anomaly!r} is not a divergence anomaly"
            )
        return frozenset(
            obs.pair for obs in self.observations.get(anomaly, [])
            if obs.pair is not None
        )

    def summary(self) -> dict[str, int]:
        """Anomaly-kind -> observation count for all known kinds."""
        return {anomaly: self.count(anomaly) for anomaly in ALL_ANOMALIES}

    @classmethod
    def from_observations(
        cls, test_id: str, service: str, test_type: str,
        agents: tuple[str, ...],
        observations: Iterable[AnomalyObservation],
        anomalies: Iterable[str] = ALL_ANOMALIES,
    ) -> "TraceReport":
        """Build a report from a flat observation stream.

        The stream engine and :func:`check_all` pour a test's
        observations in here.  Every kind in ``anomalies`` gets a
        (possibly empty) entry; within one kind, observations keep
        their given order.
        """
        report = cls(test_id=test_id, service=service,
                     test_type=test_type, agents=agents,
                     observations={kind: [] for kind in anomalies})
        for obs in observations:
            report.observations.setdefault(obs.anomaly, []).append(obs)
        return report


def check_all(trace: TestTrace) -> TraceReport:
    """Run every checker over ``trace`` (one pass) and bundle the results."""
    return TraceReport.from_observations(
        trace.test_id, trace.service, trace.test_type, trace.agents,
        chain.from_iterable(run_to_completion(default_checkers(), trace)),
    )

"""The records a campaign produces, without the simulator that makes them.

:class:`TestRecord` (one test instance) and :class:`CampaignResult`
(one campaign) are what the store, the stream engine, the fleet and the
analysis read and write.  They live here, not in
:mod:`repro.methodology.runner`, so those consumers import no agents,
services, web API or replication substrates; the runner re-exports
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.anomalies.base import ALL_ANOMALIES
from repro.core.anomalies.registry import TraceReport
from repro.core.trace import TestTrace
from repro.core.windows import WindowResult
from repro.methodology.config import CampaignConfig

__all__ = ["Pair", "TraceAnalyzer", "TestRecord", "CampaignResult"]

#: Pair key type used throughout the analysis: sorted agent names.
Pair = tuple[str, str]


#: Distills a finished trace into a record; ``analyze_trace`` is the
#: default, a streaming fleet shard substitutes one that also reports
#: each record as its test closes (:func:`repro.fleet.pool.run_shard`).
TraceAnalyzer = Callable[[TestTrace, bool], "TestRecord"]


@dataclass(frozen=True)
class TestRecord:
    """Everything the analysis pipeline needs from one test instance."""

    __test__ = False  # not a pytest class, despite the name

    test_id: str
    test_type: str
    report: TraceReport
    #: Content-divergence windows per agent pair.
    content_windows: dict[Pair, WindowResult]
    #: Order-divergence windows per agent pair.
    order_windows: dict[Pair, WindowResult]
    reads_per_agent: dict[str, int]
    writes_per_agent: dict[str, int]
    #: Test duration in reference-frame seconds.
    duration: float
    #: Full trace, retained only when the campaign asked for it.
    trace: TestTrace | None = None
    #: Relation-layer metric results
    #: (:class:`repro.relations.spec.MetricResult`), present only when
    #: the campaign requested metrics — absent, they never enter
    #: record bytes, so golden signatures of metric-free campaigns
    #: are untouched.
    metrics: tuple = ()


@dataclass
class CampaignResult:
    """All records of one service campaign plus convenience totals."""

    service: str
    config: CampaignConfig
    records: list[TestRecord] = field(default_factory=list)
    #: The campaign world's observability snapshot
    #: (:meth:`repro.obs.ObsContext.snapshot`): metrics + spans from
    #: the request hot path.  ``spans`` is empty unless the campaign
    #: ran with ``run_campaign(..., spans=True)``, as ``run --obs-out``
    #: and every fleet shard do, or with an ``analyzer`` and ``spans``
    #: left unset; the metrics are the same either way.
    #: Telemetry, not a measured result: the fleet signature digests
    #: records only, so this field never perturbs golden signatures or
    #: resume digests.  None for a shard restored from a fleet store:
    #: resume reads records only, and
    #: :meth:`repro.fleet.FleetOutcome.merged_obs` loads the snapshot.
    obs: dict | None = None

    def of_type(self, test_type: str) -> list[TestRecord]:
        return [r for r in self.records if r.test_type == test_type]

    @property
    def total_tests(self) -> int:
        return len(self.records)

    @property
    def total_reads(self) -> int:
        return sum(sum(r.reads_per_agent.values()) for r in self.records)

    @property
    def total_writes(self) -> int:
        return sum(sum(r.writes_per_agent.values())
                   for r in self.records)

    def prevalence(self, anomaly: str,
                   test_type: str | None = None) -> float:
        """Fraction of tests in which ``anomaly`` occurred at all."""
        records = (self.records if test_type is None
                   else self.of_type(test_type))
        if not records:
            return 0.0
        hits = sum(1 for r in records if r.report.has(anomaly))
        return hits / len(records)

    def reads_per_agent(self, test_type: str) -> float:
        """Mean reads per agent per test of one template (Tables I/II)."""
        total = agents = 0
        for record in self.of_type(test_type):
            total += sum(record.reads_per_agent.values())
            agents += len(record.reads_per_agent)
        return total / agents if agents else 0.0

    def summary(self) -> dict[str, float]:
        """Anomaly -> prevalence over the whole campaign."""
        return {anomaly: self.prevalence(anomaly)
                for anomaly in ALL_ANOMALIES}

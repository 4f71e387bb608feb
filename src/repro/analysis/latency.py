"""Operation-latency analysis from recorded traces.

The paper frames every consistency choice as a latency trade ("If they
choose to provide strongly consistent access ... increasing the latency
for request execution").  This module extracts that other half of the
trade-off from campaign traces: per-agent and per-operation-type
latency statistics, as a client measures them (response minus
invocation on the client's own clock — skew cancels).

Used by the quorum-knob analysis (strict quorums cost write latency)
and available for any what-if comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import summarize
from repro.core.trace import ReadOp, WriteOp
from repro.errors import AnalysisError
from repro.methodology.records import CampaignResult

__all__ = ["LatencyBreakdown", "operation_latencies", "latency_table"]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latency samples for one campaign, split by agent and op type."""

    service: str
    #: agent -> list of write latencies (seconds).
    writes: dict[str, list[float]] = field(default_factory=dict)
    #: agent -> list of read latencies (seconds).
    reads: dict[str, list[float]] = field(default_factory=dict)

    def write_stats(self, agent: str) -> dict[str, float]:
        return summarize(self.writes.get(agent, []))

    def read_stats(self, agent: str) -> dict[str, float]:
        return summarize(self.reads.get(agent, []))

    def overall_write_mean(self) -> float:
        samples = [value for values in self.writes.values()
                   for value in values]
        if not samples:
            raise AnalysisError("no write latency samples")
        return sum(samples) / len(samples)

    def overall_read_mean(self) -> float:
        samples = [value for values in self.reads.values()
                   for value in values]
        if not samples:
            raise AnalysisError("no read latency samples")
        return sum(samples) / len(samples)


def operation_latencies(result: CampaignResult) -> LatencyBreakdown:
    """Collect client-observed latencies from a kept-traces campaign."""
    writes: dict[str, list[float]] = {}
    reads: dict[str, list[float]] = {}
    saw_trace = False
    for record in result.records:
        trace = record.trace
        if trace is None:
            continue
        saw_trace = True
        for op in trace.operations:
            latency = op.response_local - op.invoke_local
            if isinstance(op, WriteOp):
                writes.setdefault(op.agent, []).append(latency)
            elif isinstance(op, ReadOp):
                reads.setdefault(op.agent, []).append(latency)
    if not saw_trace:
        raise AnalysisError(
            "latency analysis needs keep_traces=True campaigns"
        )
    return LatencyBreakdown(service=result.service, writes=writes,
                            reads=reads)


def latency_table(breakdown: LatencyBreakdown) -> str:
    """Render per-agent latency stats as an aligned text table."""
    lines = [
        f"{breakdown.service}: client-observed operation latency",
        f"{'agent':>10s}{'op':>8s}{'n':>7s}{'median':>10s}"
        f"{'p90':>10s}{'max':>10s}",
    ]
    for kind, samples_by_agent in (("write", breakdown.writes),
                                   ("read", breakdown.reads)):
        for agent in sorted(samples_by_agent):
            stats = summarize(samples_by_agent[agent])
            lines.append(
                f"{agent:>10s}{kind:>8s}{int(stats['count']):7d}"
                f"{stats['median']:9.3f}s{stats['p90']:9.3f}s"
                f"{stats['max']:9.3f}s"
            )
    return "\n".join(lines)

"""Ground-truth validation of the methodology (white-box mode).

The paper's conclusions propose extending the methodology "also
considering white-box testing".  The simulator makes that possible
here: every logged operation carries its ground-truth times alongside
the local clock readings the black-box methodology actually uses, so
we can re-run any analysis in a *white-box frame* and measure exactly
how much error the black-box pipeline (drifting clocks + Cristian
delta estimation) introduces.

Main uses:

* :func:`ground_truth_trace` — a trace whose timeline is the
  simulator's, for oracle comparisons.
* :func:`window_measurement_errors` — per-pair differences between the
  divergence windows computed from estimated deltas and from ground
  truth.  The paper's §IV bound says each clock correction is within
  RTT/2 of truth; a window involves two corrections, so its error is
  bounded by the two agents' summed uncertainties (plus the read-period
  detection granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.metrics import summarize
from repro.core.trace import TestTrace
from repro.core.windows import (
    content_divergence_windows,
    order_divergence_windows,
)
from repro.errors import AnalysisError
from repro.methodology.records import CampaignResult, Pair

__all__ = [
    "ground_truth_trace",
    "WindowErrorSample",
    "WindowErrorReport",
    "window_measurement_errors",
    "summarize_window_errors",
]


def ground_truth_trace(trace: TestTrace) -> TestTrace:
    """The same trace on the simulator's ground-truth timeline.

    Requires every operation to carry ``true_invoke``/``true_response``
    (simulated traces always do; a real-world trace cannot, which is
    the point of the comparison).
    """
    operations = []
    for op in trace.operations:
        if op.true_invoke is None or op.true_response is None:
            raise AnalysisError(
                f"operation by {op.agent!r} has no ground-truth times"
            )
        operations.append(replace(
            op, invoke_local=op.true_invoke,
            response_local=op.true_response,
        ))
    return TestTrace(
        test_id=trace.test_id,
        service=trace.service,
        test_type=trace.test_type,
        agents=trace.agents,
        operations=operations,
        clock_deltas={},            # ground truth needs no correction
        delta_uncertainty={},
        wfr_triggers=dict(trace.wfr_triggers),
    )


@dataclass(frozen=True)
class WindowErrorSample:
    """Estimated vs ground-truth largest window for one (test, pair)."""

    test_id: str
    pair: Pair
    kind: str
    estimated: float | None
    true: float | None

    @property
    def both_measured(self) -> bool:
        return self.estimated is not None and self.true is not None

    @property
    def error(self) -> float | None:
        """Signed error (estimated - true), when both were measured."""
        if not self.both_measured:
            return None
        return self.estimated - self.true


@dataclass(frozen=True)
class WindowErrorReport:
    """All error samples for one campaign plus the §IV bound check."""

    kind: str
    samples: list[WindowErrorSample] = field(default_factory=list)
    #: Max over tests of summed pairwise delta uncertainties.
    uncertainty_bound: float = 0.0
    #: Detection granularity to add to the bound (read period).
    detection_slack: float = 0.0

    def errors(self) -> list[float]:
        return [abs(sample.error) for sample in self.samples
                if sample.error is not None]

    @property
    def bound(self) -> float:
        return self.uncertainty_bound + self.detection_slack

    def within_bound_fraction(self) -> float:
        errors = self.errors()
        if not errors:
            return 1.0
        hits = sum(1 for error in errors if error <= self.bound)
        return hits / len(errors)


def window_measurement_errors(result: CampaignResult,
                              kind: str = "content",
                              detection_slack: float = 1.0,
                              ) -> WindowErrorReport:
    """Compare black-box windows against ground-truth windows.

    The campaign must have been run with ``keep_traces=True``.
    """
    if kind not in ("content", "order"):
        raise AnalysisError("kind must be 'content' or 'order'")
    compute = (content_divergence_windows if kind == "content"
               else order_divergence_windows)
    samples: list[WindowErrorSample] = []
    worst_uncertainty = 0.0
    for record in result.records:
        trace = record.trace
        if trace is None:
            raise AnalysisError(
                "ground-truth validation needs keep_traces=True"
            )
        oracle = ground_truth_trace(trace)
        uncertainties = trace.delta_uncertainty
        for first, second in trace.agent_pairs():
            pair = tuple(sorted((first, second)))
            estimated = compute(trace, first, second)
            truth = compute(oracle, first, second)
            samples.append(WindowErrorSample(
                test_id=trace.test_id,
                pair=pair,
                kind=kind,
                estimated=estimated.largest,
                true=truth.largest,
            ))
            worst_uncertainty = max(
                worst_uncertainty,
                uncertainties.get(first, 0.0)
                + uncertainties.get(second, 0.0),
            )
    return WindowErrorReport(
        kind=kind,
        samples=samples,
        uncertainty_bound=worst_uncertainty,
        detection_slack=detection_slack,
    )


def summarize_window_errors(report: WindowErrorReport) -> dict[str, float]:
    """Mean/median/p90/max |error| plus the bound, for display."""
    errors = report.errors()
    if not errors:
        return {"count": 0.0, "bound": report.bound}
    stats = summarize(errors)
    stats["bound"] = report.bound
    stats["within_bound"] = report.within_bound_fraction()
    return stats

"""Divergence-window computation (the paper's §III.3 / §IV).

The boolean divergence anomalies say *whether* two agents' views ever
conflicted; the windows say *for how long*.  Following §IV, each agent's
view over time is a step function: at every read response the view
becomes the sequence that read returned ("as determined by the most
recent read"), with operations from different agents placed on a single
timeline using the coordinator-estimated clock deltas.

For an agent pair, a divergence window is a maximal interval during
which the anomaly predicate (content or order divergence) holds between
the two current views.  The paper's worked example is honored: a
divergence detected between reads whose views never coexisted in time
yields a zero-length window (the boolean checker fires, the window
computation finds no interval).

A pair whose views are still divergent at the last read of the test has
not converged; such runs are excluded from window CDFs but their
fraction is reported (the paper does the same for Fig. 10).

:class:`WindowTracker` computes this as interval **open/close events**
over the operation stream (:mod:`repro.core.stream`): each read is a
step of its agent's view function, and canonical stream order delivers
the change points already sorted.  The stepping itself — lazy commit
of each distinct change point, after every read at that instant has
been applied, one predicate evaluation per distinct view pair — is the
pairwise view machine's (:mod:`repro.core.anomalies.pairwise`), shared
with the divergence checkers; the tracker is its window projection.
Each commit that flips the predicate emits a
:class:`~repro.obs.events.WindowEvent` — the live "pair X diverged at
t" / "pair X reconverged at t" feed.  :func:`divergence_windows` is
the tracker run to completion over a finished trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.anomalies.content_divergence import views_content_diverged
from repro.core.anomalies.order_divergence import views_order_diverged
from repro.core.anomalies.pairwise import (
    DivergenceKind,
    PairwiseViews,
    ViewPredicate,
)
from repro.core.stream import StreamOp, TestMeta, run_to_completion
from repro.core.trace import TestTrace
from repro.obs.events import WindowEvent

__all__ = [
    "WindowResult",
    "WindowTracker",
    "window_results",
    "divergence_windows",
    "content_divergence_windows",
    "order_divergence_windows",
]


@dataclass(frozen=True)
class WindowResult:
    """Divergence windows for one agent pair in one test.

    Attributes
    ----------
    pair:
        The (sorted) agent pair analyzed.
    intervals:
        Maximal [start, end) intervals during which the predicate held.
        The final interval of an unconverged pair ends at the last
        observation time.
    converged:
        False if the views were still divergent at the end of the test.
    """

    pair: tuple[str, str]
    intervals: tuple[tuple[float, float], ...]
    converged: bool

    @property
    def diverged(self) -> bool:
        """True if the predicate held during any interval."""
        return bool(self.intervals)

    @property
    def largest(self) -> float | None:
        """Duration of the largest window (None if never diverged).

        The paper's Figure 9 uses "only ... the largest divergence
        window for each pair of agents in each test".
        """
        if not self.intervals:
            return None
        return max(end - start for start, end in self.intervals)

    @property
    def total(self) -> float:
        """Summed duration of all windows."""
        return sum(end - start for start, end in self.intervals)


def window_results(test, k: int) -> dict[tuple[str, str], WindowResult]:
    """Kind ``k``'s windows of a test :class:`PairwiseViews` retired,
    keyed in ``agent_pairs`` order.

    A pair that never opened a window gets its layout's one shared
    calm result.
    """
    layout = test.layout
    if layout.calm is None:
        layout.calm = tuple(WindowResult(pair=pair, intervals=(),
                                         converged=True)
                            for pair in layout.pairs)
    results = dict(zip(layout.pairs, layout.calm))
    for index, intervals in test.intervals.items():
        kind, p = divmod(index, len(layout.pairs))
        if kind == k:
            pair = layout.pairs[p]
            results[pair] = WindowResult(
                pair=pair, intervals=tuple(intervals),
                converged=test.starts[index] is None)
    return results


class WindowTracker:
    """Track one predicate's divergence windows for every agent pair.

    Same per-test lifecycle as an anomaly checker, but the product is
    different: ``observe`` returns live :class:`WindowEvent`
    transitions (stamped ``kind``) and ``close_test`` returns the
    per-pair :class:`WindowResult` dict, keyed in ``agent_pairs``
    order, plus any last transitions.
    """

    def __init__(self, kind: str, predicate: ViewPredicate) -> None:
        self.kind = kind
        self.predicate = predicate
        self._views = PairwiseViews((DivergenceKind(kind, predicate),))

    def open_test(self, meta: TestMeta) -> None:
        self._views.open_test(meta)

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> list[WindowEvent]:
        return list(self._views.observe(meta, sop))

    def close_test(
        self, meta: TestMeta
    ) -> tuple[dict[tuple[str, str], WindowResult],
               list[WindowEvent]]:
        test, events = self._views.close_test(meta)
        return window_results(test, 0), events

    def state_size(self) -> int:
        return self._views.state_size()


def divergence_windows(trace: TestTrace, agent_a: str, agent_b: str,
                       predicate: ViewPredicate) -> WindowResult:
    """Compute the windows where ``predicate`` holds between two views."""
    pair = tuple(sorted((agent_a, agent_b)))
    # Narrowed to the pair, the test has one pair to track and its
    # stream carries only these two agents' operations.
    meta = replace(TestMeta.from_trace(trace), agents=pair)
    ((windows, _),) = run_to_completion(
        [WindowTracker("", predicate)], trace, meta
    )
    return windows[pair]


def content_divergence_windows(trace: TestTrace, agent_a: str,
                               agent_b: str) -> WindowResult:
    """Content-divergence windows for one pair (paper Fig. 9)."""
    return divergence_windows(
        trace, agent_a, agent_b, views_content_diverged
    )


def order_divergence_windows(trace: TestTrace, agent_a: str,
                             agent_b: str) -> WindowResult:
    """Order-divergence windows for one pair (paper Fig. 10)."""
    return divergence_windows(
        trace, agent_a, agent_b, views_order_diverged
    )

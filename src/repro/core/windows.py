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
the change points already sorted.  The predicate is evaluated once per
*distinct* change point, after every read at that instant has been
applied — so the tracker commits lazily: reads at the same corrected
time only overwrite the pending views, and the predicate runs when the
first strictly-later read (or the end of the test) proves the instant
complete.  Each commit that flips the predicate emits a
:class:`~repro.obs.events.WindowEvent` — the live "pair X diverged at
t" / "pair X reconverged at t" feed.  State per open test is one
(views, pending time, window start) record per agent pair.
:func:`divergence_windows` is the tracker run to completion over a
finished trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.anomalies.content_divergence import views_content_diverged
from repro.core.anomalies.order_divergence import views_order_diverged
from repro.core.stream import StreamOp, TestMeta, run_to_completion
from repro.core.trace import ReadOp, TestTrace
from repro.obs.events import WindowEvent

__all__ = [
    "WindowResult",
    "WindowTracker",
    "divergence_windows",
    "content_divergence_windows",
    "order_divergence_windows",
]

#: Predicate over two views, e.g. ``views_content_diverged``.
ViewPredicate = Callable[[tuple[str, ...], tuple[str, ...]], bool]


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


@dataclass
class _PairWindows:
    """Window state for one agent pair in one test."""

    pair: tuple[str, str]
    views: dict[str, tuple[str, ...]]
    #: Latest corrected read time seen, not yet evaluated.
    pending: float | None = None
    #: The predicate's value at the last commit, and whether a view
    #: changed since (agents mostly re-read an unchanged view).
    diverged: bool = False
    stale: bool = False
    window_start: float | None = None
    intervals: list[tuple[float, float]] = field(default_factory=list)

    def commit(self, kind: str,
               predicate: ViewPredicate) -> WindowEvent | None:
        """Evaluate the predicate at the pending change point."""
        if self.pending is None:
            return None
        time = self.pending
        if self.stale:
            left, right = self.pair
            self.diverged = predicate(self.views[left],
                                      self.views[right])
            self.stale = False
        diverged = self.diverged
        if diverged and self.window_start is None:
            self.window_start = time
            return WindowEvent(kind=kind, action="opened",
                               pair=self.pair, time=time)
        if not diverged and self.window_start is not None:
            start = self.window_start
            self.intervals.append((start, time))
            self.window_start = None
            return WindowEvent(kind=kind, action="closed",
                               pair=self.pair, time=time,
                               start=start)
        return None


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
        self._pairs: dict[str, list[_PairWindows]] = {}

    def open_test(self, meta: TestMeta) -> None:
        self._pairs[meta.test_id] = [
            _PairWindows(
                pair=tuple(sorted((first, second))),
                views={first: (), second: ()},
            )
            for first, second in meta.agent_pairs()
        ]

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> list[WindowEvent]:
        op = sop.op
        if not isinstance(op, ReadOp):
            return []
        events: list[WindowEvent] = []
        for state in self._pairs[meta.test_id]:
            if op.agent not in state.views:
                continue
            if state.pending is not None and sop.time > state.pending:
                event = state.commit(self.kind, self.predicate)
                if event is not None:
                    events.append(event)
            if state.views[op.agent] != op.observed:
                state.views[op.agent] = op.observed
                state.stale = True
            state.pending = sop.time
        return events

    def close_test(
        self, meta: TestMeta
    ) -> tuple[dict[tuple[str, str], WindowResult],
               list[WindowEvent]]:
        events: list[WindowEvent] = []
        windows: dict[tuple[str, str], WindowResult] = {}
        for state in self._pairs.pop(meta.test_id):
            event = state.commit(self.kind, self.predicate)
            if event is not None:
                events.append(event)
            converged = state.window_start is None
            if state.window_start is not None:
                # Still divergent at the last observation: close the
                # interval there so `total`/`largest` stay meaningful,
                # but flag the pair as unconverged.
                assert state.pending is not None
                state.intervals.append(
                    (state.window_start, state.pending)
                )
            windows[state.pair] = WindowResult(
                pair=state.pair,
                intervals=tuple(state.intervals),
                converged=converged,
            )
        return windows, events

    def state_size(self) -> int:
        return sum(
            len(states) + sum(len(s.intervals) for s in states)
            for states in self._pairs.values()
        )


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

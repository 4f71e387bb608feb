"""The one per-pair view machine of the divergence family (§III.2-3, §IV).

§IV defines an agent's view as a step function "as determined by the
most recent read", and both divergence predicates depend only on the
two *views*, not on which reads returned them.  Agents poll a mostly
converged state, so almost every read repeats the view before it:
:class:`PairwiseViews` does its work per view *change*, once, for
every consumer.  The divergence checkers
(:class:`PairwiseDivergenceChecker`) and the window trackers
(:class:`~repro.core.windows.WindowTracker`) are projections of it,
parameterised by the :class:`DivergenceKind` list it runs; the stream
engine runs one instance with both kinds.  The pair table of an
``agents`` tuple — the pairs in ``agent_pairs`` order, their sorted
names, each agent's pairs and the shared result of a pair that never
diverged — is built once and kept for the next test with the same
agents (one entry: agent names come from input streams).  Kept per
open test, each in flat per-test arrays unless noted:

* **per test** — the view table (each distinct view interned once to a
  small id; id 0 is the empty view every agent starts on) and the memo
  ``(kind index, left view id, right view id) -> verdict``: a predicate
  runs once per distinct view pair, whichever projection asks first.
* **per agent** — the current view id and, from its first read on, per
  distinct view returned, its multiplicity and first occurrence (read
  index, local and corrected response).  A repeated read costs one
  tuple comparison and one increment, nothing per pair.
* **per pair** — the pending change point: whether a side's view moved
  since the last evaluation, and when.  Reads at one corrected instant
  only move the views; the pair's first strictly-later read (or the
  end of the test) proves the instant complete and *commits* it.
* **per pair, per kind** — the open window's start and, once a window
  opened, the closed intervals; a commit that flips a kind emits a
  :class:`~repro.obs.events.WindowEvent`.

One pair's observation (at most one per pair per kind, built at
``close_test``; live divergence *onset* telemetry is the window
events) reports:

* ``divergent_read_pairs`` — divergent *(read, read)* combinations: a
  divergent distinct-view combo contributes the product of its
  multiplicities.
* ``example`` — the first divergent pair in left-major order, i.e. the
  minimum ``(left read index, right read index)`` over divergent
  combos.  A combo's minimal pair is the *first occurrence* of each
  view — exactly what interning keeps — so walking both sides in
  first-occurrence order, the first divergent combo met is it.
* ``time`` — of the example pair, the read with the larger local
  response instant (the left one on ties).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

from repro.core.anomalies.base import AnomalyChecker, AnomalyObservation
from repro.core.stream import StreamOp, TestMeta
from repro.obs.events import WindowEvent

__all__ = ["DivergenceKind", "PairwiseViews",
           "PairwiseDivergenceChecker"]

View = tuple[str, ...]
#: Predicate over two views, e.g. ``views_content_diverged``.
ViewPredicate = Callable[[View, View], Any]


class DivergenceKind(NamedTuple):
    """One divergence predicate and what its verdicts are reported as."""

    kind: str  # ``WindowEvent.kind`` of its window transitions
    diverged: ViewPredicate
    #: Observation kind and evidence of one divergent view pair (unset
    #: for a windows-only kind).
    anomaly: str = ""
    example: Callable[[View, View], dict] | None = None


class _Layout:
    """The pair table of one ``agents`` tuple, shared by its tests."""

    __slots__ = ("agents", "index", "pairs", "sides", "touching", "calm")

    def __init__(self, meta: TestMeta) -> None:
        self.agents = meta.agents
        #: agent -> its rank in ``agents``.
        self.index = {agent: a for a, agent in enumerate(meta.agents)}
        #: Per pair, in ``agent_pairs`` order: the sorted names and the
        #: (left, right) agent ranks in that sorted order.
        self.pairs: list[tuple[str, str]] = []
        self.sides: list[tuple[int, int]] = []
        #: agent rank -> the pairs it is a side of, in pair order.
        self.touching: list[list[int]] = [[] for _ in meta.agents]
        for p, (first, second) in enumerate(meta.agent_pairs()):
            left, right = sorted((first, second))
            self.pairs.append((left, right))
            self.sides.append((self.index[left], self.index[right]))
            self.touching[self.index[left]].append(p)
            self.touching[self.index[right]].append(p)
        #: The shared result of a pair that never diverged, per pair;
        #: filled by :func:`repro.core.windows.window_results`.
        self.calm: tuple | None = None


class _AgentViews:
    """One agent's reads in one test; exists from its first read on."""

    __slots__ = ("reads", "last_time", "seen")

    def __init__(self) -> None:
        self.reads = 0
        self.last_time = 0.0
        #: view id -> [multiplicity, first read index, first local
        #: response, first corrected response], first-occurrence order.
        self.seen: dict[int, list] = {}


class _TestViews:
    """Everything :class:`PairwiseViews` holds for one open test.

    Per-pair state is flat, indexed by pair ``p`` (and ``k * pairs +
    p`` per kind); a pair's interval list exists only once one of its
    windows opened.
    """

    __slots__ = ("kinds", "layout", "ids", "views", "memo", "current",
                 "agents", "changed", "starts", "intervals")

    def __init__(self, kinds: Sequence[DivergenceKind],
                 layout: _Layout) -> None:
        self.kinds = kinds
        self.layout = layout
        self.ids: dict[View, int] = {(): 0}
        self.views: list[View] = [()]
        self.memo: dict[tuple[int, int, int], bool] = {}
        width = len(layout.agents)
        #: Per agent: the id of the view its last read returned (0,
        #: the empty view, before any), and its reads once it has any.
        self.current = [0] * width
        self.agents: list[_AgentViews | None] = [None] * width
        pairs = len(layout.pairs)
        #: Per pair: when a side's view moved, not yet evaluated (None
        #: once evaluated).
        self.changed: list[float | None] = [None] * pairs
        #: Per kind and pair: the open window's start (after
        #: ``close_test``: set iff the pair never reconverged) and the
        #: closed intervals of the pairs that ever opened one.
        self.starts: list[float | None] = [None] * (len(kinds) * pairs)
        self.intervals: dict[int, list] = {}

    def diverged(self, k: int, left_id: int, right_id: int) -> bool:
        """Kind ``k``'s verdict on one view pair, evaluated once."""
        key = (k, left_id, right_id)
        verdict = self.memo.get(key)
        if verdict is None:
            verdict = self.memo[key] = bool(self.kinds[k].diverged(
                self.views[left_id], self.views[right_id]))
        return verdict

    def commit(self, due: list[int]) -> list[WindowEvent]:
        """Evaluate every kind at each pair's pending change point.

        Transitions come kind by kind, each kind's in pair order.
        """
        events = []
        layout, current = self.layout, self.current
        starts, changed = self.starts, self.changed
        width = len(layout.pairs)
        for k, kind in enumerate(self.kinds):
            for p in due:
                index = k * width + p
                start = starts[index]
                left, right = layout.sides[p]
                diverged = self.diverged(k, current[left],
                                         current[right])
                if diverged == (start is not None):
                    continue
                time = changed[p]
                if diverged:
                    starts[index] = time
                    self.intervals.setdefault(index, [])
                    events.append(WindowEvent(
                        kind=kind.kind, action="opened",
                        pair=layout.pairs[p], time=time))
                else:
                    self.intervals[index].append((start, time))
                    starts[index] = None
                    events.append(WindowEvent(
                        kind=kind.kind, action="closed",
                        pair=layout.pairs[p], time=time, start=start))
        for p in due:
            changed[p] = None
        return events

    def observations(self, k: int) -> list[AnomalyObservation]:
        """Kind ``k``'s observation per divergent pair, in pair order."""
        kind = self.kinds[k]
        views, agents = self.views, self.agents
        layout = self.layout
        observations: list[AnomalyObservation] = []
        for p, (left_rank, right_rank) in enumerate(layout.sides):
            left_agent, right_agent = agents[left_rank], agents[right_rank]
            if left_agent is None or right_agent is None:
                continue  # a side never read: nothing to combine
            count = 0
            example = None
            for left_id, left in left_agent.seen.items():
                for right_id, right in right_agent.seen.items():
                    if self.diverged(k, left_id, right_id):
                        count += left[0] * right[0]
                        if example is None:
                            example = (left_id, left, right_id, right)
            if example is None:
                continue
            left_id, left, right_id, right = example
            detecting = left if left[2] >= right[2] else right
            pair = layout.pairs[p]
            observations.append(AnomalyObservation(
                anomaly=kind.anomaly,
                agent=pair[0],
                time=detecting[3],
                pair=pair,
                details={
                    "divergent_read_pairs": count,
                    "example": kind.example(views[left_id],
                                            views[right_id]),
                },
            ))
        return observations

    def state_size(self) -> int:
        return (len(self.views) + len(self.memo)
                + len(self.current) + len(self.changed)
                + sum(len(agent.seen) for agent in self.agents
                      if agent is not None)
                + sum(map(len, self.intervals.values())))


class PairwiseViews:
    """Step every agent pair's views once per read, for every kind.

    Same per-test lifecycle as an anomaly checker.  ``observe``
    returns the window transitions the read committed; ``close_test``
    returns the retired test — whose ``observations(k)`` and per-pair
    windows the projections read — plus any last transitions.
    """

    def __init__(self, kinds: Sequence[DivergenceKind]) -> None:
        self.kinds = tuple(kinds)
        self._tests: dict[str, _TestViews] = {}
        #: The pair table of the last ``agents`` tuple opened: tests of
        #: one stream share one, and one entry bounds what names read
        #: from an input stream can pin.
        self._layout: _Layout | None = None

    def open_test(self, meta: TestMeta) -> None:
        layout = self._layout
        if layout is None or layout.agents != meta.agents:
            layout = self._layout = _Layout(meta)
        self._tests[meta.test_id] = _TestViews(self.kinds, layout)

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> Sequence[WindowEvent]:
        if not sop.is_read:
            return ()
        op = sop.op
        test = self._tests[meta.test_id]
        rank = test.layout.index[op.agent]
        agent = test.agents[rank]
        if agent is None:
            agent = test.agents[rank] = _AgentViews()
        time = sop.time
        view = op.observed
        view_id = test.current[rank]
        if view != test.views[view_id]:  # else: the common case
            view_id = test.ids.get(view)
            if view_id is None:
                view_id = test.ids[view] = len(test.views)
                test.views.append(view)
        record = agent.seen.get(view_id)
        if record is None:
            record = agent.seen[view_id] = [
                0, agent.reads, op.response_local, time]
        record[0] += 1
        agent.reads += 1
        agent.last_time = time
        # Pairs whose pending instant this strictly-later read proves
        # complete are evaluated on the views as they stood then.
        changed = test.changed
        touching = test.layout.touching[rank]
        due = [p for p in touching
               if (at := changed[p]) is not None and time > at]
        events = test.commit(due) if due else ()
        if view_id != test.current[rank]:
            test.current[rank] = view_id
            for p in touching:
                changed[p] = time
        return events

    def close_test(self, meta: TestMeta
                   ) -> tuple[_TestViews, list[WindowEvent]]:
        test = self._tests.pop(meta.test_id)
        due = [p for p, at in enumerate(test.changed) if at is not None]
        events = test.commit(due)
        width = len(test.layout.pairs)
        for index, intervals in test.intervals.items():
            start = test.starts[index]
            if start is not None:
                # Still divergent at the pair's last read: close the
                # interval there so totals stay meaningful; the start
                # stays set and flags it unconverged.
                intervals.append((start, max(
                    test.agents[side].last_time
                    for side in test.layout.sides[index % width]
                    if test.agents[side] is not None)))
        return test, events

    def state_size(self) -> int:
        return sum(test.state_size() for test in self._tests.values())


class PairwiseDivergenceChecker(AnomalyChecker):
    """One divergence kind's per-pair observations.

    The observation projection of :class:`PairwiseViews` run with the
    subclass's single :attr:`kind`.  ``observe`` never emits: an
    observation summarizes a whole pair for a whole test.
    """

    kind: DivergenceKind

    def __init__(self) -> None:
        self._views = PairwiseViews((self.kind,))

    def open_test(self, meta: TestMeta) -> None:
        self._views.open_test(meta)

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> list[AnomalyObservation]:
        self._views.observe(meta, sop)
        return []

    def close_test(self, meta: TestMeta) -> list[AnomalyObservation]:
        test, _ = self._views.close_test(meta)
        return test.observations(0)

    def state_size(self) -> int:
        return self._views.state_size()

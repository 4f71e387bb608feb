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
engine runs one instance with both kinds.  Kept per open test:

* **per test** — the view table (each distinct view interned once to a
  small id; id 0 is the empty view every agent starts on) and the memo
  ``(kind index, left view id, right view id) -> verdict``: a predicate
  runs once per distinct view pair, whichever projection asks first.
* **per agent** — the current view id and, per distinct view returned,
  its multiplicity and first occurrence (read index, local and
  corrected response).  A repeated read costs one tuple comparison and
  one increment, nothing per pair.
* **per pair** — the pending change point: whether a side's view moved
  since the last evaluation, and when.  Reads at one corrected instant
  only move the views; the pair's first strictly-later read (or the
  end of the test) proves the instant complete and *commits* it.
* **per pair, per kind** — the open window's start and the closed
  intervals; a commit that flips a kind emits a
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


class _AgentViews:
    """One agent's view step function in one test."""

    __slots__ = ("current", "reads", "last_time", "seen", "pairs")

    def __init__(self) -> None:
        self.current = 0  # id of the view the agent's last read returned
        self.reads = 0
        self.last_time: float | None = None
        #: view id -> [multiplicity, first read index, first local
        #: response, first corrected response], first-occurrence order.
        self.seen: dict[int, list] = {}
        self.pairs: list[_PairStep] = []


class _PairStep:
    """One unordered agent pair's change point and windows."""

    __slots__ = ("pair", "left", "right", "stale", "changed_at",
                 "starts", "intervals")

    def __init__(self, pair: tuple[str, str], left: _AgentViews,
                 right: _AgentViews, kinds: int) -> None:
        self.pair = pair
        self.left = left
        self.right = right
        #: A side's view moved at ``changed_at``, not yet evaluated.
        self.stale = False
        self.changed_at = 0.0
        #: Per kind: the open window's start (after ``close_test``:
        #: set iff the pair never reconverged), the closed intervals.
        self.starts: list[float | None] = [None] * kinds
        self.intervals: list[list] = [[] for _ in range(kinds)]


class _TestViews:
    """Everything :class:`PairwiseViews` holds for one open test."""

    __slots__ = ("kinds", "ids", "views", "memo", "agents", "pairs")

    def __init__(self, kinds: Sequence[DivergenceKind],
                 meta: TestMeta) -> None:
        self.kinds = kinds
        self.ids: dict[View, int] = {(): 0}
        self.views: list[View] = [()]
        self.memo: dict[tuple[int, int, int], bool] = {}
        self.agents = {agent: _AgentViews() for agent in meta.agents}
        self.pairs: list[_PairStep] = []
        for first, second in meta.agent_pairs():
            left, right = sorted((first, second))
            step = _PairStep((left, right), self.agents[left],
                             self.agents[right], len(kinds))
            self.pairs.append(step)
            step.left.pairs.append(step)
            step.right.pairs.append(step)

    def diverged(self, k: int, left_id: int, right_id: int) -> bool:
        """Kind ``k``'s verdict on one view pair, evaluated once."""
        key = (k, left_id, right_id)
        verdict = self.memo.get(key)
        if verdict is None:
            verdict = self.memo[key] = bool(self.kinds[k].diverged(
                self.views[left_id], self.views[right_id]))
        return verdict

    def commit(self, steps: list[_PairStep]) -> list[WindowEvent]:
        """Evaluate every kind at each pair's pending change point.

        Transitions come kind by kind, each kind's in pair order.
        """
        events = []
        for k, kind in enumerate(self.kinds):
            for step in steps:
                start = step.starts[k]
                diverged = self.diverged(k, step.left.current,
                                         step.right.current)
                if diverged == (start is not None):
                    continue
                time = step.changed_at
                if diverged:
                    step.starts[k] = time
                    events.append(WindowEvent(
                        kind=kind.kind, action="opened",
                        pair=step.pair, time=time))
                else:
                    step.intervals[k].append((start, time))
                    step.starts[k] = None
                    events.append(WindowEvent(
                        kind=kind.kind, action="closed",
                        pair=step.pair, time=time, start=start))
        for step in steps:
            step.stale = False
        return events

    def observations(self, k: int) -> list[AnomalyObservation]:
        """Kind ``k``'s observation per divergent pair, in pair order."""
        kind = self.kinds[k]
        views = self.views
        observations: list[AnomalyObservation] = []
        for step in self.pairs:
            count = 0
            example = None
            for left_id, left in step.left.seen.items():
                for right_id, right in step.right.seen.items():
                    if self.diverged(k, left_id, right_id):
                        count += left[0] * right[0]
                        if example is None:
                            example = (left_id, left, right_id, right)
            if example is None:
                continue
            left_id, left, right_id, right = example
            detecting = left if left[2] >= right[2] else right
            observations.append(AnomalyObservation(
                anomaly=kind.anomaly,
                agent=step.pair[0],
                time=detecting[3],
                pair=step.pair,
                details={
                    "divergent_read_pairs": count,
                    "example": kind.example(views[left_id],
                                            views[right_id]),
                },
            ))
        return observations

    def state_size(self) -> int:
        return (len(self.views) + len(self.memo)
                + sum(1 + len(a.seen) for a in self.agents.values())
                + sum(1 + sum(map(len, step.intervals))
                      for step in self.pairs))


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

    def open_test(self, meta: TestMeta) -> None:
        self._tests[meta.test_id] = _TestViews(self.kinds, meta)

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> Sequence[WindowEvent]:
        if not sop.is_read:
            return ()
        op = sop.op
        test = self._tests[meta.test_id]
        agent = test.agents[op.agent]
        time = sop.time
        view = op.observed
        view_id = agent.current
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
        due = [step for step in agent.pairs
               if step.stale and time > step.changed_at]
        events = test.commit(due) if due else ()
        if view_id != agent.current:
            agent.current = view_id
            for step in agent.pairs:
                step.stale = True
                step.changed_at = time
        return events

    def close_test(self, meta: TestMeta
                   ) -> tuple[_TestViews, list[WindowEvent]]:
        test = self._tests.pop(meta.test_id)
        events = test.commit(
            [step for step in test.pairs if step.stale])
        for step in test.pairs:
            for k, start in enumerate(step.starts):
                if start is not None:
                    # Still divergent at the pair's last read: close
                    # the interval there so totals stay meaningful;
                    # the start stays set and flags it unconverged.
                    step.intervals[k].append((start, max(
                        time for time in (step.left.last_time,
                                          step.right.last_time)
                        if time is not None)))
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

"""Shared machinery of the two divergence checkers (§III.2).

Both divergence predicates depend only on the two *views*, not on
which reads returned them, so per agent pair the checker keeps one
record per **distinct view** on each side, with its multiplicity and
the position/time of its first occurrence.  A new distinct view is
compared against the other side's distinct views once; a repeated view
just bumps multiplicities and the running pair count.  Agents poll a
mostly-converged state, so distinct views — and therefore state and
work — stay far below read counts.

What one pair's observation reports:

* ``divergent_read_pairs`` — divergent *(read, read)* combinations: a
  divergent distinct-view combo contributes the product of its
  multiplicities; incrementally, each new read adds the current
  multiplicity sum of the partner views it diverges from.
* ``example`` — the first divergent pair in left-major order, i.e. the
  minimum ``(left read index, right read index)`` over divergent
  combos.  A combo's minimal pair is the first occurrence of each
  view, fixed when the *later* first occurrence arrives, so the best
  example needs one lexicographic comparison per newly-divergent combo
  and repeats can never displace it.
* ``time`` — of the example pair, the read with the larger local
  response instant (the left one on ties).

``observe`` never emits: an observation summarizes a whole pair for a
whole test (at most one per pair), so it only exists at ``close_test``.
Live divergence *onset* telemetry comes from the window tracker
(:mod:`repro.core.windows`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.anomalies.base import AnomalyChecker, AnomalyObservation
from repro.core.stream import StreamOp, TestMeta
from repro.core.trace import ReadOp

__all__ = ["PairwiseDivergenceChecker"]

View = tuple[str, ...]


@dataclass
class _ViewRecord:
    """One distinct observed view on one side of an agent pair."""

    view: View
    first_index: int  # index among this agent's reads
    first_response_local: float
    first_time: float  # corrected response of the first occurrence
    multiplicity: int = 1
    #: records of partner views this view diverges from.
    divergent_with: list["_ViewRecord"] = field(default_factory=list)


@dataclass
class _PairState:
    """Divergence state for one unordered agent pair in one test."""

    left: str
    right: str
    #: view -> record, insertion-ordered (= first-occurrence order).
    left_views: dict[View, _ViewRecord] = field(default_factory=dict)
    right_views: dict[View, _ViewRecord] = field(default_factory=dict)
    count: int = 0
    #: (left first_index, right first_index) of the example combo.
    best: tuple[int, int] | None = None
    best_left: _ViewRecord | None = None
    best_right: _ViewRecord | None = None


class PairwiseDivergenceChecker(AnomalyChecker):
    """A divergence predicate counted over every agent pair's reads.

    Subclasses supply the predicate (:meth:`_diverged`) and the
    evidence of one divergent view pair (:meth:`_example`).
    """

    def __init__(self) -> None:
        #: test_id -> pair states, in agent_pairs order.
        self._pairs: dict[str, list[_PairState]] = {}
        #: test_id -> agent -> number of reads seen so far.
        self._read_counts: dict[str, dict[str, int]] = {}

    def _diverged(self, left_view: View, right_view: View) -> bool:
        raise NotImplementedError

    def _example(self, left_view: View, right_view: View) -> dict:
        raise NotImplementedError

    def open_test(self, meta: TestMeta) -> None:
        self._pairs[meta.test_id] = [
            _PairState(*sorted(pair)) for pair in meta.agent_pairs()
        ]
        self._read_counts[meta.test_id] = dict.fromkeys(meta.agents, 0)

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> list[AnomalyObservation]:
        op = sop.op
        if not isinstance(op, ReadOp):
            return []
        counts = self._read_counts[meta.test_id]
        index = counts[op.agent]
        counts[op.agent] = index + 1
        for state in self._pairs[meta.test_id]:
            if op.agent == state.left:
                self._ingest(state, index, op, sop.time, left_side=True)
            elif op.agent == state.right:
                self._ingest(state, index, op, sop.time, left_side=False)
        return []

    def _ingest(self, state: _PairState, index: int, op: ReadOp,
                time: float, left_side: bool) -> None:
        own = state.left_views if left_side else state.right_views
        partner = state.right_views if left_side else state.left_views
        record = own.get(op.observed)
        if record is not None:
            record.multiplicity += 1
            if record.divergent_with:
                state.count += sum(p.multiplicity
                                   for p in record.divergent_with)
            return
        record = own[op.observed] = _ViewRecord(
            op.observed, index, op.response_local, time
        )
        for other in partner.values():
            left_rec, right_rec = ((record, other) if left_side
                                   else (other, record))
            if not self._diverged(left_rec.view, right_rec.view):
                continue
            record.divergent_with.append(other)
            other.divergent_with.append(record)
            state.count += other.multiplicity
            candidate = (left_rec.first_index, right_rec.first_index)
            if state.best is None or candidate < state.best:
                state.best = candidate
                state.best_left = left_rec
                state.best_right = right_rec

    def close_test(self, meta: TestMeta) -> list[AnomalyObservation]:
        del self._read_counts[meta.test_id]
        observations: list[AnomalyObservation] = []
        for state in self._pairs.pop(meta.test_id):
            if state.count == 0:
                continue
            left_rec, right_rec = state.best_left, state.best_right
            assert left_rec is not None and right_rec is not None
            detecting = (
                left_rec
                if left_rec.first_response_local >=
                right_rec.first_response_local
                else right_rec
            )
            observations.append(AnomalyObservation(
                anomaly=self.anomaly,
                agent=state.left,
                time=detecting.first_time,
                pair=(state.left, state.right),
                details={
                    "divergent_read_pairs": state.count,
                    "example": self._example(left_rec.view,
                                             right_rec.view),
                },
            ))
        return observations

    def state_size(self) -> int:
        total = sum(len(counts)
                    for counts in self._read_counts.values())
        for states in self._pairs.values():
            for state in states:
                total += len(state.left_views)
                total += len(state.right_views)
                total += sum(len(r.divergent_with)
                             for r in state.left_views.values())
        return total

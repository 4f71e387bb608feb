"""Writes Follow Reads checker.

Paper definition (§III.1): with ``S1`` a sequence returned by a read of
client ``c``, ``w`` a write performed by ``c`` after observing ``S1``,
and ``S2`` a sequence returned by a read issued by *any* client, a
*Writes Follow Reads* anomaly happens when::

    w ∈ S2 ∧ ∃ x ∈ S1 : x ∉ S2

i.e. someone sees the reaction without the message it reacted to.

Dependency derivation
---------------------
The predicate needs to know which messages a write "follows".  Two
modes, chosen by the test's trigger map; either way a write's
dependency set is fixed the moment the write arrives:

* **Trigger mode** (the paper's Test 1): the test design designates
  explicit causal pairs — M3 follows M2, M5 follows M4 — because those
  are the only writes issued *in reaction to* an observation.  This
  avoids false positives from incidental co-observation.
* **Generic mode**: a write depends on everything its author observed
  in reads completed before the write's invocation — the literal
  reading of the definition.  (Canonical stream order restricted to
  the author is its session order, so those reads have all arrived;
  :mod:`repro.core.stream` defines the exact-tie case.)

One observation is recorded per (read, dependent-write) combination
where the write is visible but a dependency is missing.  ``details``
keys:

* ``write`` — the visible dependent message id.
* ``missing_dependencies`` — its absent causal predecessors (sorted).
* ``observed`` — the sequence the read returned.

A read is checked immediately against writes already logged, and
*deferred* for observed ids whose own log entry is still in flight —
the one case where evidence is incomplete at read time; an id never
logged in the test has no dependencies and is skipped.  ``close_test``
restores (read, position-in-view) order.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.anomalies.base import (
    WRITES_FOLLOW_READS,
    AnomalyChecker,
    AnomalyObservation,
)
from repro.core.stream import StreamOp, TestMeta
from repro.core.trace import ReadOp, WriteOp

__all__ = ["WritesFollowReadsChecker"]


class _Sighting(NamedTuple):
    """One message id at one position of one read's view."""

    read_seq: int
    position: int
    message_id: str
    visible: frozenset[str]
    read: ReadOp
    time: float  # corrected response of the read


class _WfrState:
    """Per-test WFR state."""

    __slots__ = ("deps", "first_seen", "reads_seen", "pending",
                 "emitted")

    def __init__(self) -> None:
        #: message_id -> dependency set, fixed the moment the write
        #: arrives.
        self.deps: dict[str, frozenset[str]] = {}
        #: agent -> message_id -> earliest local response instant at
        #: which one of the agent's reads returned it (generic-mode
        #: derivation); an agent appears at its first non-empty read.
        self.first_seen: dict[str, dict[str, float]] = {}
        #: Reads seen so far: the next read's index in read order.
        self.reads_seen = 0
        #: Sightings of ids whose write has not been logged yet.
        self.pending: list[_Sighting] = []
        #: [((read_seq, position), observation)] — sorted at close.
        self.emitted: list[tuple[tuple[int, int], AnomalyObservation]] \
            = []


class WritesFollowReadsChecker(AnomalyChecker):
    """Detects reactions visible without the messages they followed."""

    anomaly = WRITES_FOLLOW_READS

    def __init__(self) -> None:
        self._tests: dict[str, _WfrState] = {}

    def open_test(self, meta: TestMeta) -> None:
        self._tests[meta.test_id] = _WfrState()

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> list[AnomalyObservation]:
        state = self._tests[meta.test_id]
        op = sop.op
        fired: list[AnomalyObservation] = []
        if not sop.is_read:
            deps = self._dependencies(meta, state, op)
            state.deps[op.message_id] = deps
            # Resolve reads that observed this write before its own
            # log entry arrived.
            still_pending: list[_Sighting] = []
            for sighting in state.pending:
                if sighting.message_id != op.message_id:
                    still_pending.append(sighting)
                else:
                    self._judge(state, sighting, deps, fired)
            state.pending = still_pending
            return fired
        read_seq = state.reads_seen
        state.reads_seen += 1
        visible = frozenset(op.observed)
        for position, message_id in enumerate(op.observed):
            deps = state.deps.get(message_id)
            if deps is not None and not deps:
                continue  # follows nothing
            sighting = _Sighting(read_seq, position, message_id,
                                 visible, op, sop.time)
            if deps is None:
                state.pending.append(sighting)
            else:
                self._judge(state, sighting, deps, fired)
        if op.observed:
            first_seen = state.first_seen.get(op.agent)
            if first_seen is None:
                first_seen = state.first_seen[op.agent] = {}
            for message_id in op.observed:
                first_seen.setdefault(message_id, op.response_local)
        return fired

    @staticmethod
    def _dependencies(meta: TestMeta, state: _WfrState,
                      write: WriteOp) -> frozenset[str]:
        if meta.wfr_triggers:
            return meta.wfr_triggers.get(write.message_id, frozenset())
        observed = {
            message_id for message_id, first
            in state.first_seen.get(write.agent, {}).items()
            if first <= write.invoke_local
        }
        observed.discard(write.message_id)
        return frozenset(observed)

    def _judge(self, state: _WfrState, sighting: _Sighting,
               deps: frozenset[str],
               fired: list[AnomalyObservation]) -> None:
        """Record the sighting if any of its dependencies is absent."""
        missing = deps - sighting.visible
        if not missing:
            return
        obs = AnomalyObservation(
            anomaly=self.anomaly,
            agent=sighting.read.agent,
            time=sighting.time,
            details={
                "write": sighting.message_id,
                "missing_dependencies": tuple(sorted(missing)),
                "observed": sighting.read.observed,
            },
        )
        state.emitted.append(
            ((sighting.read_seq, sighting.position), obs)
        )
        fired.append(obs)

    def close_test(self, meta: TestMeta) -> list[AnomalyObservation]:
        state = self._tests.pop(meta.test_id)
        return [obs for _, obs in sorted(state.emitted,
                                         key=lambda e: e[0])]

    def state_size(self) -> int:
        total = 0
        for state in self._tests.values():
            total += len(state.deps) + len(state.pending)
            total += len(state.emitted)
            total += sum(len(seen)
                         for seen in state.first_seen.values())
        return total

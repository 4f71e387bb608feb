"""Read Your Writes checker.

Paper definition (§III.1): with ``W`` the set of writes completed by a
client ``c`` at a given instant and ``S`` the sequence returned by a
subsequent read of ``c``, a *Read Your Writes* anomaly happens when::

    ∃ x ∈ W : x ∉ S

Operationally we treat "at a given instant" as: every write by ``c``
whose *response* arrived before the read's *invocation* on ``c``'s own
clock (both sides of the comparison use the same clock, so skew is
irrelevant here).  Writes still in flight when the read was issued are
excluded — a service cannot be blamed for not reflecting a write it has
not acknowledged.

One observation is recorded per read that misses at least one of the
reader's own completed writes.  ``details`` keys:

* ``missing`` — tuple of the reader's own message ids absent from the
  read, in session order.
* ``observed`` — the sequence the read returned.

Incrementally: per agent, from its first write on, its logged writes
kept in session (local invocation) order; a read is checked against
them the moment it arrives, which is exact because canonical stream
order restricted to one agent is its session order
(:mod:`repro.core.stream`).  ``close_test`` lists observations agent
by agent, each agent's in session order.
"""

from __future__ import annotations

from bisect import insort

from repro.core.anomalies.base import (
    READ_YOUR_WRITES,
    AnomalyChecker,
    AnomalyObservation,
    by_agent,
)
from repro.core.stream import StreamOp, TestMeta

__all__ = ["ReadYourWritesChecker"]


class ReadYourWritesChecker(AnomalyChecker):
    """Detects reads that miss the reader's own completed writes."""

    anomaly = READ_YOUR_WRITES

    def __init__(self) -> None:
        #: test_id -> agent -> its writes as ``(invoke_local, seq,
        #: response_local, message_id)``, in session order; an agent
        #: appears at its first write.
        self._writes: dict[str, dict[str, list[tuple]]] = {}
        #: test_id -> observations in stream order, from the first.
        self._emitted: dict[str, list[AnomalyObservation]] = {}

    def open_test(self, meta: TestMeta) -> None:
        self._writes[meta.test_id] = {}

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> list[AnomalyObservation]:
        op = sop.op
        sessions = self._writes[meta.test_id]
        if not sop.is_read:
            session = sessions.get(op.agent)
            if session is None:
                session = sessions[op.agent] = []
            insort(session, (op.invoke_local, sop.seq,
                             op.response_local, op.message_id))
            return []
        session = sessions.get(op.agent)
        if session is None:
            return []
        observed = op.observed
        missing = tuple(
            message_id for _, _, response_local, message_id in session
            if response_local <= op.invoke_local
            and message_id not in observed
        )
        if not missing:
            return []
        obs = AnomalyObservation(
            anomaly=self.anomaly,
            agent=op.agent,
            time=sop.time,
            details={"missing": missing, "observed": observed},
        )
        self._emitted.setdefault(meta.test_id, []).append(obs)
        return [obs]

    def close_test(self, meta: TestMeta) -> list[AnomalyObservation]:
        del self._writes[meta.test_id]
        return by_agent(meta, self._emitted.pop(meta.test_id, None))

    def state_size(self) -> int:
        return sum(
            len(entries)
            for per_agent in self._writes.values()
            for entries in per_agent.values()
        ) + sum(map(len, self._emitted.values()))

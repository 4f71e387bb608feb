"""Monotonic Writes checker.

Paper definition (§III.1): with ``W`` the sequence of writes made by
client ``c`` up to a given instant and ``S`` a sequence returned by a
read of *any* client, a *Monotonic Writes* anomaly happens when::

    ∃ x, y ∈ W : W(x) ≺ W(y) ∧ y ∈ S ∧ (x ∉ S ∨ S(y) ≺ S(x))

i.e. some later write of a session is visible while an earlier write of
the same session is either missing or ordered after it.

Unlike read-your-writes, the observing read may come from *any* agent.
"Up to a given instant" means writes whose response preceded the read's
invocation; because writer and reader may sit on different machines, we
compare in the reference frame via the trace's estimated clock deltas.

One observation is recorded per (read, writer-session) combination that
violates the property.  ``details`` keys:

* ``writer`` — the session whose write order was violated.
* ``missing`` — earlier write ids that are absent while a later one is
  visible.
* ``reordered`` — tuple of (earlier_id, later_id) pairs that appear in
  inverted order in the read.
* ``observed`` — the sequence the read returned.

Incrementally: per writer session, from its first write on, its logged
writes kept in session (local invocation) order with their
reference-frame response times; every arriving read is checked against
each session's writes already acknowledged at its invocation.
Observations come out in read order, writers in agent order within one
read (not in the order sessions first wrote).
"""

from __future__ import annotations

from bisect import insort

from repro.core.anomalies.base import (
    MONOTONIC_WRITES,
    AnomalyChecker,
    AnomalyObservation,
)
from repro.core.stream import StreamOp, TestMeta

__all__ = ["MonotonicWritesChecker"]


class MonotonicWritesChecker(AnomalyChecker):
    """Detects violations of per-session write order in any read."""

    anomaly = MONOTONIC_WRITES

    def __init__(self) -> None:
        #: test_id -> writer -> its writes as ``(invoke_local, seq,
        #: corrected response, message_id)``, in session order; a
        #: writer appears at its first write.
        self._writes: dict[str, dict[str, list[tuple]]] = {}
        #: test_id -> observations, from the first.
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
                             sop.time, op.message_id))
            return []
        fired: list[AnomalyObservation] = []
        positions: dict[str, int] | None = None
        for writer in meta.agents:
            session = sessions.get(writer)
            if session is None or len(session) < 2:
                continue
            # Already in session order: cutting by response time
            # needs no re-sort.
            completed = [message_id for _, _, time, message_id in session
                         if time <= sop.invoke]
            if len(completed) < 2:
                continue
            if positions is None:
                positions = {mid: i for i, mid in enumerate(op.observed)}
            violation = self._session_violation(completed, positions)
            if violation is None:
                continue
            missing, reordered = violation
            fired.append(AnomalyObservation(
                anomaly=self.anomaly,
                agent=op.agent,
                time=sop.time,
                details={
                    "writer": writer,
                    "missing": missing,
                    "reordered": reordered,
                    "observed": op.observed,
                },
            ))
        if fired:
            self._emitted.setdefault(meta.test_id, []).extend(fired)
        return fired

    def close_test(self, meta: TestMeta) -> list[AnomalyObservation]:
        del self._writes[meta.test_id]
        return self._emitted.pop(meta.test_id, [])

    def state_size(self) -> int:
        return sum(
            len(entries)
            for per_agent in self._writes.values()
            for entries in per_agent.values()
        ) + sum(len(emitted) for emitted in self._emitted.values())

    @staticmethod
    def _session_violation(
        session_ids: list[str], positions: dict[str, int]
    ) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]] | None:
        """Check one writer session against one read's positions.

        Returns (missing_ids, reordered_pairs) or None if consistent.
        """
        missing: list[str] = []
        reordered: list[tuple[str, str]] = []
        for i, earlier in enumerate(session_ids):
            for later in session_ids[i + 1:]:
                later_pos = positions.get(later)
                if later_pos is None:
                    continue  # later write not visible: no constraint yet
                earlier_pos = positions.get(earlier)
                if earlier_pos is None:
                    missing.append(earlier)
                elif later_pos < earlier_pos:
                    reordered.append((earlier, later))
        if not missing and not reordered:
            return None
        # De-duplicate while preserving order.
        return tuple(dict.fromkeys(missing)), tuple(reordered)

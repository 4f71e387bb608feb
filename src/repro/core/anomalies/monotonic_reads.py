"""Monotonic Reads checker.

Paper definition (§III.1): a *Monotonic Reads* anomaly happens when a
client ``c`` issues two reads returning ``S1`` then ``S2`` and::

    ∃ x ∈ S1 : x ∉ S2

i.e. a write the client already observed later disappears from its
view.  The subtlety versus monotonic writes (called out in the paper)
is that the missing write must have been *returned by a previous read*
of the same client, not merely issued.

Checking every ordered pair of reads is quadratic; we use the standard
equivalent linear form: per agent, maintain the set of everything its
reads returned so far (they arrive in session order under canonical
stream order) and flag a read that misses any previously-observed
message.  (If ``x ∈ S1`` and ``x ∉ S2`` for *some*
earlier ``S1``, then ``x`` is in the running union and missing now, and
vice versa.)

One observation is recorded per read that loses at least one
previously-seen message.  ``details`` keys:

* ``missing`` — previously-observed message ids absent from this read
  (sorted).
* ``observed`` — the sequence the read returned.

``close_test`` lists observations agent by agent, each agent's in
session order.
"""

from __future__ import annotations

from repro.core.anomalies.base import (
    MONOTONIC_READS,
    AnomalyChecker,
    AnomalyObservation,
    by_agent,
)
from repro.core.stream import StreamOp, TestMeta

__all__ = ["MonotonicReadsChecker"]


class MonotonicReadsChecker(AnomalyChecker):
    """Detects messages vanishing between successive reads of a session."""

    anomaly = MONOTONIC_READS

    def __init__(self) -> None:
        #: test_id -> agent -> union of ids its reads returned so far;
        #: an agent appears at its first read that returned any.
        self._seen: dict[str, dict[str, set[str]]] = {}
        #: test_id -> observations in stream order, from the first.
        self._emitted: dict[str, list[AnomalyObservation]] = {}

    def open_test(self, meta: TestMeta) -> None:
        self._seen[meta.test_id] = {}

    def observe(self, meta: TestMeta,
                sop: StreamOp) -> list[AnomalyObservation]:
        if not sop.is_read:
            return []
        op = sop.op
        per_agent = self._seen[meta.test_id]
        seen_so_far = per_agent.get(op.agent)
        if seen_so_far is None:  # nothing seen yet: nothing to lose
            if op.observed:
                per_agent[op.agent] = set(op.observed)
            return []
        missing = seen_so_far.difference(op.observed)
        seen_so_far.update(op.observed)
        if not missing:
            return []
        obs = AnomalyObservation(
            anomaly=self.anomaly,
            agent=op.agent,
            time=sop.time,
            details={
                "missing": tuple(sorted(missing)),
                "observed": op.observed,
            },
        )
        self._emitted.setdefault(meta.test_id, []).append(obs)
        return [obs]

    def close_test(self, meta: TestMeta) -> list[AnomalyObservation]:
        del self._seen[meta.test_id]
        return by_agent(meta, self._emitted.pop(meta.test_id, None))

    def state_size(self) -> int:
        return sum(
            len(entries)
            for per_agent in self._seen.values()
            for entries in per_agent.values()
        ) + sum(map(len, self._emitted.values()))

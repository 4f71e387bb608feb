"""The deterministic cross-shard message bus.

Every inter-replica interaction in a sharded world — rumor relays, read
records shipped to a cohort's home replica, retirement broadcasts —
crosses this bus, *including* traffic between replicas that happen to
share a shard.  That uniformity is the whole trick: delivery order is
fixed by a lamport-style total key

    (deliver_time, origin_replica, per-origin sequence)

whose components are all functions of logical replica indices and
simulated times, never of the physical shard cut.  At each epoch
barrier the engine drains due messages in that key order and schedules
them into the target shards' simulators, so a world run on one shard
and the same world run on N shards execute byte-identical histories.

Two invariants make the barrier sound:

* **Floor latency** — no message travels faster than one epoch
  (``deliver >= send + epoch``), so anything sent during epoch *k*
  lands strictly after the *k* -> *k+1* barrier and is sequenced there.
* **Deterministic deferral** — a partition nemesis never drops a
  message; it re-transmits it at heal time with its original latency,
  keeping delivery a pure function of (endpoints, send time, latency).

The conservation law, held by the state machine in
``tests/test_world.py`` under random sends, drains and partitions:

* after every ``drain_until``, ``sent = drained + pending`` — the bus
  neither loses nor duplicates a message;
* drained keys are strictly increasing, within one drain *and across
  successive drains*: ``send`` refuses a message that would deliver at
  or before a horizon already drained, so no barrier is ever re-opened;
* no message drains before ``send_time + epoch``, nor before the end
  (plus its latency) of any partition that separated its endpoints
  when it was sent or when it was re-transmitted.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, NamedTuple, Sequence

from repro.errors import SimulationError
from repro.world.spec import WorldPartition

__all__ = ["BusMessage", "WorldBus"]


class BusMessage(NamedTuple):
    """One bus delivery; its first three fields are its total-order key."""

    deliver_time: float
    origin: int
    seq: int
    target: int
    kind: str
    payload: tuple

    @property
    def key(self) -> tuple[float, int, int]:
        return self[:3]


#: What ``BusMessage(...)`` does underneath, minus the Python frame.
_new_message = tuple.__new__


class WorldBus:
    """Pending cross-replica messages awaiting an epoch barrier."""

    __slots__ = ("_epoch", "_partitions", "_pending", "_next_seq",
                 "_drained_to", "sent_total", "deferred_total")

    def __init__(self, epoch: float,
                 partitions: Sequence[WorldPartition] = ()) -> None:
        if epoch <= 0:
            raise SimulationError("bus epoch must be positive")
        self._epoch = epoch
        self._partitions = tuple(partitions)
        #: A heap: ``(origin, seq)`` is unique, so ordering messages as
        #: tuples orders them by key and never compares a payload.
        self._pending: list[BusMessage] = []
        #: Per-origin monotonic sequence numbers (the lamport tiebreak).
        self._next_seq: dict[int, int] = {}
        #: The latest horizon a barrier has drained.
        self._drained_to = -math.inf
        self.sent_total = 0
        self.deferred_total = 0

    def send(self, *, origin: int, target: int, send_time: float,
             latency: float, kind: str, payload: tuple = ()) -> None:
        """Enqueue a message; delivery honors the floor and partitions."""
        if origin == target:
            raise SimulationError(
                f"replica {origin} sent itself a bus message; local "
                "state is reached directly, not through the bus"
            )
        healed = send_time
        if self._partitions:
            healed = self._heal_time(origin, target, send_time)
        epoch = self._epoch
        deliver = healed + (latency if latency > epoch else epoch)
        if deliver <= self._drained_to:
            raise SimulationError(
                f"replica {origin} sent a message due at "
                f"t={deliver:.6f}, inside the barrier already drained "
                f"at t={self._drained_to:.6f}"
            )
        if healed != send_time:
            self.deferred_total += 1
        seq = self._next_seq.get(origin, 0)
        self._next_seq[origin] = seq + 1
        heappush(self._pending, _new_message(
            BusMessage, (deliver, origin, seq, target, kind, payload)))
        self.sent_total += 1

    def _heal_time(self, origin: int, target: int, time: float) -> float:
        """When a message sent at ``time`` gets across: a blocked one is
        retransmitted as its partition heals, and that retransmission
        meets whichever partitions are active by then."""
        blocked = True
        while blocked:
            blocked = False
            for partition in self._partitions:
                if partition.active_at(time) and \
                        partition.crosses(origin, target):
                    time = partition.end
                    blocked = True
        return time

    # -- Barrier draining ---------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def earliest(self) -> float | None:
        """Earliest pending delivery time, or None when drained."""
        if not self._pending:
            return None
        return self._pending[0].deliver_time

    def drain_until(self, horizon: float) -> list[BusMessage]:
        """Messages due at or before ``horizon``, in total-key order."""
        pending = self._pending
        due: list[BusMessage] = []
        while pending and pending[0].deliver_time <= horizon:
            due.append(heappop(pending))
        self._drained_to = max(self._drained_to, horizon)
        return due

    def stats(self) -> dict[str, Any]:
        return {
            "sent": self.sent_total,
            "deferred": self.deferred_total,
            "pending": len(self._pending),
        }

"""World replicas: the only holders of mutable world state.

A :class:`WorldReplica` owns three things and nothing else:

* **feeds** — per-cohort message-id sequences, the replica's view of
  each cohort's timeline.  Entries are kept sorted by
  ``(arrival_time, message_id)`` — a value key — so a read observes
  the same sequence whatever order same-time deliveries happened to
  interleave in the hosting shard's simulator;
* **cohorts** — the :class:`~repro.world.buffers.CohortBuffer` for
  every cohort *homed* here (the writer's replica assembles the
  trace); remote readers ship their op records across the bus;
* **retired** — cohorts whose trace already flushed; late rumors for
  them are dropped instead of resurrecting feeds, so *feeds and
  buffers* track the open cohort population (the set itself keeps one
  key per closed cohort and is not part of :meth:`state_size`).

A replica never touches another replica, another shard, or another
simulator: every cross-replica effect is a
:meth:`~repro.world.bus.WorldBus.send`.  That discipline is machine-
checked by lint rule DET007 — reaching through a shard collection
bypasses the bus total order and breaks byte-identity.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Callable

from repro.sim import RandomSource
from repro.world.buffers import CohortBuffer
from repro.world.bus import BusMessage, Outbox, WorldBus
from repro.world.spec import WorldSpec

__all__ = ["WorldReplica", "cohort_key"]


def cohort_key(cohort: int) -> str:
    """The feed key every session of ``cohort`` reads and writes."""
    return f"c{cohort}"


class WorldReplica:
    """One logical replica's slice of the world."""

    __slots__ = ("index", "spec", "feeds", "cohorts", "retired",
                 "closed", "_clock", "_send", "_hop", "_ship", "_mu",
                 "_successors", "_peers")

    def __init__(self, index: int, spec: WorldSpec,
                 bus: WorldBus | Outbox,
                 rng: RandomSource,
                 clock: Callable[[], float]) -> None:
        self.index = index
        self.spec = spec
        #: cohort key -> sorted [( (arrival, message_id), message_id )].
        self.feeds: dict[str, list[tuple[tuple[float, str], str]]] = {}
        #: cohort id -> buffer, for cohorts homed on this replica.
        self.cohorts: dict[int, CohortBuffer] = {}
        self.retired: set[str] = set()
        #: (close_time, cohort_id, buffer) drained at each barrier.
        self.closed: list[tuple[float, int, CohortBuffer]] = []
        self._clock = clock
        # Resolved once: the bus entry, the two latency draws and
        # their location, relay successors, retirement targets.
        self._send = bus.send
        self._hop = rng.stream("hop").lognormvariate
        self._ship = rng.stream("ship").lognormvariate
        self._mu = math.log(spec.hop_median)
        width = spec.replicas
        self._successors = tuple(
            (index + step) % width
            for step in range(1, min(spec.fanout, width - 1) + 1))
        self._peers = tuple(target for target in range(width)
                            if target != index)

    # -- Feed maintenance ---------------------------------------------

    def _feed_insert(self, key: str, arrival: float,
                     message_id: str) -> bool:
        """Insert into the sorted feed; False if already present."""
        if key in self.retired:
            return False
        entry = ((arrival, message_id), message_id)
        feed = self.feeds.get(key)
        if feed is None:
            self.feeds[key] = [entry]
            return True
        for _, present in feed:
            if present == message_id:
                return False
        insort(feed, entry)
        return True

    def observe_feed(self, key: str) -> tuple[str, ...]:
        """The message-id sequence a read of ``key`` returns now."""
        feed = self.feeds.get(key)
        if not feed:
            return ()
        return tuple(message_id for _, message_id in feed)

    # -- Rumor dissemination (author-sharded ring relay) ---------------

    def _relay(self, key: str, message_id: str, arrival: float) -> None:
        """Forward a first-seen rumor to this replica's ring successors.

        Fanout walks the replica ring from this replica (homes come
        from :func:`repro.world.spec.author_shard`); latency draws
        come from this replica's own stream so draw order — and
        therefore every value — is independent of how replicas share
        shard simulators.
        """
        send, draw, index = self._send, self._hop, self.index
        mu, sigma = self._mu, self.spec.hop_sigma
        payload = (key, message_id)
        for target in self._successors:
            send(origin=index, target=target, send_time=arrival,
                 latency=draw(mu, sigma), kind="rumor",
                 payload=payload)

    # -- Session operations (invoked by the engine's session events) ---

    def local_write(self, cohort: int, key: str, agent: str,
                    message_id: str, invoke: float) -> None:
        """Apply a homed writer's write and start disseminating it."""
        response = invoke + self.spec.service_time
        if self._feed_insert(key, response, message_id):
            self._relay(key, message_id, response)
        self._record_write(cohort, agent, message_id, invoke, response)

    def local_read(self, cohort: int, key: str, home: int, agent: str,
                   invoke: float) -> None:
        """Serve a read from this replica's feed; ship the record home."""
        response = invoke + self.spec.service_time
        observed = self.observe_feed(key)
        if home == self.index:
            self._record_read(cohort, agent, observed, invoke, response)
            return
        self._send(
            origin=self.index, target=home, send_time=response,
            latency=self._ship(self._mu, self.spec.hop_sigma),
            kind="record",
            payload=(cohort, agent, observed, invoke, response),
        )

    # -- Bus delivery -------------------------------------------------

    def deliver(self, message: BusMessage) -> None:
        """Bus delivery entry point (scheduled by the engine)."""
        arrival, _origin, _seq, _target, kind, payload = message
        if kind == "rumor":
            key, message_id = payload
            if self._feed_insert(key, arrival, message_id):
                self._relay(key, message_id, arrival)
        elif kind == "record":
            self._record_read(*payload)
        elif kind == "retire":
            (key,) = payload
            self.feeds.pop(key, None)
            self.retired.add(key)
        else:  # pragma: no cover - protocol misuse guard
            raise ValueError(f"unknown bus message kind {kind!r}")

    # -- Cohort assembly (home replica only) ---------------------------

    def open_cohort(self, cohort: int, expected: int) -> None:
        self.cohorts[cohort] = CohortBuffer(cohort, expected)

    def _record_write(self, cohort: int, agent: str, message_id: str,
                      invoke: float, response: float) -> None:
        buffer = self.cohorts[cohort]
        buffer.add_write(agent, message_id, invoke, response)
        self._maybe_close(cohort, buffer)

    def _record_read(self, cohort: int, agent: str,
                     observed: tuple[str, ...], invoke: float,
                     response: float) -> None:
        buffer = self.cohorts[cohort]
        buffer.add_read(agent, observed, invoke, response)
        self._maybe_close(cohort, buffer)

    def _maybe_close(self, cohort: int, buffer: CohortBuffer) -> None:
        if not buffer.complete:
            return
        close_time = self._clock()
        del self.cohorts[cohort]
        key = cohort_key(cohort)
        self.feeds.pop(key, None)
        self.retired.add(key)
        send, index, epoch = self._send, self.index, self.spec.epoch
        payload = (key,)
        for target in self._peers:
            send(origin=index, target=target, send_time=close_time,
                 latency=epoch, kind="retire", payload=payload)
        self.closed.append((close_time, cohort, buffer))

    def drain_closed(self) -> list[tuple[float, int, CohortBuffer]]:
        """Hand retired cohorts to the barrier flush; clears the list."""
        drained = self.closed
        self.closed = []
        return drained

    def state_size(self) -> int:
        """Open-state footprint: feed entries + buffered ops."""
        return (sum(len(feed) for feed in self.feeds.values())
                + sum(len(buffer)
                      for buffer in self.cohorts.values()))

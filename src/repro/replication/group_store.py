"""Geo-pair store with truncated-timestamp ordering (Facebook Group).

The paper's findings for Facebook Group (§V) imply a quite specific
design, which this module implements:

* **No read-your-writes violations, near-zero monotonic-reads /
  writes-follow-reads, no order divergence** — the service is close to
  strongly consistent.  We model *commit-time visibility*: a write
  accepted at either replica becomes visible at **both** replicas at
  the same scheduled instant (``origin_ts + commit_delay``), and the
  writer is acknowledged only at that instant.  Because visibility is
  driven by the (NTP-disciplined) service clocks rather than message
  arrival, the two replicas' views agree except when replication is
  late — so steady-state divergence is essentially zero, yet each
  replica remains *available*: it never waits for the peer to accept a
  write.
* **Monotonic-writes violations in 93% of tests** — events carry a
  creation timestamp with one-second precision, and two writes in the
  same second are deterministically observed in *reverse* order by
  every agent (:func:`~repro.replication.ordering.second_truncated_key`).
* **15 content-divergence occurrences, 9 during one stretch in which
  the Tokyo agent could not see the other agents' operations** — the
  Tokyo agent talks to a follower replica.  During a partition the
  replicas keep accepting writes locally (AP behaviour) and diverge
  until periodic anti-entropy heals them; the remaining occurrences
  come from rare replication *lag spikes* that push a write's arrival
  past its commit-visibility instant.

Replication between the two replicas uses the simulated network, so a
:class:`~repro.net.partition.FaultInjector` window between the two
hosts reproduces the Tokyo incident verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.net.network import Message, Network
from repro.replication.ordering import second_truncated_key
from repro.replication.store import VersionedStore, check_params
from repro.sim.event_loop import Simulator
from repro.sim.future import Future
from repro.sim.random_source import RandomSource

__all__ = ["GroupStoreParams", "GroupReplica", "GeoGroupStore"]


@dataclass(frozen=True)
class GroupStoreParams:
    """Tunables for the Facebook-Group substrate."""

    #: Seconds after a write's origin timestamp at which it becomes
    #: visible — simultaneously — at both replicas, and the writer is
    #: acknowledged.  Must exceed the inter-replica one-way latency for
    #: the common case to be divergence-free.
    commit_delay: float = 0.20
    #: Probability one replication transfer hits a heavy-tail stall —
    #: the source of the handful of non-partition divergence events.
    lag_spike_prob: float = 0.002
    #: Mean of the exponential stall duration (seconds).
    lag_spike_mean: float = 5.0
    #: Probability a read is served from a slightly stale snapshot —
    #: the source of the paper's one-off monotonic-reads /
    #: writes-follow-reads observations.
    stale_read_prob: float = 0.0004
    #: How stale such a glitched read is (seconds).
    stale_read_age: float = 1.5
    #: Anti-entropy cadence used to heal after partitions (seconds).
    antientropy_interval: float = 2.0
    #: Version/entry retention horizon (seconds).
    retention: float = 600.0

    def __post_init__(self) -> None:
        check_params(
            self,
            probabilities=("lag_spike_prob", "stale_read_prob"),
            positive=("commit_delay", "lag_spike_mean", "stale_read_age",
                      "antientropy_interval", "retention"),
        )


class GroupReplica:
    """One replica of the group store (primary or follower).

    Both replicas run identical code: each accepts writes from its
    local clients, applies every write at its commit-visibility
    instant, orders everything by the truncated-timestamp key, and
    streams its locally-accepted writes to the peer.
    """

    def __init__(self, sim: Simulator, network: Network, host: str,
                 rng: RandomSource, params: GroupStoreParams) -> None:
        self._sim = sim
        self._network = network
        self._rng = rng
        self._params = params
        self.host = host
        self._store = VersionedStore(
            now_fn=lambda: sim.now, retention=params.retention
        )
        #: Writes accepted locally, kept for anti-entropy re-offers.
        #: Records are (message_id, author, origin_ts, tie_seq,
        #: visible_at).
        self._local_writes: list[tuple[str, str, float, int, float]] = []
        self._tie_counter = 0
        self._peer: str | None = None
        network.attach(host, message_handler=self._on_message)
        sim.schedule_after(params.antientropy_interval, self._antientropy)

    def set_peer(self, peer_host: str) -> None:
        self._peer = peer_host

    @property
    def store(self) -> VersionedStore:
        return self._store

    # -- Writes -----------------------------------------------------------

    def accept_write(self, message_id: str, author: str) -> Future:
        """Accept a client write; resolves to origin_ts at visibility.

        The write becomes visible locally at ``origin_ts +
        commit_delay`` and — replication permitting — at the peer at
        the same instant; the returned future (the writer's ack)
        resolves then too.
        """
        origin_ts = self._sim.now
        tie_seq = self._next_tie_seq(origin_ts)
        visible_at = origin_ts + self._params.commit_delay
        record = (message_id, author, origin_ts, tie_seq, visible_at)
        self._local_writes.append(record)
        self._sim.schedule_at(
            visible_at, self._apply, message_id, author, origin_ts,
            tie_seq,
        )
        if self._peer is not None:
            send_delay = 0.0
            if self._rng.bernoulli(f"spike.{self.host}",
                                   self._params.lag_spike_prob):
                send_delay = self._rng.exponential(
                    f"spike.{self.host}.len",
                    self._params.lag_spike_mean,
                )
            self._sim.schedule_after(
                send_delay, self._network.send, self.host, self._peer,
                {"kind": "replicate", "writes": [record]},
            )
        ack: Future = Future(name=f"group.write.{message_id}")
        self._sim.schedule_at(visible_at, ack.resolve, origin_ts)
        return ack

    def _next_tie_seq(self, origin_ts: float) -> int:
        """Globally comparable tie sequence for same-second ordering.

        Derived from the timestamp's milliseconds so both replicas
        order same-second bursts identically regardless of acceptance
        site — the paper observed the reversed order *consistently
        across all agents*.
        """
        self._tie_counter += 1
        return int(origin_ts * 1000) * 16 + (self._tie_counter % 16)

    def _apply(self, message_id: str, author: str, origin_ts: float,
               tie_seq: int) -> None:
        self._store.insert(
            message_id, author, origin_ts,
            sort_key=second_truncated_key(origin_ts, tie_seq, message_id),
        )

    # -- Replication / anti-entropy -----------------------------------------

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if payload.get("kind") != "replicate":
            return
        for message_id, author, origin_ts, tie_seq, visible_at in (
                payload["writes"]):
            if self._store.contains(message_id):
                continue
            if visible_at <= self._sim.now:
                # Late (spike / healed partition): apply immediately.
                self._apply(message_id, author, origin_ts, tie_seq)
            else:
                self._sim.schedule_at(
                    visible_at, self._apply, message_id, author,
                    origin_ts, tie_seq,
                )

    def _antientropy(self) -> None:
        """Periodically re-offer recent local writes to the peer.

        Idempotent applies make duplicate offers harmless; after a
        partition heals, the next exchange closes the gap.
        """
        if self._peer is not None and self._local_writes:
            horizon = self._sim.now - self._params.retention
            self._local_writes = [
                record for record in self._local_writes
                if record[2] >= horizon
            ]
            if self._local_writes:
                self._network.send(
                    self.host, self._peer,
                    {"kind": "replicate",
                     "writes": list(self._local_writes)},
                )
        self._sim.schedule_after(self._params.antientropy_interval,
                                 self._antientropy)

    # -- Reads ------------------------------------------------------------

    def read(self) -> tuple[str, ...]:
        """Serve one read, rarely from a slightly stale snapshot."""
        now = self._sim.now
        if self._rng.bernoulli(f"groupstale.{self.host}",
                               self._params.stale_read_prob):
            return self._store.view_at(now - self._params.stale_read_age)
        return self._store.view_at(now)


class GeoGroupStore:
    """The two-replica group deployment plus client routing."""

    def __init__(self, sim: Simulator, network: Network,
                 rng: RandomSource, params: GroupStoreParams,
                 primary_host: str, follower_host: str) -> None:
        self.primary = GroupReplica(
            sim, network, primary_host, rng.child("primary"), params
        )
        self.follower = GroupReplica(
            sim, network, follower_host, rng.child("follower"), params
        )
        self.primary.set_peer(follower_host)
        self.follower.set_peer(primary_host)
        self._home: dict[str, GroupReplica] = {}

    def route(self, client: str, to_follower: bool) -> None:
        """Pin ``client`` to the follower (True) or primary (False)."""
        self._home[client] = self.follower if to_follower else self.primary

    def replica_for(self, client: str) -> GroupReplica:
        try:
            return self._home[client]
        except KeyError:
            raise ConfigurationError(
                f"client {client!r} has not been routed"
            ) from None

    def write(self, client: str, message_id: str) -> Future:
        """Accept a write for ``client``; acks at commit visibility."""
        return self.replica_for(client).accept_write(message_id, client)

    def read(self, client: str) -> tuple[str, ...]:
        return self.replica_for(client).read()

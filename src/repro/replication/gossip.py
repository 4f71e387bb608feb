"""Gossip / anti-entropy replication (the scenario DSL's first new
archetype).

The paper's services are modelled as hub-and-spoke substrates (primary
plus followers, datacenter pairs with log shipping).  Gossip stores —
Dynamo-style hinted handoff rings, Cassandra, Scuttlebutt-family
systems — replicate differently: every replica accepts writes locally
and *rumors* them to a few random peers each round; peers forward
fresh rumors onward, so an update spreads epidemically in O(log n)
rounds without any distinguished node.  Periodic full anti-entropy
exchanges guarantee convergence even when rumor rounds are lost to
partitions.

This module implements that archetype over the same deterministic
substrate primitives the rest of the repository uses:

* A :class:`GossipReplica` accepts writes locally (immediately visible
  at that replica), inserts them in canonical timestamp order
  (:func:`~repro.replication.ordering.timestamp_key`), and every
  ``gossip_interval`` pushes its fresh writes to ``fanout`` peers
  chosen via a named :class:`~repro.sim.random_source.RandomSource`
  stream.  A replica that learns a write from a rumor re-rumors it
  exactly once — the epidemic forwarding that makes a small fanout
  reach every replica.
* Every ``antientropy_interval`` each replica re-offers its whole
  retained log to all peers; inserts are idempotent (and deduplicated
  by message id), so re-offers are harmless when rumors already landed
  and heal the gap after a partition.
* Reads are served from the local replica's
  :class:`~repro.replication.store.VersionedStore` view — stale until
  rumors arrive, which is what produces the content-divergence windows
  a campaign measures.  With probability ``read_lb_prob`` a read is
  load-balanced to a uniformly random replica instead of the client's
  home one (a geo load balancer failing over), the session-anomaly
  source: a client can miss its own just-written update.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.net.network import Message, Network
from repro.replication.ordering import timestamp_key
from repro.replication.store import VersionedStore, check_params
from repro.sim.event_loop import Simulator
from repro.sim.random_source import RandomSource

__all__ = ["GossipParams", "GossipReplica", "GossipGroup"]


@dataclass(frozen=True)
class GossipParams:
    """Tunables of the gossip substrate (one value set for the ring)."""

    #: Rumor round cadence in seconds.
    gossip_interval: float = 0.25
    #: Peers contacted per rumor round.
    fanout: int = 1
    #: Median / log-sigma of the per-rumor processing delay added on
    #: top of the network one-way latency (seconds).
    rumor_delay_median: float = 0.15
    rumor_delay_sigma: float = 0.6
    #: Cadence of full anti-entropy re-offers (partition healing).
    antientropy_interval: float = 5.0
    #: Only writes older than this are re-offered, so anti-entropy
    #: heals partitions without masking the rumor path's delays.
    antientropy_min_age: float = 8.0
    #: Probability a read is served by a uniformly random replica
    #: instead of the client's home one (geo load-balancer failover) —
    #: the read-your-writes / monotonic-reads source.
    read_lb_prob: float = 0.0
    #: Version/entry retention horizon (seconds).
    retention: float = 600.0

    def __post_init__(self) -> None:
        check_params(
            self,
            probabilities=("read_lb_prob",),
            positive=("gossip_interval", "rumor_delay_median",
                      "antientropy_interval", "antientropy_min_age",
                      "retention"),
            sigmas=("rumor_delay_sigma",),
            counts=("fanout",),
        )


class GossipReplica:
    """One node of a gossip-replicated store."""

    def __init__(self, sim: Simulator, network: Network, host: str,
                 rng: RandomSource, params: GossipParams) -> None:
        self._sim = sim
        self._network = network
        self._rng = rng
        self._params = params
        self.host = host
        self._store = VersionedStore(
            now_fn=lambda: sim.now, retention=params.retention
        )
        #: Writes (accepted locally or freshly learned) awaiting their
        #: one rumor round: (message_id, author, origin_ts).
        self._rumor_queue: list[tuple[str, str, float]] = []
        #: Everything this replica knows within retention, re-offered
        #: by anti-entropy: (message_id, author, origin_ts).
        self._log: list[tuple[str, str, float]] = []
        self._peers: list[str] = []
        network.attach(host, message_handler=self._on_message)
        sim.schedule_after(params.gossip_interval, self._rumor_round)
        sim.schedule_after(params.antientropy_interval,
                           self._antientropy)

    # -- Wiring ---------------------------------------------------------

    def add_peer(self, peer_host: str) -> None:
        """Register a peer replica to gossip with."""
        if peer_host != self.host and peer_host not in self._peers:
            self._peers.append(peer_host)

    @property
    def store(self) -> VersionedStore:
        return self._store

    # -- Writes -----------------------------------------------------------

    def accept_write(self, message_id: str, author: str) -> float:
        """Accept a client write locally; returns its origin_ts."""
        origin_ts = self._sim.now
        obs = self._network.obs
        if obs is not None:
            obs.metrics.counter("replication.writes_total",
                                host=self.host).inc()
        self._ingest(message_id, author, origin_ts)
        return origin_ts

    def _ingest(self, message_id: str, author: str,
                origin_ts: float) -> bool:
        """Insert a write if new; queue it for one rumor round."""
        if self._store.contains(message_id):
            return False
        self._store.insert(
            message_id, author, origin_ts,
            sort_key=timestamp_key(origin_ts, 0, message_id),
        )
        record = (message_id, author, origin_ts)
        self._rumor_queue.append(record)
        self._log.append(record)
        return True

    # -- Rumor rounds -----------------------------------------------------

    def _rumor_round(self) -> None:
        if self._rumor_queue and self._peers:
            batch, self._rumor_queue = self._rumor_queue, []
            for peer in self._pick_peers():
                delay = self._sample_rumor_delay(peer)
                self._sim.schedule_after(
                    delay, self._network.send, self.host, peer,
                    {"kind": "gossip", "writes": list(batch)},
                )
        elif self._rumor_queue:
            self._rumor_queue = []
        self._sim.schedule_after(self._params.gossip_interval,
                                 self._rumor_round)

    def _pick_peers(self) -> list[str]:
        """Choose ``fanout`` distinct peers for this round."""
        count = min(self._params.fanout, len(self._peers))
        stream = self._rng.stream(f"gossip.{self.host}")
        remaining = list(self._peers)
        chosen: list[str] = []
        for _ in range(count):
            chosen.append(
                remaining.pop(stream.randrange(len(remaining)))
            )
        return chosen

    def _sample_rumor_delay(self, peer: str) -> float:
        base = self._network.latency.topology.one_way(self.host, peer)
        jitter = self._rng.lognormal(
            f"rumor.{self.host}->{peer}",
            median=self._params.rumor_delay_median,
            sigma=self._params.rumor_delay_sigma,
        )
        return base + jitter

    # -- Anti-entropy ------------------------------------------------------

    def _antientropy(self) -> None:
        """Re-offer the retained log to every peer (heals partitions)."""
        obs = self._network.obs
        if obs is not None:
            obs.metrics.counter(
                "replication.antientropy_rounds_total",
                host=self.host,
            ).inc()
        horizon = self._sim.now - self._params.retention
        self._log = [record for record in self._log
                     if record[2] >= horizon]
        aged = [record for record in self._log
                if record[2] <= self._sim.now
                - self._params.antientropy_min_age]
        if aged:
            for peer in self._peers:
                self._sim.schedule_after(
                    0.0, self._network.send, self.host, peer,
                    {"kind": "gossip", "writes": list(aged)},
                )
        self._sim.schedule_after(self._params.antientropy_interval,
                                 self._antientropy)

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if payload.get("kind") != "gossip":
            return
        for message_id, author, origin_ts in payload["writes"]:
            # Fresh rumors re-enter the queue, so they are forwarded
            # onward exactly once (epidemic spread).
            self._ingest(message_id, author, origin_ts)

    # -- Reads ------------------------------------------------------------

    def read(self) -> tuple[str, ...]:
        """Serve one read from this replica's current view."""
        return self._store.view_at(self._sim.now)


class GossipGroup:
    """A ring of gossip replicas plus the client-to-replica homes."""

    def __init__(self, sim: Simulator, network: Network,
                 rng: RandomSource, params: GossipParams,
                 replica_hosts: list[str]) -> None:
        if not replica_hosts:
            raise ConfigurationError("need at least one replica")
        self._rng = rng
        self._params = params
        self._hosts = list(replica_hosts)
        self._replicas: dict[str, GossipReplica] = {}
        for host in replica_hosts:
            self._replicas[host] = GossipReplica(
                sim, network, host, rng.child(host), params
            )
        for replica in self._replicas.values():
            for peer in replica_hosts:
                replica.add_peer(peer)

    def replica(self, host: str) -> GossipReplica:
        try:
            return self._replicas[host]
        except KeyError:
            raise ConfigurationError(
                f"unknown gossip replica {host!r}"
            ) from None

    def write_at(self, host: str, message_id: str,
                 author: str) -> float:
        """Accept a write at the named replica; returns origin_ts."""
        return self.replica(host).accept_write(message_id, author)

    def read_from(self, host: str) -> tuple[str, ...]:
        """Serve a read homed at ``host``, with optional LB failover.

        With probability ``read_lb_prob`` the read is answered by a
        uniformly random ring member instead (the geo load balancer
        sending the request elsewhere) — the session-anomaly source.
        """
        serving = self.replica(host)
        if self._params.read_lb_prob > 0.0 and len(self._hosts) > 1:
            if self._rng.bernoulli(f"lb.{host}",
                                   self._params.read_lb_prob):
                index = self._rng.stream(f"lb.{host}.pick").randrange(
                    len(self._hosts)
                )
                serving = self._replicas[self._hosts[index]]
        return serving.read()

"""Multi-datacenter eventual replication (the Google+ substrate).

The paper infers the following about Google+ from its measurements
(§V): content divergence is frequent (up to 85% of tests) and takes
seconds to resolve across most agent pairs; the Oregon and Tokyo agents
appear to share a datacenter (divergence between them is rarer and
resolves much faster); order divergence happens in ~14% of tests for
pairs involving Ireland but under 1% between Oregon and Tokyo, with
windows that can exceed ten seconds; and session guarantees are
violated at moderate rates (read-your-writes 22%, monotonic reads 25%,
monotonic writes 6%), consistent with reads being load-balanced over
backends that learn about writes at different times.

This module implements that inferred design:

* A :class:`DatacenterReplica` accepts local writes immediately,
  stamping them with its clock and inserting them in canonical
  (timestamp) order.
* **FIFO anti-entropy**: locally-accepted writes are batched and pushed
  to peer datacenters every ``sync_interval`` over the simulated
  network, with log-normal bulk-channel delays but *in-order delivery*
  per peer (real log shipping is ordered; unordered delivery would
  produce far more monotonic-writes violations than the paper saw).
  Partitions injected by :class:`~repro.net.partition.FaultInjector`
  block replication naturally; periodic full re-offers heal afterwards.
* **Canonical splice with occasional merge-stall episodes**: a write
  received from a peer normally splices directly into its canonical
  timestamp position, so the two datacenters agree on the order —
  order divergence is the *exception*.  With probability
  ``tail_insert_prob`` (per incoming batch) the datacenter enters a
  *merge stall*: for an exponential duration every remote write lands
  at the end of the order in arrival sequence, and when the stall ends
  all of them are repaired to canonical positions at once.  Stalls are
  episodic rather than per-message so that a session's consecutive
  writes are never split around the stall boundary — per-message tail
  insertion would manufacture monotonic-writes violations at a rate
  the paper's 6% figure rules out.  The probability is per-DC: the
  paper's numbers imply the anomaly essentially only appears on the
  Ireland-facing datacenter.
* **Stale backends**: each datacenter fronts ``backend_count`` read
  backends; every write becomes visible on each backend after an
  independent (usually zero, occasionally heavy-tailed) lag, and every
  read is served by a uniformly chosen backend.  This produces the
  read-your-writes / monotonic-reads / monotonic-writes violations and
  the intra-DC content divergence observed between Oregon and Tokyo.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from repro.errors import ConfigurationError
from repro.net.network import Message, Network
from repro.obs.metrics import Counter
from repro.replication.ordering import timestamp_key
from repro.replication.store import (
    DoublingPrune,
    VersionedStore,
    check_params,
)
from repro.sim.event_loop import Simulator
from repro.sim.random_source import RandomSource

__all__ = ["EventualParams", "DatacenterReplica", "EventualGroup"]

#: A ``(message_id, author, origin_ts)`` log record's timestamp.
_ORIGIN_TS = itemgetter(2)


@dataclass(frozen=True)
class EventualParams:
    """Tunables for one datacenter of the eventual substrate."""

    #: Anti-entropy batch cadence in seconds.
    sync_interval: float = 0.4
    #: Median / log-sigma of the bulk replication channel delay added
    #: on top of the network one-way latency (seconds).  The heavy
    #: tail is what makes some tests take tens of seconds to converge.
    sync_delay_median: float = 1.5
    sync_delay_sigma: float = 1.3
    #: Read backends per datacenter.
    backend_count: int = 4
    #: Probability a given write is *slow* to reach a given backend.
    backend_lag_prob: float = 0.028
    #: Median / log-sigma of the slow backend-visibility lag (seconds).
    #: Short relative to the gap between a session's consecutive
    #: writes, so read-your-writes violations (early reads) are far
    #: more common than monotonic-writes violations (which need the
    #: first write still missing after the second became visible).
    backend_lag_median: float = 0.25
    backend_lag_sigma: float = 0.35
    #: Probability a write's fanout to a backend *stalls* (a failed
    #: job waiting for retry): visibility lags for seconds, spanning
    #: many read periods — the source of the paper's multi-occurrence
    #: read-your-writes/monotonic-writes tests (Figs. 4a, 5a).
    backend_verylag_prob: float = 0.004
    #: Mean of the exponential stalled-fanout lag (seconds).
    backend_verylag_mean: float = 4.0
    #: Probability one author's chunk of a replication round straggles
    #: behind the round (extra exponential delay).  Chunks are shipped
    #: per author, so a straggler lets a *reaction* (another author's
    #: later write) overtake the message it reacted to — the
    #: writes-follow-reads mechanism — without ever reordering one
    #: author's own writes (which would violate the paper's low
    #: monotonic-writes rate).
    straggler_prob: float = 0.06
    #: Mean extra delay of a straggling author chunk (seconds).
    straggler_extra_mean: float = 4.0
    #: Probability a read is served from a *stale snapshot* — an older
    #: consistent state of the datacenter.  This is the
    #: monotonic-reads mechanism: recently-ingested writes vanish
    #: together (a consistent regression), so the session-order of any
    #: writer is preserved and monotonic-writes stays rare, exactly
    #: the asymmetry the paper measured (MR 25% vs MW 6%).
    stale_snapshot_prob: float = 0.016
    #: Mean age of a stale snapshot (exponential, seconds).
    stale_snapshot_age_mean: float = 0.9
    #: Probability that an incoming replication batch starts a merge
    #: stall, during which remote writes land at the tail of the order
    #: (per-DC; the order-divergence source).
    tail_insert_prob: float = 0.0
    #: Mean of the exponential merge-stall duration, i.e. how long
    #: tail-inserted writes wait before being repaired to canonical
    #: positions.
    repair_delay_mean: float = 6.0
    #: Cadence of full anti-entropy re-offers, which make replication
    #: eventually succeed across partitions (seconds).
    antientropy_interval: float = 5.0
    #: Only writes older than this are re-offered — anti-entropy heals
    #: partitions but must not race (and thereby mask) the regular
    #: replication path's delays.
    antientropy_min_age: float = 12.0
    #: Probability that a write's backend visibility may violate the
    #: author's session order.  Fanout pipelines consume each author's
    #: writes in order, so a later write almost never becomes visible
    #: on a backend before an earlier write of the same author — this
    #: residual probability is the paper's 6% monotonic-writes source.
    session_order_violation_prob: float = 0.18
    #: Version/entry retention horizon (seconds).
    retention: float = 600.0

    def __post_init__(self) -> None:
        check_params(
            self,
            probabilities=("backend_lag_prob", "backend_verylag_prob",
                           "straggler_prob", "stale_snapshot_prob",
                           "tail_insert_prob",
                           "session_order_violation_prob"),
            positive=("sync_interval", "sync_delay_median",
                      "backend_lag_median", "backend_verylag_mean",
                      "straggler_extra_mean", "stale_snapshot_age_mean",
                      "repair_delay_mean", "antientropy_interval",
                      "antientropy_min_age", "retention"),
            sigmas=("sync_delay_sigma", "backend_lag_sigma"),
            counts=("backend_count",),
        )


class DatacenterReplica:
    """One datacenter of an eventually-replicated service."""

    def __init__(self, sim: Simulator, network: Network, host: str,
                 rng: RandomSource, params: EventualParams) -> None:
        self._sim = sim
        self._network = network
        self._rng = rng
        self._params = params
        self.host = host
        self._store = VersionedStore(
            now_fn=lambda: sim.now, retention=params.retention
        )
        #: message_id -> per-backend time from which the write is
        #: visible on that backend.
        self._backend_visible: dict[str, list[float]] = {}
        self._prune_backend_visible = DoublingPrune(4096)
        #: (author, backend) -> latest visible_from so far; enforces
        #: per-author session order in backend visibility.
        self._author_floor: dict[tuple[str, int], float] = {}
        #: Writes accepted here and not yet shipped to peers.
        self._outbox: list[tuple[str, str, float]] = []
        #: All locally-accepted writes within retention, re-offered by
        #: anti-entropy so partitions only delay replication.  Appended
        #: at the accepting instant, so it is in ``origin_ts`` order.
        self._local_log: list[tuple[str, str, float]] = []
        #: ``replication.writes_total`` / ``antientropy_rounds_total``
        #: for this host, resolved at first use (when instrumented).
        self._writes_total: Counter | None = None
        self._rounds_total: Counter | None = None
        self._peers: list[str] = []
        #: Per-(peer, author) earliest allowed arrival (FIFO shipping
        #: of each author's session).
        self._fifo_floor: dict[tuple[str, str], float] = {}
        #: Per-peer earliest allowed arrival for non-straggling chunks:
        #: the log stream is globally FIFO except for stragglers.
        self._round_floor: dict[str, float] = {}
        #: Merge-stall state: until when, and which writes await repair.
        self._stall_until = float("-inf")
        self._stalled: list[tuple[str, tuple]] = []
        network.attach(host, message_handler=self._on_message)
        sim.schedule_after(params.sync_interval, self._flush_outbox)
        sim.schedule_after(params.antientropy_interval, self._antientropy)

    # -- Wiring ---------------------------------------------------------

    def add_peer(self, peer_host: str) -> None:
        """Register a peer datacenter to replicate to."""
        if peer_host != self.host and peer_host not in self._peers:
            self._peers.append(peer_host)

    @property
    def store(self) -> VersionedStore:
        return self._store

    # -- Writes -----------------------------------------------------------

    def accept_write(self, message_id: str, author: str) -> float:
        """Accept a client write at this DC; returns its origin_ts.

        DC clocks are NTP-disciplined, so the stamp is ground truth.
        """
        origin_ts = self._sim.now
        obs = self._network.obs
        if obs is not None:
            counter = self._writes_total
            if counter is None:
                counter = self._writes_total = obs.metrics.counter(
                    "replication.writes_total", host=self.host)
            counter.inc()
        self._store.insert(
            message_id, author, origin_ts,
            sort_key=timestamp_key(origin_ts, 0, message_id),
        )
        self._sample_backend_visibility(message_id, author)
        self._outbox.append((message_id, author, origin_ts))
        self._local_log.append((message_id, author, origin_ts))
        return origin_ts

    def _flush_outbox(self) -> None:
        if self._outbox:
            batch, self._outbox = self._outbox, []
            chunks = self._chunk_by_author(batch)
            for peer in self._peers:
                round_delay = self._sample_sync_delay(peer)
                for author, chunk in chunks:
                    delay = round_delay
                    stream = f"straggler.{self.host}->{peer}"
                    straggles = self._rng.bernoulli(
                        stream, self._params.straggler_prob
                    )
                    if straggles:
                        delay += self._rng.exponential(
                            stream + ".len",
                            self._params.straggler_extra_mean,
                        )
                    self._ship_chunk(peer, author, chunk, delay,
                                     straggles)
        self._sim.schedule_after(self._params.sync_interval,
                                 self._flush_outbox)

    @staticmethod
    def _chunk_by_author(
        batch: list[tuple[str, str, float]],
    ) -> list[tuple[str, list[tuple[str, str, float]]]]:
        """Group a flush round's writes by author, preserving order."""
        chunks: dict[str, list[tuple[str, str, float]]] = {}
        for record in batch:
            chunks.setdefault(record[1], []).append(record)
        return sorted(chunks.items())

    def _antientropy(self) -> None:
        """Re-offer all retained local writes to every peer.

        Inserts are idempotent on the receiving side, so re-offers are
        harmless when replication already succeeded and heal the gap
        when a partition dropped the original batch.
        """
        obs = self._network.obs
        if obs is not None:
            counter = self._rounds_total
            if counter is None:
                counter = self._rounds_total = obs.metrics.counter(
                    "replication.antientropy_rounds_total",
                    host=self.host)
            counter.inc()
        log = self._local_log
        # The log is in origin_ts order: trim and cut it by bisection.
        del log[:bisect_left(log, self._sim.now - self._params.retention,
                             key=_ORIGIN_TS)]
        aged = log[:bisect_right(
            log, self._sim.now - self._params.antientropy_min_age,
            key=_ORIGIN_TS)]
        if aged:
            for peer in self._peers:
                # Plain re-offer: no FIFO floor needed — the receiver
                # ignores writes it already has, and a full log is
                # internally ordered.
                self._sim.schedule_after(
                    0.0, self._network.send, self.host, peer,
                    {"kind": "replicate", "writes": list(aged)},
                )
        self._sim.schedule_after(self._params.antientropy_interval,
                                 self._antientropy)

    def _ship_chunk(self, peer: str, author: str,
                    chunk: list[tuple[str, str, float]],
                    delay: float, straggles: bool) -> None:
        """Ship one author's chunk with FIFO ordering rules.

        The log stream to a peer is globally FIFO — chunks never
        overtake each other — *except* for straggling chunks, which may
        fall behind the stream (letting other authors' later writes
        overtake them) but still never overtake or get overtaken by
        their own author's chunks.
        """
        arrival = self._sim.now + delay
        author_key = (peer, author)
        floor = self._fifo_floor.get(author_key, 0.0)
        if not straggles:
            floor = max(floor, self._round_floor.get(peer, 0.0))
        if arrival < floor:
            delay += floor - arrival
            arrival = floor
        self._fifo_floor[author_key] = arrival + 1e-6
        if not straggles:
            self._round_floor[peer] = max(
                self._round_floor.get(peer, 0.0), arrival + 1e-6
            )
        self._sim.schedule_after(
            delay, self._network.send, self.host, peer,
            {"kind": "replicate", "writes": chunk},
        )

    def _sample_sync_delay(self, peer: str) -> float:
        base = self._network.latency.topology.one_way(self.host, peer)
        jitter = self._rng.lognormal(
            f"sync.{self.host}->{peer}",
            median=self._params.sync_delay_median,
            sigma=self._params.sync_delay_sigma,
        )
        return base + jitter

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if payload.get("kind") != "replicate":
            return
        fresh = [(mid, author, origin_ts)
                 for mid, author, origin_ts in payload["writes"]
                 if not self._store.contains(mid)]
        if not fresh:
            return
        self._maybe_start_stall()
        for message_id, author, origin_ts in fresh:
            self._ingest_remote(message_id, author, origin_ts)

    def _maybe_start_stall(self) -> None:
        """Possibly enter a merge-stall episode for this batch onward."""
        if self._sim.now < self._stall_until:
            return  # already stalled
        stream = f"stall.{self.host}"
        if not self._rng.bernoulli(stream,
                                   self._params.tail_insert_prob):
            return
        duration = self._rng.exponential(
            stream + ".len", self._params.repair_delay_mean
        )
        self._stall_until = self._sim.now + duration
        self._sim.schedule_after(duration, self._end_stall)

    def _end_stall(self) -> None:
        """Repair every stalled write to its canonical position."""
        if self._sim.now < self._stall_until:
            return  # a newer, longer stall superseded this end event
        stalled, self._stalled = self._stalled, []
        for message_id, canonical in stalled:
            self._store.reorder(message_id, canonical)

    def _ingest_remote(self, message_id: str, author: str,
                       origin_ts: float) -> None:
        if self._store.contains(message_id):
            return
        canonical = timestamp_key(origin_ts, 0, message_id)
        if self._sim.now < self._stall_until:
            # Stalled: appear at the tail in arrival order; the repair
            # to canonical position happens when the stall ends.
            self._store.insert(
                message_id, author, origin_ts,
                sort_key=(self._sim.now, f"{len(self._stalled):06d}",
                          message_id),
            )
            self._stalled.append((message_id, canonical))
        else:
            self._store.insert(message_id, author, origin_ts,
                               sort_key=canonical)
        self._sample_backend_visibility(message_id, author)

    # -- Backend visibility ----------------------------------------------

    def _sample_backend_visibility(self, message_id: str,
                                   author: str) -> None:
        now = self._sim.now
        stream = f"backend.{self.host}"
        visible: list[float] = []
        may_violate = self._rng.bernoulli(
            f"{stream}.violate",
            self._params.session_order_violation_prob,
        )
        for backend in range(self._params.backend_count):
            if self._rng.bernoulli(f"{stream}.verycoin",
                                   self._params.backend_verylag_prob):
                # Stalled fanout job: visible only after a retry,
                # seconds later (spans many read periods).
                lag = self._rng.exponential(
                    f"{stream}.verylag",
                    self._params.backend_verylag_mean,
                )
            elif self._rng.bernoulli(f"{stream}.coin",
                                     self._params.backend_lag_prob):
                lag = self._rng.lognormal(
                    f"{stream}.lag",
                    median=self._params.backend_lag_median,
                    sigma=self._params.backend_lag_sigma,
                )
            else:
                lag = 0.0
            visible_from = now + lag
            floor_key = (author, backend)
            floor = self._author_floor.get(floor_key, float("-inf"))
            if not may_violate:
                # Fanout consumes the author's writes in order: this
                # write cannot appear before its session predecessors.
                visible_from = max(visible_from, floor)
            self._author_floor[floor_key] = max(floor, visible_from)
            visible.append(visible_from)
        self._backend_visible[message_id] = visible
        horizon = now - self._params.retention
        self._prune_backend_visible(
            self._backend_visible,
            lambda visible: max(visible) < horizon,
        )

    # -- Reads ------------------------------------------------------------

    def read(self, newest: int | None = None) -> tuple[str, ...]:
        """Serve one read from a uniformly chosen backend.

        The backend's view is the DC's order filtered to the writes
        already visible on that backend; occasionally a backend serves
        an older consistent snapshot instead (stale_snapshot_prob).

        With ``newest=k`` the read returns only the last ``k`` ids of
        that view (still oldest first) and stops walking the view once
        it has them, so a one-page read costs the page, not the store.
        The ``lb`` / ``stale`` draws come first either way: the draw
        sequence does not depend on ``newest``.
        """
        now = self._sim.now
        backend = self._rng.stream(f"lb.{self.host}").randrange(
            self._params.backend_count
        )
        as_of = now
        if self._rng.bernoulli(f"stale.{self.host}",
                               self._params.stale_snapshot_prob):
            as_of = now - self._rng.exponential(
                f"stale.{self.host}.age",
                self._params.stale_snapshot_age_mean,
            )
        backend_visible = self._backend_visible
        view = self._store.view_at(as_of)
        wanted = len(view) if newest is None else newest
        served: list[str] = []
        for message_id in reversed(view):
            if len(served) == wanted:
                break
            # No visibility record means the entry predates it (e.g.
            # pruned): treat as fully propagated.
            visible = backend_visible.get(message_id)
            if visible is not None and as_of < visible[backend]:
                continue
            served.append(message_id)
        served.reverse()
        return tuple(served)


class EventualGroup:
    """A set of datacenter replicas plus the agent-to-DC home mapping.

    ``datacenters`` maps each DC host to its params; its order is the
    peer order, which fixes every replica's shipping order.
    """

    def __init__(self, sim: Simulator, network: Network,
                 rng: RandomSource,
                 datacenters: Mapping[str, EventualParams]) -> None:
        if not datacenters:
            raise ConfigurationError("need at least one datacenter")
        self._replicas: dict[str, DatacenterReplica] = {
            host: DatacenterReplica(sim, network, host, rng.child(host),
                                    params)
            for host, params in datacenters.items()
        }
        for replica in self._replicas.values():
            for peer in self._replicas:
                replica.add_peer(peer)
        self._home: dict[str, str] = {}

    def set_home(self, client: str, datacenter_host: str) -> None:
        """Route ``client``'s reads and writes to a datacenter."""
        if datacenter_host not in self._replicas:
            raise ConfigurationError(
                f"unknown datacenter {datacenter_host!r}"
            )
        self._home[client] = datacenter_host

    def replica_for(self, client: str) -> DatacenterReplica:
        """The datacenter serving ``client``."""
        try:
            return self._replicas[self._home[client]]
        except KeyError:
            raise ConfigurationError(
                f"client {client!r} has no home datacenter"
            ) from None

    def replica(self, host: str) -> DatacenterReplica:
        return self._replicas[host]

    def write(self, client: str, message_id: str) -> float:
        """Accept a write at the client's home DC; returns origin_ts."""
        return self.replica_for(client).accept_write(message_id, client)

    def read(self, client: str) -> tuple[str, ...]:
        """Serve a read from the client's home DC."""
        return self.replica_for(client).read()

"""The epoch-barrier world engine.

One :class:`WorldEngine` drives a whole partitioned world: every shard
owns a private :class:`~repro.sim.Simulator`, and the engine alternates
between letting the shard simulators run one epoch and draining the
:class:`~repro.world.bus.WorldBus` at the barrier in its lamport total
order.  The soundness argument, in one paragraph:

    Epochs are grid-aligned and the bus floor latency equals the
    epoch, so every message sent inside an epoch is deliverable only
    *after* the next barrier.  At each barrier the engine sequences all
    due messages by ``(deliver_time, origin_replica, origin_seq)`` —
    a key computed from logical replica identities and simulated times
    only — and schedules them into the target shards in that order.
    Within an epoch a replica touches nothing but its own state, so a
    shard's history is independent of which other replicas share its
    simulator.  Together: the world's observable history is a pure
    function of (spec-sans-topology, seed), which is exactly the
    byte-identity contract ``tools/gates.py world`` enforces.

Retired cohorts flush at the barrier too, sorted by
``(close_time, cohort_id)``, each replayed through one shared
:class:`~repro.stream.engine.StreamEngine` (horizon 1).  The engine
therefore holds at most one open streaming test at any instant, no
matter how many hundred thousand sessions the world carries — the
stream engine's bounded-memory discipline is what makes the scale
reachable at all.  Results are distilled on the spot into a running
signature (the same record encoding as
:func:`repro.fleet.digest.records_digest`) and aggregate tallies;
whole records are never accumulated.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.fleet.digest import canonical_json
from repro.io import record_to_dict
from repro.sim import RandomSource, Simulator
from repro.stream.engine import StreamEngine
from repro.stream.ingest import replay_trace
from repro.world.bus import WorldBus
from repro.world.model import WorldReplica, cohort_key
from repro.world.spec import WorldSpec

__all__ = ["WorldResult", "WorldEngine", "run_world"]


@dataclass
class WorldResult:
    """Distilled outcome of one world run (records never retained)."""

    spec_digest: str
    seed: int
    sessions: int
    replicas: int
    shards: int
    tests: int = 0
    ops: int = 0
    epochs: int = 0
    events_processed: int = 0
    bus_messages: int = 0
    bus_deferred: int = 0
    #: Anomaly-kind -> total observations across every cohort.
    anomalies: dict[str, int] = field(default_factory=dict)
    #: Running digest over record encodings in flush order — the
    #: byte-identity witness compared across shard counts.
    signature: str = ""
    #: Largest stream-engine state observed (bounded-memory witness).
    max_stream_state: int = 0
    #: Largest combined replica open state observed at a barrier.
    peak_open_state: int = 0

    def summary(self) -> dict:
        """JSON-safe summary (results/CLI/benchmark payloads)."""
        return {
            "spec_digest": self.spec_digest,
            "seed": self.seed,
            "sessions": self.sessions,
            "replicas": self.replicas,
            "shards": self.shards,
            "tests": self.tests,
            "ops": self.ops,
            "epochs": self.epochs,
            "events_processed": self.events_processed,
            "bus_messages": self.bus_messages,
            "bus_deferred": self.bus_deferred,
            "anomalies": dict(self.anomalies),
            "signature": self.signature,
            "max_stream_state": self.max_stream_state,
            "peak_open_state": self.peak_open_state,
        }


class WorldEngine:
    """Run one :class:`WorldSpec` to completion under a seed."""

    def __init__(self, spec: WorldSpec, seed: int = 0,
                 stream_engine: StreamEngine | None = None) -> None:
        self.spec = spec
        self.seed = int(seed)
        self._rng = RandomSource(self.seed).child(f"world.{spec.name}")
        self._bus = WorldBus(spec.epoch, spec.partitions)
        self._sims = [Simulator() for _ in range(spec.shards)]
        #: replica index -> (replica, its shard simulator's
        #: ``schedule_at``): the cut is consulted here and nowhere else.
        self._hosts = []
        for index in range(spec.replicas):
            sim = self._sims[spec.replica_shard(index)]
            self._hosts.append((WorldReplica(
                index, spec, self._bus,
                self._rng.child(f"replica.{index}"),
                (lambda hosting=sim: hosting.now),
            ), sim.schedule_at))
        self._replicas = [replica for replica, _ in self._hosts]
        #: Agent names by member index, shared by every cohort.
        self._agents = [f"s{member}"
                        for member in range(spec.cohort_size)]
        self._engine = (stream_engine if stream_engine is not None
                        else StreamEngine(horizon=1))
        self._hasher = hashlib.sha256()
        self.result = WorldResult(
            spec_digest=spec.digest(), seed=self.seed,
            sessions=spec.sessions, replicas=spec.replicas,
            shards=spec.shards,
        )
        self._ran = False

    # -- Session setup -------------------------------------------------

    def _session_times(self, cohort: int, member: int,
                       count: int) -> tuple[float, ...]:
        """Precomputed op invoke times for one session.

        Drawn from a per-session ephemeral stream at setup — setup
        iterates cohorts in one global order whatever the shard cut,
        so every instant in the world is fixed before anything runs.
        """
        spec = self.spec
        draws = self._rng.ephemeral(f"session.c{cohort}.s{member}")
        time = draws.uniform(0.0, spec.arrival_window)
        times = [time]
        for _ in range(count - 1):
            time += draws.expovariate(1.0 / spec.think_median)
            times.append(time)
        return tuple(times)

    def _setup(self) -> None:
        spec = self.spec
        for cohort in range(spec.cohort_count):
            members = spec.cohort_sessions(cohort)
            expected = (spec.writes_per_session
                        + (members - 1) * spec.reads_per_session)
            home = spec.home_replica(cohort)
            key = cohort_key(cohort)
            self._replicas[home].open_cohort(cohort, expected)
            for member in range(members):
                if member == 0:
                    index = home
                    count = spec.writes_per_session
                else:
                    index = spec.reader_replica(cohort, member, home)
                    count = spec.reads_per_session
                times = self._session_times(cohort, member, count)
                host = self._hosts[index]
                _replica, schedule_at = host
                # The event carries the session's whole placement.
                schedule_at(times[0], self._session_step, host, cohort,
                            key, home, member, times, 0)

    def _session_step(self, host: tuple, cohort: int, key: str,
                      home: int, member: int,
                      times: tuple[float, ...], position: int) -> None:
        replica, schedule_at = host
        invoke = times[position]
        agent = self._agents[member]
        if member == 0:
            replica.local_write(cohort, key, agent, f"m{position}",
                                invoke)
        else:
            replica.local_read(cohort, key, home, agent, invoke)
        self.result.ops += 1
        if position + 1 < len(times):
            schedule_at(times[position + 1], self._session_step, host,
                        cohort, key, home, member, times, position + 1)

    # -- Barrier loop ---------------------------------------------------

    def run(self) -> WorldResult:
        if self._ran:
            raise SimulationError("a WorldEngine instance runs once")
        self._ran = True
        self._setup()
        epoch = self.spec.epoch
        while True:
            horizon = self._next_time()
            if horizon is None:
                break
            end = math.ceil(horizon / epoch) * epoch
            while end < horizon:  # float-grid guard
                end += epoch
            hosts = self._hosts
            for message in self._bus.drain_until(end):
                replica, schedule_at = hosts[message.target]
                schedule_at(message.deliver_time, replica.deliver,
                            message)
            for sim in self._sims:
                sim.run_until(end)
            self._flush_cohorts()
            self.result.epochs += 1
        self._flush_cohorts()
        self._finish()
        return self.result

    def _next_time(self) -> float | None:
        """Earliest pending instant across shards and the bus."""
        times = [time for time in
                 (sim.next_event_time() for sim in self._sims)
                 if time is not None]
        earliest_bus = self._bus.earliest()
        if earliest_bus is not None:
            times.append(earliest_bus)
        return min(times) if times else None

    def _flush_cohorts(self) -> None:
        closed: list = []
        for replica in self._replicas:
            closed.extend(replica.drain_closed())
        if not closed:
            return
        # Cohort ids are unique, so tuple order is (close_time, cohort)
        # order and never compares a buffer.
        closed.sort()
        name, engine, result = self.spec.name, self._engine, self.result
        update = self._hasher.update
        anomalies = result.anomalies
        max_stream_state = result.max_stream_state
        for _close_time, cohort, buffer in closed:
            trace = buffer.materialize(
                test_id=f"{name}/c{cohort}", service=name)
            record = replay_trace(trace, engine)
            update(canonical_json(record_to_dict(record))
                   .encode("utf-8") + b"\n")
            for kind, count in record.report.summary().items():
                if count:
                    anomalies[kind] = anomalies.get(kind, 0) + count
            max_stream_state = max(max_stream_state,
                                   engine.state_size())
        result.tests += len(closed)
        result.max_stream_state = max_stream_state
        result.peak_open_state = max(
            result.peak_open_state,
            sum(replica.state_size() for replica in self._replicas))

    def _finish(self) -> None:
        result = self.result
        if result.tests != self.spec.cohort_count:
            raise SimulationError(
                f"world drained with {result.tests} of "
                f"{self.spec.cohort_count} cohorts closed — a session "
                "stalled or a record was lost"
            )
        result.signature = self._hasher.hexdigest()
        result.events_processed = sum(
            sim.events_processed for sim in self._sims)
        result.bus_messages = self._bus.sent_total
        result.bus_deferred = self._bus.deferred_total
        result.anomalies = dict(sorted(result.anomalies.items()))


def run_world(spec: WorldSpec, seed: int = 0) -> WorldResult:
    """Convenience: run one world spec under ``seed``."""
    return WorldEngine(spec, seed).run()

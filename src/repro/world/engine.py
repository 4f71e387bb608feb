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

The same argument is why shards can run in parallel.  The engine cuts
the shards into ``min(spec.shards, usable cores)`` contiguous
:class:`ShardGroup` s.  Group 0 runs in the calling process; every
other group runs, for the whole run, in one worker process started
through :func:`repro.fleet.pool.start_worker`, and builds only its own
replicas, simulators and sessions (every stream is keyed by name, so
nothing world-sized crosses the fork).  The engine keeps the one bus.
At each barrier it drains the bus and hands each group its due
messages, in drain order; every group runs its simulators to the
barrier and flushes its retired cohorts; each worker replies with the
sends its replicas made (an :class:`~repro.world.bus.Outbox`, replayed
into the bus in emission order) and its closed cohorts' encoded
records.

Retired cohorts flush at the barrier, each replayed through its
group's one :class:`~repro.stream.engine.StreamEngine` (horizon 1), so
a group holds at most one open streaming test at any instant, however
many hundred thousand sessions the world carries — the stream engine's
bounded-memory discipline is what makes the scale reachable at all.
Each record is encoded where it closed (the same record encoding as
:func:`repro.fleet.digest.records_digest`), and the engine merges every
group's lines by ``(close_time, cohort_id)`` into one running
signature and aggregate tallies; whole records are never accumulated.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import SimulationError
from repro.fleet import pool
from repro.fleet.digest import canonical_json
from repro.io import record_to_dict
from repro.sim import RandomSource, Simulator
from repro.stream.engine import StreamEngine
from repro.stream.ingest import replay_trace
from repro.world.bus import Outbox, WorldBus
from repro.world.model import WorldReplica, cohort_key
from repro.world.spec import WorldSpec

__all__ = ["WorldResult", "WorldEngine", "ShardGroup", "GroupReply",
           "run_world"]


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


class GroupReply(NamedTuple):
    """What a group reports after set-up and after each epoch."""

    #: ``(close_time, cohort, line, anomalies, stream state)`` per
    #: cohort retired this epoch: ``line`` is the record's encoding,
    #: ``anomalies`` its nonzero ``(kind, count)`` pairs, and the last
    #: field the group's stream-engine state right after it.
    closed: list
    #: Earliest pending event in the group's simulators, or None.
    next_time: float | None
    #: Combined open state of the group's replicas.
    open_state: int
    #: Operations and simulator events so far (cumulative).
    ops: int
    events: int


class ShardGroup:
    """A contiguous block of shards: its replicas, their simulators and
    the sessions placed on them — and nothing else of the world.

    ``bus`` is what the replicas send to: the engine's
    :class:`~repro.world.bus.WorldBus` for the group in its own
    process, an :class:`~repro.world.bus.Outbox` in a worker.
    """

    def __init__(self, spec: WorldSpec, seed: int, shards: range,
                 bus: WorldBus | Outbox,
                 stream_engine: StreamEngine | None = None) -> None:
        self.spec = spec
        self._rng = RandomSource(seed).child(f"world.{spec.name}")
        self._sims = [Simulator() for _ in shards]
        #: replica index -> (replica, its shard simulator's
        #: ``schedule_at``), None for a replica of another group: the
        #: cut is consulted here and nowhere else.
        self._hosts: list[tuple | None] = [None] * spec.replicas
        self._replicas: list[WorldReplica] = []
        for index in range(spec.replicas):
            shard = spec.replica_shard(index)
            if shard not in shards:
                continue
            sim = self._sims[shard - shards.start]
            replica = WorldReplica(
                index, spec, bus, self._rng.child(f"replica.{index}"),
                (lambda hosting=sim: hosting.now))
            self._hosts[index] = (replica, sim.schedule_at)
            self._replicas.append(replica)
        #: Agent names by member index, shared by every cohort.
        self._agents = [f"s{member}"
                        for member in range(spec.cohort_size)]
        self._engine = (stream_engine if stream_engine is not None
                        else StreamEngine(horizon=1))
        self._ops = 0
        self._setup()

    # -- Session setup -------------------------------------------------

    def _session_times(self, cohort: int, member: int,
                       count: int) -> tuple[float, ...]:
        """Precomputed op invoke times for one session.

        Drawn from a per-session ephemeral stream keyed by the
        session's name, so every instant in the world is fixed before
        anything runs, whichever group draws it.
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
        spec, hosts = self.spec, self._hosts
        for cohort in range(spec.cohort_count):
            members = spec.cohort_sessions(cohort)
            home = spec.home_replica(cohort)
            key = cohort_key(cohort)
            if hosts[home] is not None:
                hosts[home][0].open_cohort(
                    cohort, spec.writes_per_session
                    + (members - 1) * spec.reads_per_session)
            for member in range(members):
                if member == 0:
                    index = home
                    count = spec.writes_per_session
                else:
                    index = spec.reader_replica(cohort, member, home)
                    count = spec.reads_per_session
                host = hosts[index]
                if host is None:
                    continue
                times = self._session_times(cohort, member, count)
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
        self._ops += 1
        if position + 1 < len(times):
            schedule_at(times[position + 1], self._session_step, host,
                        cohort, key, home, member, times, position + 1)

    # -- One epoch -------------------------------------------------------

    def step(self, due: list[tuple], end: float) -> GroupReply:
        """Schedule ``due`` (bus messages in drain order), run every
        simulator to ``end`` and flush the cohorts that retired."""
        hosts = self._hosts
        for message in due:
            replica, schedule_at = hosts[message[3]]
            schedule_at(message[0], replica.deliver, message)
        for sim in self._sims:
            sim.run_until(end)
        return self.reply()

    def reply(self) -> GroupReply:
        times = [time for time in
                 (sim.next_event_time() for sim in self._sims)
                 if time is not None]
        return GroupReply(
            self._flush(), min(times) if times else None,
            sum(replica.state_size() for replica in self._replicas),
            self._ops, sum(sim.events_processed for sim in self._sims))

    def _flush(self) -> list[tuple]:
        closed: list = []
        for replica in self._replicas:
            closed.extend(replica.drain_closed())
        # Cohort ids are unique, so tuple order is (close_time, cohort)
        # order and never compares a buffer.
        closed.sort()
        name, engine = self.spec.name, self._engine
        lines = []
        for close_time, cohort, buffer in closed:
            trace = buffer.materialize(
                test_id=f"{name}/c{cohort}", service=name)
            record = replay_trace(trace, engine)
            lines.append((
                close_time, cohort,
                canonical_json(record_to_dict(record)).encode("utf-8")
                + b"\n",
                tuple((kind, count) for kind, count
                      in record.report.summary().items() if count),
                engine.state_size()))
        return lines


def _group_worker(conn, spec: WorldSpec, seed: int,
                  shards: range) -> None:
    """Worker-process entry point: one :class:`ShardGroup`, barrier by
    barrier.

    Replies ``(sends, GroupReply)`` after set-up and after each
    ``(due, end)`` request, until a ``None`` request.  Whatever ends
    the group early is reported as its traceback text, then this
    process exits.
    """
    try:
        outbox = Outbox()
        group = ShardGroup(spec, seed, shards, outbox)
        conn.send((outbox.drain(), group.reply()))
        while (request := conn.recv()) is not None:
            reply = group.step(*request)
            conn.send((outbox.drain(), reply))
    except BaseException:
        # The process boundary: report, then exit.
        conn.send(traceback.format_exc())
    finally:
        conn.close()


class WorldEngine:
    """Run one :class:`WorldSpec` to completion under a seed.

    An injected ``stream_engine`` keeps the whole run in this process,
    in one group, since the engine object cannot be shared.
    """

    def __init__(self, spec: WorldSpec, seed: int = 0,
                 stream_engine: StreamEngine | None = None) -> None:
        self.spec = spec
        self.seed = int(seed)
        self._stream_engine = stream_engine
        self._bus = WorldBus(spec.epoch, spec.partitions)
        self._hasher = hashlib.sha256()
        #: The shards of each group, group 0 first; set by :meth:`run`.
        self.groups: list[range] = []
        self.result = WorldResult(
            spec_digest=spec.digest(), seed=self.seed,
            sessions=spec.sessions, replicas=spec.replicas,
            shards=spec.shards,
        )
        self._ran = False

    # -- Barrier loop ---------------------------------------------------

    def run(self) -> WorldResult:
        if self._ran:
            raise SimulationError("a WorldEngine instance runs once")
        self._ran = True
        # Contiguous shard blocks, one per usable core; an injected
        # stream engine cannot be shared, so it keeps one block.
        shards = self.spec.shards
        count = 1
        if self._stream_engine is None:
            count = max(1, min(shards, pool.usable_cores()))
        self.groups = [range(group * shards // count,
                             (group + 1) * shards // count)
                       for group in range(count)]
        workers: list[tuple] = []
        done = False
        try:
            for block in self.groups[1:]:
                workers.append(pool.start_worker(
                    _group_worker, (self.spec, self.seed, block),
                    name=f"world-shards-{block.start}"))
            self._barriers(workers)
            for number, (_process, conn) in enumerate(workers, 1):
                self._request(number, conn, None)
            done = True
        finally:
            for process, conn in workers:
                if not done:
                    process.terminate()
                process.join()
                conn.close()
        return self.result

    def _barriers(self, workers: list[tuple]) -> None:
        spec, bus, groups = self.spec, self._bus, self.groups
        local = ShardGroup(spec, self.seed, groups[0], bus,
                           self._stream_engine)
        #: replica index -> the group hosting it.
        group_of = [next(number for number, shards in enumerate(groups)
                         if spec.replica_shard(index) in shards)
                    for index in range(spec.replicas)]
        epoch = spec.epoch
        reply = local.reply()
        while True:
            replies = self._merge([((), reply)] + [
                self._receive(number, worker)
                for number, worker in enumerate(workers, 1)])
            times = [reply.next_time for reply in replies
                     if reply.next_time is not None]
            earliest_bus = bus.earliest()
            if earliest_bus is not None:
                times.append(earliest_bus)
            if not times:
                break
            horizon = min(times)
            end = math.ceil(horizon / epoch) * epoch
            while end < horizon:  # float-grid guard
                end += epoch
            batches: list[list] = [[] for _ in groups]
            for message in bus.drain_until(end):
                group = group_of[message.target]
                # A worker gets plain tuples: they pickle ~4x faster.
                batches[group].append(tuple(message) if group
                                      else message)
            for number, (_process, conn) in enumerate(workers, 1):
                self._request(number, conn, (batches[number], end))
            reply = local.step(batches[0], end)
            self.result.epochs += 1
        self._finish(replies)

    def _failed(self, number: int, detail: str) -> SimulationError:
        shards = self.groups[number]
        span = (f"shard {shards.start}" if len(shards) == 1 else
                f"shards {shards.start}-{shards.stop - 1}")
        return SimulationError(
            f"world group {number} ({span}) failed: {detail}")

    def _request(self, number: int, conn, request) -> None:
        try:
            conn.send(request)
        except OSError:
            raise self._failed(
                number, "its worker exited before the barrier") from None

    def _receive(self, number: int, worker: tuple) -> tuple:
        """One worker's ``(sends, GroupReply)``, or the run fails."""
        process, conn = worker
        try:
            answer = conn.recv()
        except (EOFError, OSError):
            process.join()
            answer = f"its worker exited with code {process.exitcode}"
        if isinstance(answer, str):
            # A traceback's last line names the exception.
            raise self._failed(number, answer.strip().splitlines()[-1])
        return answer

    def _merge(self, exchanges: list[tuple]) -> list[GroupReply]:
        """Replay every group's sends into the bus, then fold the
        cohorts they closed into the signature in one global order."""
        bus, result = self._bus, self.result
        replies, closed = [], []
        for sends, reply in exchanges:
            bus.replay(sends)
            closed += reply.closed
            # Folded below: the replies outlive this barrier, the
            # lines must not.
            reply.closed.clear()
            replies.append(reply)
        if not closed:
            return replies
        # Cohort ids are unique, so tuple order is (close_time, cohort)
        # order and never compares a line.
        closed.sort()
        update = self._hasher.update
        anomalies = result.anomalies
        max_stream_state = result.max_stream_state
        for _close_time, _cohort, line, kinds, state in closed:
            update(line)
            for kind, count in kinds:
                anomalies[kind] = anomalies.get(kind, 0) + count
            max_stream_state = max(max_stream_state, state)
        result.tests += len(closed)
        result.max_stream_state = max_stream_state
        result.peak_open_state = max(
            result.peak_open_state,
            sum(reply.open_state for reply in replies))
        return replies

    def _finish(self, replies: list[GroupReply]) -> None:
        result = self.result
        if result.tests != self.spec.cohort_count:
            raise SimulationError(
                f"world drained with {result.tests} of "
                f"{self.spec.cohort_count} cohorts closed — a session "
                "stalled or a record was lost"
            )
        result.signature = self._hasher.hexdigest()
        result.ops = sum(reply.ops for reply in replies)
        result.events_processed = sum(reply.events for reply in replies)
        result.bus_messages = self._bus.sent_total
        result.bus_deferred = self._bus.deferred_total
        result.anomalies = dict(sorted(result.anomalies.items()))


def run_world(spec: WorldSpec, seed: int = 0) -> WorldResult:
    """Convenience: run one world spec under ``seed``."""
    return WorldEngine(spec, seed).run()

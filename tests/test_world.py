"""Tests for repro.world: the partitioned simulated-world engine.

The load-bearing property throughout is byte-identity across physical
topology: a world spec run on 1 shard and the same spec run on N
shards must produce identical signatures, because every ordering
decision keys on logical replica identities and simulated times, never
on the shard cut.  The suite checks the parts (spec placement, bus
total order, columnar buffer value-key materialization) and then the
whole — including a hypothesis sweep over randomized topologies and a
regression for a partition nemesis spanning the shard cut.
"""

import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import ConfigurationError, SimulationError
from repro.fleet import pool
from repro.scenario import load_scenario
from repro.scenario.schema import ServiceSpec
from repro.sim import Simulator
from repro.world import (
    CohortBuffer,
    WorldBus,
    WorldPartition,
    WorldSpec,
    run_world,
    world_from_scenario,
)
from repro.world.engine import ShardGroup, WorldEngine
from repro.world.spec import author_shard

SCENARIO = "examples/scenarios/gossip_world.toml"

#: A world small enough to run in milliseconds but big enough that
#: every cohort spans replicas (and, at shards > 1, the shard cut).
SMALL = dict(
    sessions=40, replicas=6, cohort_size=4,
    writes_per_session=1, reads_per_session=1,
    arrival_window=30.0, think_median=20.0, hop_median=15.0,
    epoch=10.0,
)


def small_spec(**overrides) -> WorldSpec:
    return WorldSpec(name="w", **{**SMALL, **overrides})


#: Side (0, 3) straddles every contiguous cut of 6 or 8 replicas into
#: 2+ shards.
CUT = WorldPartition(start=10.0, end=60.0, side=(0, 3))


def pin_cores(monkeypatch, cores: int) -> None:
    """Make the engine see ``cores`` usable cores."""
    monkeypatch.setattr(pool, "usable_cores", lambda: cores)


@pytest.fixture
def workers(monkeypatch):
    """Every ``(process, conn)`` a world run started, in start order."""
    started = []
    original = pool.start_worker

    def counting(*args, **kwargs):
        started.append(original(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(pool, "start_worker", counting)
    return started


class TestWorldSpec:
    def test_rejects_degenerate_scale(self):
        with pytest.raises(SimulationError):
            small_spec(sessions=0)
        with pytest.raises(SimulationError):
            small_spec(replicas=1)
        with pytest.raises(SimulationError):
            small_spec(cohort_size=1)
        with pytest.raises(SimulationError):
            small_spec(epoch=0.0)
        with pytest.raises(SimulationError):
            small_spec(fanout=0)

    def test_shards_bounded_by_replicas(self):
        with pytest.raises(SimulationError):
            small_spec(shards=7)
        with pytest.raises(SimulationError):
            small_spec(shards=0)
        assert small_spec(shards=6).shards == 6

    def test_partition_validation(self):
        with pytest.raises(SimulationError):
            WorldPartition(start=5.0, end=5.0, side=(0,))
        with pytest.raises(SimulationError):
            WorldPartition(start=0.0, end=10.0, side=())
        with pytest.raises(SimulationError):
            small_spec(partitions=(
                WorldPartition(start=0.0, end=10.0, side=(0, 6)),
            ))
        cut = WorldPartition(start=0.0, end=10.0, side=(3, 1, 1))
        assert cut.side == (1, 3)  # normalized: sorted, deduped
        assert cut.crosses(1, 2) and not cut.crosses(1, 3)
        assert cut.active_at(0.0) and not cut.active_at(10.0)

    def test_cohort_arithmetic_covers_every_session(self):
        spec = small_spec(sessions=10, cohort_size=4)
        assert spec.cohort_count == 3
        sizes = [spec.cohort_sessions(c)
                 for c in range(spec.cohort_count)]
        assert sizes == [4, 4, 2]
        assert sum(sizes) == spec.sessions

    def test_readers_never_share_the_writer_replica(self):
        spec = small_spec()
        for cohort in range(spec.cohort_count):
            home = spec.home_replica(cohort)
            for member in range(1, spec.cohort_sessions(cohort)):
                assert spec.reader_replica(cohort, member) != home

    def test_replica_shard_is_a_contiguous_onto_cut(self):
        spec = small_spec(shards=4)
        shards = [spec.replica_shard(r) for r in range(spec.replicas)]
        assert shards == sorted(shards)          # contiguous blocks
        assert set(shards) == set(range(4))      # every shard used
        # The cut is placement only: logical placement is unchanged.
        serial = small_spec()
        for cohort in range(spec.cohort_count):
            assert spec.home_replica(cohort) == \
                serial.home_replica(cohort)

    def test_with_topology_changes_placement_only(self):
        spec = small_spec()
        moved = spec.with_topology(3)
        assert moved.shards == 3
        assert replace(moved, shards=1) == spec


class TestAuthorShard:
    def test_author_shard_is_stable_and_in_range(self):
        for shards in (1, 2, 7):
            for name in ("alice", "bob", "帯域"):
                shard = author_shard(name, shards)
                assert 0 <= shard < shards
                assert shard == author_shard(name, shards)

    def test_author_shard_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            author_shard("alice", 0)


class TestWorldBus:
    def test_floor_latency_and_total_order(self):
        bus = WorldBus(epoch=10.0)
        bus.send(origin=1, target=0, send_time=0.0, latency=2.0,
                 kind="rumor", payload=("k", "m1"))
        bus.send(origin=0, target=1, send_time=0.0, latency=25.0,
                 kind="rumor", payload=("k", "m0"))
        bus.send(origin=0, target=2, send_time=0.0, latency=2.0,
                 kind="rumor", payload=("k", "m0"))
        assert bus.earliest() == 10.0  # floor: latency 2 -> one epoch
        due = bus.drain_until(30.0)
        assert [m.key for m in due] == sorted(m.key for m in due)
        # Same deliver time: origin then per-origin seq break the tie.
        assert [(m.origin, m.target) for m in due[:2]] == \
            [(0, 2), (1, 0)]
        assert bus.pending_count == 0 and bus.earliest() is None

    def test_self_send_is_a_protocol_error(self):
        bus = WorldBus(epoch=10.0)
        with pytest.raises(SimulationError):
            bus.send(origin=2, target=2, send_time=0.0, latency=1.0,
                     kind="rumor")

    def test_partition_defers_with_original_latency(self):
        cut = WorldPartition(start=0.0, end=40.0, side=(0,))
        bus = WorldBus(epoch=10.0, partitions=(cut,))
        bus.send(origin=0, target=1, send_time=5.0, latency=12.0,
                 kind="rumor")           # crosses while active
        bus.send(origin=1, target=2, send_time=5.0, latency=12.0,
                 kind="rumor")           # same side: unaffected
        bus.send(origin=0, target=1, send_time=40.0, latency=12.0,
                 kind="rumor")           # healed: unaffected
        times = sorted(m.deliver_time for m in bus.drain_until(1e9))
        assert times == [17.0, 52.0, 52.0]
        assert bus.deferred_total == 1 and bus.sent_total == 3

    def test_retransmission_meets_the_partitions_active_at_heal(self):
        """Found by ``BusConservation``: the first matching partition
        used to decide alone, so a message crossed a cut still held by
        an overlapping or chained one."""
        overlapping = (WorldPartition(start=0.0, end=40.0, side=(0,)),
                       WorldPartition(start=0.0, end=100.0, side=(0,)))
        chained = (WorldPartition(start=0.0, end=40.0, side=(0,)),
                   WorldPartition(start=30.0, end=70.0, side=(0, 2)))
        for partitions, healed in ((overlapping, 100.0),
                                   (chained, 70.0)):
            bus = WorldBus(epoch=10.0, partitions=partitions)
            bus.send(origin=0, target=1, send_time=5.0, latency=12.0,
                     kind="rumor")
            (message,) = bus.drain_until(1e9)
            assert message.deliver_time == healed + 12.0
            assert bus.deferred_total == 1  # one message, however often

    def test_send_inside_a_drained_barrier_is_refused(self):
        """Found by ``BusConservation``: such a message would drain
        *behind* keys already handed out, re-opening the barrier."""
        bus = WorldBus(epoch=10.0)
        bus.send(origin=0, target=1, send_time=25.0, latency=1.0,
                 kind="rumor")
        assert [m.deliver_time for m in bus.drain_until(40.0)] == [35.0]
        with pytest.raises(SimulationError, match="already drained"):
            bus.send(origin=1, target=0, send_time=30.0, latency=1.0,
                     kind="rumor")           # due at 40.0, not after it
        assert bus.stats() == {"sent": 1, "deferred": 0, "pending": 0}
        bus.send(origin=1, target=0, send_time=30.25, latency=1.0,
                 kind="rumor")
        assert bus.earliest() == 40.25


#: Bus-machine instants are multiples of a quarter second, so every
#: sum and difference below is exact and the laws can be held with
#: ``==`` / ``<``, not tolerances.
quarters = st.integers(min_value=0, max_value=240).map(
    lambda ticks: ticks / 4)
endpoints = st.integers(min_value=0, max_value=3)


@st.composite
def bus_partitions(draw):
    start = draw(quarters)
    length = draw(st.integers(min_value=1, max_value=80)) / 4
    side = draw(st.sets(endpoints, min_size=1, max_size=3))
    return WorldPartition(start=start, end=start + length,
                          side=tuple(sorted(side)))


class BusConservation(RuleBasedStateMachine):
    """The three laws in the ``repro.world.bus`` docstring, under
    random sends, drains and (overlapping, chained) partitions."""

    EPOCH = 2.5

    @initialize(partitions=st.lists(bus_partitions(), max_size=3))
    def build(self, partitions):
        self.partitions = partitions
        self.bus = WorldBus(self.EPOCH, partitions)
        self.sends = {}       # payload id -> (origin, target, time, latency)
        self.drained = []
        self.horizon = float("-inf")

    @rule(origin=endpoints, goal=endpoints, send_time=quarters,
          latency=quarters)
    def send(self, origin, goal, send_time, latency):
        target = goal  # ``target`` is a keyword of ``rule`` itself
        before = self.bus.stats()
        ident = len(self.sends)
        floor = send_time + max(latency, self.EPOCH)
        try:
            self.bus.send(origin=origin, target=target,
                          send_time=send_time, latency=latency,
                          kind="rumor", payload=(ident,))
        except SimulationError:
            # Refused: a self-send, or a message that could only land
            # inside a barrier that has already drained.  Either way
            # the bus is exactly as it was.
            assert origin == target or floor <= self.horizon
            assert self.bus.stats() == before
            return
        assert origin != target
        self.sends[ident] = (origin, target, send_time, latency)
        assert self.bus.sent_total == before["sent"] + 1

    @rule(horizon=quarters)
    def drain(self, horizon):
        earliest = self.bus.earliest()
        due = self.bus.drain_until(horizon)
        self.horizon = max(self.horizon, horizon)
        if due:
            assert due[0].deliver_time == earliest
        else:
            assert earliest is None or earliest > horizon
        # Law 2: one strictly increasing key sequence, across drains.
        keys = [message.key for message in self.drained[-1:] + due]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for message in due:
            (ident,) = message.payload
            origin, target, send_time, latency = self.sends[ident]
            assert (message.origin, message.target) == (origin, target)
            assert message.deliver_time <= horizon
            # Law 3: the floor, and no transmission across a live cut.
            effective = max(latency, self.EPOCH)
            released = message.deliver_time - effective
            assert released >= send_time
            assert released == send_time or released in {
                partition.end for partition in self.partitions}
            for partition in self.partitions:
                if partition.crosses(origin, target):
                    assert not partition.active_at(released)
                    if partition.active_at(send_time):
                        assert message.deliver_time >= \
                            partition.end + effective
        self.drained.extend(due)

    @invariant()
    def nothing_lost_nothing_duplicated(self):
        # Law 1: sent = drained + pending, at every step.
        stats = self.bus.stats()
        assert stats["sent"] == len(self.sends) == \
            len(self.drained) + stats["pending"]
        assert stats["pending"] == self.bus.pending_count
        idents = [message.payload[0] for message in self.drained]
        assert len(set(idents)) == len(idents)

    def teardown(self):
        self.drain(1e9)
        assert self.bus.pending_count == 0
        late = sum(
            1 for message in self.drained
            if message.deliver_time
            > self.sends[message.payload[0]][2]
            + max(self.sends[message.payload[0]][3], self.EPOCH))
        assert self.bus.deferred_total == late


TestBusConservation = BusConservation.TestCase
TestBusConservation.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)


class TestCohortBuffer:
    def test_materialization_orders_by_value_key(self):
        def filled(order):
            buffer = CohortBuffer(0, expected=3)
            ops = {
                "w": lambda: buffer.add_write("s0", "m0", 1.0, 3.0),
                "r1": lambda: buffer.add_read("s1", ("m0",), 2.0, 4.0),
                "r2": lambda: buffer.add_read("s2", (), 2.0, 4.0),
            }
            for name in order:
                ops[name]()
            return buffer.materialize(test_id="t/c0", service="w")

        first = filled(["w", "r1", "r2"])
        second = filled(["r2", "r1", "w"])  # scrambled arrival
        assert [(op.agent, op.invoke_local)
                for op in first.operations] == \
            [(op.agent, op.invoke_local) for op in second.operations]
        assert first.agents == ("s0", "s1", "s2")

    def test_completion_tracks_expected_count(self):
        buffer = CohortBuffer(3, expected=2)
        assert not buffer.complete and len(buffer) == 0
        buffer.add_write("s0", "m0", 0.0, 1.0)
        buffer.add_read("s1", ("m0",), 2.0, 3.0)
        assert buffer.complete and len(buffer) == 2


class TestSimulatorPeek:
    def test_next_event_time_tracks_the_live_head(self):
        sim = Simulator()
        assert sim.next_event_time() is None
        sim.schedule_at(9.0, lambda: None)
        sim.schedule_at(5.0, lambda: None)
        assert sim.next_event_time() == 5.0
        assert sim.now == 0.0 and sim.events_processed == 0  # a pure peek
        sim.run_until(7.0)
        assert sim.next_event_time() == 9.0
        sim.run_until(10.0)
        assert sim.next_event_time() is None


class TestWorldParity:
    def test_every_shard_count_is_byte_identical(self):
        serial = run_world(small_spec(), seed=7)
        assert serial.tests == small_spec().cohort_count
        assert serial.ops == small_spec().sessions  # 1 op/session here
        for shards in (2, 3, 6):
            sharded = run_world(
                small_spec().with_topology(shards), seed=7)
            assert sharded.signature == serial.signature
            assert sharded.anomalies == serial.anomalies
            assert sharded.tests == serial.tests

    def test_same_seed_repeats_and_seeds_differ(self):
        spec = small_spec(shards=2)
        assert run_world(spec, seed=3).signature == \
            run_world(spec, seed=3).signature
        assert run_world(spec, seed=3).signature != \
            run_world(spec, seed=4).signature

    def test_partition_spanning_the_shard_cut_stays_identical(self):
        """Regression: a nemesis whose side straddles shards must not
        break parity — deferral is a pure function of endpoints and
        times, so where the endpoints physically live is invisible."""
        cut = WorldPartition(start=10.0, end=60.0, side=(0, 3))
        spanning = small_spec(partitions=(cut,))
        serial = run_world(spanning, seed=7)
        assert serial.bus_deferred > 0  # the nemesis actually bit
        for shards in (2, 3, 6):
            sharded = run_world(spanning.with_topology(shards), seed=7)
            assert sharded.signature == serial.signature
            assert sharded.bus_deferred == serial.bus_deferred
        # And the nemesis changes history relative to a calm world.
        assert serial.signature != \
            run_world(small_spec(), seed=7).signature

    def test_result_accounting(self):
        spec = small_spec(shards=2)
        result = run_world(spec, seed=0)
        assert result.shards == 2 and result.replicas == spec.replicas
        assert result.epochs > 0 and result.events_processed > 0
        assert result.bus_messages > 0
        assert result.max_stream_state > 0
        assert result.summary()["signature"] == result.signature

    def test_an_engine_runs_once(self):
        from repro.world import WorldEngine

        engine = WorldEngine(small_spec(), seed=0)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()


def logical(summary: dict) -> dict:
    """A summary minus the two fields that name the physical cut."""
    return {key: value for key, value in summary.items()
            if key not in ("shards", "spec_digest")}


class TestShardGroups:
    """Shards run in ``min(shards, cores)`` groups, every group past
    the first in a worker process; the result never shows it."""

    @pytest.mark.parametrize("partitions", [(), (CUT,)],
                             ids=["calm", "cut"])
    def test_every_group_count_is_byte_identical(self, partitions,
                                                 monkeypatch, workers):
        spec = small_spec(replicas=8, partitions=partitions)
        pin_cores(monkeypatch, 1)
        reference = logical(run_world(spec, seed=7).summary())
        assert (reference["bus_deferred"] > 0) == bool(partitions)
        for cores in (1, 2, 4):
            pin_cores(monkeypatch, cores)
            for shards in (1, 2, 4, 8):
                before = len(workers)
                engine = WorldEngine(spec.with_topology(shards), seed=7)
                summary = engine.run().summary()
                groups = min(shards, cores)
                assert len(engine.groups) == groups
                assert len(workers) - before == groups - 1
                assert summary["shards"] == shards
                assert logical(summary) == reference, (cores, shards)
        assert all(process.exitcode == 0 for process, _ in workers)

    def test_groups_are_contiguous_shard_blocks(self, monkeypatch):
        pin_cores(monkeypatch, 2)
        engine = WorldEngine(small_spec(shards=5), seed=0)
        engine.run()
        assert engine.groups == [range(0, 2), range(2, 5)]

    def test_an_injected_stream_engine_keeps_the_run_in_process(
            self, monkeypatch, workers):
        from repro.stream.engine import StreamEngine

        pin_cores(monkeypatch, 4)
        engine = WorldEngine(small_spec(shards=3), seed=7,
                             stream_engine=StreamEngine(horizon=1))
        result = engine.run()
        assert engine.groups == [range(0, 3)] and workers == []
        assert result.signature == run_world(small_spec(), seed=7).signature


def die_in_workers(monkeypatch, how: str) -> None:
    """Make every group worker fail at its barrier at t=30: raise, or
    exit the process without a word."""
    host = os.getpid()
    step = ShardGroup.step

    def failing(self, due, end):
        if os.getpid() != host and end >= 30.0:
            if how == "raise":
                raise RuntimeError("group fell over")
            os._exit(3)
        return step(self, due, end)

    monkeypatch.setattr(ShardGroup, "step", failing)


def kill_workers_between_barriers(monkeypatch, workers) -> None:
    """Kill every group worker while the engine drains the bus for the
    barrier at t=30, so the engine finds them dead when it writes."""
    drain = WorldBus.drain_until

    def killing(self, horizon):
        if horizon >= 30.0:
            for process, _conn in workers:
                process.kill()
                process.join()
        return drain(self, horizon)

    monkeypatch.setattr(WorldBus, "drain_until", killing)


class TestDeadWorker:
    """A group worker that dies fails the run closed: one error naming
    the group and its shards, every worker reaped, no signature."""

    @pytest.mark.parametrize("how, detail", [
        ("raise", "RuntimeError: group fell over"),
        ("exit", "its worker exited with code 3"),
        ("kill", "its worker exited before the barrier"),
    ])
    def test_the_run_raises_one_error_naming_the_group(
            self, how, detail, monkeypatch, workers):
        if how == "kill":
            kill_workers_between_barriers(monkeypatch, workers)
        else:
            die_in_workers(monkeypatch, how)
        pin_cores(monkeypatch, 3)
        engine = WorldEngine(small_spec(shards=6), seed=7)
        with pytest.raises(SimulationError) as raised:
            engine.run()
        assert str(raised.value) == \
            f"world group 1 (shards 2-3) failed: {detail}"
        assert engine.result.signature == ""
        assert len(workers) == 2
        assert not any(process.is_alive() for process, _ in workers)
        assert all(conn.closed for _, conn in workers)

    @pytest.mark.parametrize("how", ["raise", "exit"])
    def test_the_cli_prints_one_line_and_exits_2(self, how, monkeypatch,
                                                 capsys):
        from repro.cli import main as repro_main

        die_in_workers(monkeypatch, how)
        pin_cores(monkeypatch, 2)
        code = repro_main(["world", "--scenario", SCENARIO,
                           "--sessions", "36", "--shards", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(
            "world: world group 1 (shard 1) failed: ")
        assert captured.err.count("\n") == 1


@settings(max_examples=12, deadline=None)
@given(
    replicas=st.integers(min_value=2, max_value=7),
    shard_pick=st.integers(min_value=2, max_value=7),
    sessions=st.integers(min_value=6, max_value=40),
    cohort_size=st.integers(min_value=2, max_value=5),
    fanout=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2),
)
def test_randomized_topologies_match_serial(replicas, shard_pick,
                                            sessions, cohort_size,
                                            fanout, seed):
    """Property: whatever the shard cut drawn, the signature
    equals the serial (shards=1) run of the same logical world."""
    shards = 1 + shard_pick % replicas
    spec = small_spec(
        sessions=sessions, replicas=replicas, cohort_size=cohort_size,
        fanout=fanout,
    )
    serial = run_world(spec, seed=seed)
    sharded = run_world(spec.with_topology(shards), seed=seed)
    assert sharded.signature == serial.signature
    assert sharded.anomalies == serial.anomalies


class TestScenarioLowering:
    def test_example_scenario_lowers_and_rescales(self):
        scenario = load_scenario(SCENARIO)
        assert scenario.topology is not None
        assert scenario.topology.shards == 4
        spec = world_from_scenario(scenario, shards=2, sessions=48)
        assert (spec.shards, spec.sessions) == (2, 48)
        assert spec.replicas == scenario.topology.replicas
        assert spec.name == scenario.name

    def test_scenario_world_parity_across_shard_overrides(self):
        scenario = load_scenario(SCENARIO)
        runs = [
            run_world(world_from_scenario(scenario, shards=shards,
                                          sessions=36), seed=5)
            for shards in (1, 4)
        ]
        assert runs[0].signature == runs[1].signature

    def test_missing_topology_is_a_configuration_error(self):
        scenario = load_scenario(SCENARIO)
        with pytest.raises(ConfigurationError):
            world_from_scenario(replace(scenario, topology=None))

    def test_non_gossip_archetype_refuses_to_lower(self):
        scenario = load_scenario(SCENARIO)
        builtin = replace(
            scenario,
            service=ServiceSpec(archetype="builtin", base="blogger"),
        )
        with pytest.raises(ConfigurationError):
            world_from_scenario(builtin)

    def test_removed_lanes_key_fails_closed(self):
        import tomllib

        from repro.scenario.loader import scenario_from_mapping

        with open(SCENARIO, "rb") as handle:
            mapping = tomllib.load(handle)
        scenario_from_mapping(mapping, SCENARIO)  # valid as shipped
        mapping["topology"]["lanes"] = 2
        with pytest.raises(ConfigurationError,
                           match=r"unknown key \[topology\].lanes"):
            scenario_from_mapping(mapping, SCENARIO)


class TestWorldCli:
    def test_world_command_prints_the_signature(self, capsys):
        from repro.cli import main as repro_main

        code = repro_main([
            "world", "--scenario", SCENARIO,
            "--sessions", "36", "--shards", "2", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        expected = run_world(
            world_from_scenario(load_scenario(SCENARIO), shards=2,
                                sessions=36), seed=5)
        assert expected.signature in out

    def test_removed_lanes_flag_is_a_usage_error(self):
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit) as exit_info:
            repro_main(["world", "--scenario", SCENARIO,
                        "--lanes", "2"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("override, complaint", [
        (["--shards", "99"], "shards must be in [1, replicas=8], got 99"),
        (["--shards", "0"], "shards must be in [1, replicas=8], got 0"),
        (["--sessions", "0"], "world needs at least one session"),
        (["--sessions", "-4"], "world needs at least one session"),
    ])
    def test_out_of_range_override_is_a_usage_error(
            self, override, complaint, capsys):
        """As the same value in the scenario file: one line, exit 2."""
        from repro.cli import main as repro_main

        code = repro_main(["world", "--scenario", SCENARIO, *override])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"world: {complaint}\n"

    def test_world_command_json_summary(self, capsys):
        import json

        from repro.cli import main as repro_main

        code = repro_main([
            "world", "--scenario", SCENARIO,
            "--sessions", "36", "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sessions"] == 36
        assert summary["shards"] == 4  # the scenario's own cut

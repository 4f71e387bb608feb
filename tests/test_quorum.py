"""Tests for the quorum substrate, service, and the Quorum combinator."""

import pytest

from repro.errors import ConfigurationError, FutureError
from repro.methodology import CampaignConfig, run_campaign
from repro.net import (
    IRELAND,
    OREGON,
    TOKYO,
    JitterParams,
    LatencyModel,
    Network,
    paper_topology,
)
from repro.replication import QuorumParams, QuorumStore
from repro.services import QuorumKvParams
from repro.sim import Future, Quorum, RandomSource, Simulator


class TestQuorumFuture:
    def test_resolves_at_k_successes(self):
        futures = [Future() for _ in range(3)]
        quorum = Quorum(futures, k=2)
        futures[1].resolve("b")
        assert not quorum.done
        futures[2].resolve("c")
        assert quorum.value == ["b", "c"]
        futures[0].resolve("a")  # late success is ignored

    def test_tolerates_failures_while_k_possible(self):
        futures = [Future() for _ in range(3)]
        quorum = Quorum(futures, k=2)
        futures[0].fail(RuntimeError("down"))
        assert not quorum.done
        futures[1].resolve(1)
        futures[2].resolve(2)
        assert quorum.value == [1, 2]

    def test_fails_when_k_impossible(self):
        futures = [Future() for _ in range(3)]
        quorum = Quorum(futures, k=2)
        futures[0].fail(RuntimeError("one"))
        futures[1].fail(RuntimeError("two"))
        assert quorum.failed

    def test_validates_k(self):
        with pytest.raises(FutureError):
            Quorum([Future()], k=0)
        with pytest.raises(FutureError):
            Quorum([Future()], k=2)

    def test_k_equals_n_behaves_like_all(self):
        futures = [Future(), Future()]
        quorum = Quorum(futures, k=2)
        futures[0].resolve(1)
        futures[1].resolve(2)
        assert quorum.value == [1, 2]


def make_quorum_world(read_quorum, write_quorum, seed=2,
                      apply_median=0.001, apply_sigma=0.01):
    sim = Simulator()
    topo = paper_topology()
    for index, region in enumerate((OREGON, TOKYO, IRELAND)):
        topo.place_host(f"replica-{index}", region)
    topo.place_host("frontend", OREGON)
    rng = RandomSource(seed=seed)
    net = Network(sim, LatencyModel(topo, rng.child("net"),
                                    JitterParams(sigma=0.05)))
    params = QuorumParams(
        read_quorum=read_quorum, write_quorum=write_quorum,
        apply_delay_median=apply_median,
        apply_delay_sigma=apply_sigma,
    )
    store = QuorumStore(
        sim, net, params,
        replica_hosts=[f"replica-{i}" for i in range(3)],
        frontend_hosts=["frontend"],
        rng=rng.child("quorum"),
    )
    return sim, store


def settle(sim, future, timeout=30.0):
    deadline = sim.now + timeout
    while not future.done and sim.now < deadline:
        sim.run_until(min(sim.now + 0.05, deadline))
    assert future.done
    return future.value


class TestQuorumStore:
    def test_write_then_strict_read_sees_it(self):
        sim, store = make_quorum_world(read_quorum=2, write_quorum=2)
        settle(sim, store.write("frontend", "M1", "alice"))
        view = settle(sim, store.read("frontend"))
        assert view == ("M1",)

    def test_w1_write_is_acked_before_full_replication(self):
        sim, store = make_quorum_world(
            read_quorum=3, write_quorum=1,
            apply_median=0.001,
        )
        ack = store.write("frontend", "M1", "alice")
        settle(sim, ack)
        # With R=N the read waits for the slowest replica, so it must
        # include the write even though only one replica had acked.
        view = settle(sim, store.read("frontend"))
        assert view == ("M1",)

    def test_merge_orders_by_origin_timestamp(self):
        sim, store = make_quorum_world(read_quorum=3, write_quorum=3)
        settle(sim, store.write("frontend", "M1", "a"))
        sim.run_until(sim.now + 1.0)
        settle(sim, store.write("frontend", "M2", "b"))
        view = settle(sim, store.read("frontend"))
        assert view == ("M1", "M2")

    def test_slow_apply_with_r1_misses_recent_writes(self):
        sim, store = make_quorum_world(
            read_quorum=1, write_quorum=1,
            apply_median=5.0, apply_sigma=0.01,
        )
        ack = store.write("frontend", "M1", "alice")
        settle(sim, ack, timeout=30.0)  # acked after first commit ~5s
        # Immediately after the ack, only one replica has committed;
        # an R=1 read served by a *different* (uncommitted) replica
        # may miss it, but the nearest replica is deterministic here,
        # so instead verify the commit gap directly.
        committed = sum(
            1 for replica in store.replicas
            if replica.store.contains("M1")
        )
        assert committed == 1
        sim.run_until(sim.now + 30.0)
        assert all(replica.store.contains("M1")
                   for replica in store.replicas)

    def test_replica_host_count_validated(self):
        sim = Simulator()
        topo = paper_topology()
        topo.place_host("r0", OREGON)
        rng = RandomSource(seed=1)
        net = Network(sim, LatencyModel(topo, rng, JitterParams()))
        with pytest.raises(ConfigurationError):
            QuorumStore(sim, net, QuorumParams(replicas=3),
                        replica_hosts=["r0"], frontend_hosts=[],
                        rng=rng)

    def test_unknown_frontend_rejected(self):
        sim, store = make_quorum_world(1, 1)
        with pytest.raises(ConfigurationError):
            store.read("nowhere")

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            QuorumParams(read_quorum=0)
        with pytest.raises(ConfigurationError):
            QuorumParams(write_quorum=4, replicas=3)
        assert QuorumParams(read_quorum=2, write_quorum=2).is_strict
        assert not QuorumParams(read_quorum=1, write_quorum=1).is_strict


class TestQuorumService:
    def test_weak_config_shows_session_anomalies(self):
        params = QuorumKvParams(quorum=QuorumParams(
            read_quorum=1, write_quorum=1,
        ))
        result = run_campaign("quorum_kv", CampaignConfig(
            num_tests=10, seed=5, service_params=params,
        ))
        summary = result.summary()
        assert summary["read_your_writes"] > 0.3
        assert summary["content_divergence"] > 0.3

    def test_strict_config_eliminates_session_anomalies(self):
        params = QuorumKvParams(quorum=QuorumParams(
            read_quorum=2, write_quorum=2,
        ))
        result = run_campaign("quorum_kv", CampaignConfig(
            num_tests=10, seed=5, service_params=params,
        ))
        summary = result.summary()
        assert summary["read_your_writes"] == 0.0
        assert summary["monotonic_writes"] == 0.0
        assert summary["monotonic_reads"] == 0.0

    def test_strict_config_costs_write_latency(self):
        durations = {}
        for label, (r, w) in (("weak", (1, 1)), ("strict", (2, 2))):
            params = QuorumKvParams(quorum=QuorumParams(
                read_quorum=r, write_quorum=w,
            ))
            result = run_campaign("quorum_kv", CampaignConfig(
                num_tests=6, seed=7, test_types=("test1",),
                keep_traces=True, service_params=params,
            ))
            latencies = []
            for record in result.records:
                for write in record.trace.writes():
                    latencies.append(write.response_local
                                     - write.invoke_local)
            durations[label] = sum(latencies) / len(latencies)
        assert durations["strict"] > durations["weak"]

"""Partition healing in the gossip substrate (anti-entropy re-offer).

A rumor is forwarded exactly once, so a write rumored *into* a
partition window is gone from the epidemic path forever: when the
window closes, only the periodic anti-entropy re-offer can deliver it.
These tests pin that heal three ways — directly on
:class:`~repro.replication.gossip.GossipGroup`, as a campaign golden
signature for the ``gossip_partitioned`` scenario, and as a streaming
assertion that every divergence window the partition opens is closed
by the heal before the trace ends.
"""

from pathlib import Path

from repro.fleet.digest import campaign_signature
from repro.methodology import (
    CampaignConfig,
    CampaignResult,
    run_campaign,
)
from repro.net import (
    IRELAND,
    OREGON,
    TOKYO,
    FaultInjector,
    JitterParams,
    LatencyModel,
    Network,
    paper_topology,
)
from repro.replication.gossip import GossipGroup, GossipParams
from repro.scenario import load_scenario, scenario_campaign
from repro.sim import RandomSource, Simulator
from repro.stream import OpIngest

SCENARIO_DIR = Path(__file__).parent.parent / "examples" / "scenarios"

GOSSIP_PARTITIONED_SIGNATURE = (
    "480007e9fc1716621e2af5bb0d58590f4792a7d58389464de22d722356aa1482"
)

NODES = ("node-oregon", "node-tokyo", "node-ireland")


def make_ring(faults=None, seed=3, **overrides):
    sim = Simulator()
    topo = paper_topology()
    for host, region in zip(NODES, (OREGON, TOKYO, IRELAND)):
        topo.place_host(host, region)
    rng = RandomSource(seed=seed)
    net = Network(sim, LatencyModel(topo, rng.child("net"),
                                    JitterParams(sigma=0.1)),
                  faults=faults)
    group = GossipGroup(sim, net, rng.child("gossip"),
                        GossipParams(**overrides), list(NODES))
    return sim, group


class TestRumorFanout:
    def run_ring(self, seed):
        sim, group = make_ring(seed=seed)
        for index, author in enumerate(("alice", "bob", "carol", "dave")):
            group.write_at(NODES[index % 3], f"M{index}", author)
        sim.run_until(30.0)
        return tuple(group.read_from(node) for node in NODES)

    def test_fanout_converges_and_is_deterministic(self):
        first = self.run_ring(seed=11)
        assert first == self.run_ring(seed=11)
        assert first == (("M0", "M1", "M2", "M3"),) * 3


class TestAntiEntropyHeal:
    def test_reoffer_converges_isolated_replica(self):
        # Tokyo is cut off from both peers for [0, 20): the write's
        # single rumor round happens inside the window and is dropped,
        # so only the post-window anti-entropy re-offer can deliver it.
        faults = FaultInjector()
        faults.partition_group(["node-tokyo"], 0.0, 20.0)
        sim, group = make_ring(faults=faults)
        sim.run_until(1.0)
        group.write_at("node-oregon", "m1", author="oregon")
        sim.run_until(19.5)
        assert "m1" in group.read_from("node-oregon")
        assert "m1" in group.read_from("node-ireland")
        assert group.read_from("node-tokyo") == ()
        sim.run_until(40.0)
        assert "m1" in group.read_from("node-tokyo"), (
            "anti-entropy should re-offer the aged write once the "
            "partition window closes"
        )

    def test_without_reoffer_the_replica_stays_stale(self):
        # Control: push anti-entropy past the observation horizon and
        # the same schedule never converges — proof the heal above is
        # the re-offer, not a rumor retry.
        faults = FaultInjector()
        faults.partition_group(["node-tokyo"], 0.0, 20.0)
        sim, group = make_ring(faults=faults,
                               antientropy_interval=10_000.0)
        sim.run_until(1.0)
        group.write_at("node-oregon", "m1", author="oregon")
        sim.run_until(100.0)
        assert "m1" in group.read_from("node-oregon")
        assert group.read_from("node-tokyo") == ()

    def test_reoffer_respects_min_age(self):
        # A fresh write is not re-offered until it ages past
        # antientropy_min_age, so anti-entropy cannot mask the rumor
        # path's propagation delays.
        faults = FaultInjector()
        faults.partition_group(["node-tokyo"], 0.0, 3.0)
        sim, group = make_ring(faults=faults)
        sim.run_until(1.0)
        group.write_at("node-oregon", "m1", author="oregon")
        # Window over at 3.0; first eligible re-offer needs
        # age >= 8.0 (t >= 9.0) at a 5s round boundary.
        sim.run_until(6.0)
        assert group.read_from("node-tokyo") == ()
        sim.run_until(25.0)
        assert "m1" in group.read_from("node-tokyo")


class TestGossipPartitionedCampaign:
    def run_streamed(self):
        spec = load_scenario(SCENARIO_DIR / "gossip_partitioned.toml")
        config = CampaignConfig(num_tests=3, seed=5)
        window_events = {}

        def on_emission(meta, sop, emission):
            for event in emission.window_events:
                window_events.setdefault(meta.test_id, []).append(
                    event)

        records = []
        ingest = OpIngest(
            on_emission=on_emission,
            on_record=lambda meta, record: records.append(record))
        batch = run_campaign(*scenario_campaign(spec, config),
                             observer=ingest)
        live = CampaignResult(batch.service, batch.config, records)
        return live, window_events

    def test_campaign_golden_signature(self):
        result, _ = self.run_streamed()
        assert result.summary()["content_divergence"] == 1.0
        assert campaign_signature(result) == \
            GOSSIP_PARTITIONED_SIGNATURE

    def test_partition_windows_all_close_in_stream(self):
        # Every third test runs under the oregon~tokyo partition
        # (period=3 -> indices 2); the streamed divergence windows it
        # opens must all close before the test's trace ends — the
        # anti-entropy heal observed online.
        _, window_events = self.run_streamed()
        for test_type in ("test1", "test2"):
            test_id = f"gossip_partitioned-{test_type}-2"
            events = window_events[test_id]
            opened = [e for e in events if e.action == "opened"]
            closed = [e for e in events if e.action == "closed"]
            assert opened, "partition should open divergence windows"
            assert len(opened) == len(closed)

    def test_heal_is_slower_than_antientropy_min_age(self):
        # The partitioned test2's oregon~tokyo window must stay open
        # at least antientropy_min_age: nothing but the aged re-offer
        # could close it, and the re-offer waits for age >= 8s.
        _, window_events = self.run_streamed()
        events = window_events["gossip_partitioned-test2-2"]
        spans = [
            event.time - event.start
            for event in events
            if event.action == "closed"
            and event.pair == ("oregon", "tokyo")
            and event.start is not None
        ]
        assert spans
        assert max(spans) >= GossipParams().antientropy_min_age

"""Per-link records in ``repro.net``: same draws, never a stale base.

``LatencyModel`` resolves a link's base delay and jitter stream once
and ``Network`` resolves its counters and future label once.  These
tests pin what that memoisation must not change: every sample equals
the from-scratch formula whatever the interleaving, every ``Topology``
mutator takes effect on the very next sample without restarting or
skipping a draw, and the obs series are the ones a per-call lookup
would have produced.
"""

import pytest

from repro.errors import ConfigurationError
from repro.net import (
    IRELAND,
    OREGON,
    TOKYO,
    VIRGINIA,
    JitterParams,
    LatencyModel,
    Network,
    Region,
    Topology,
    paper_topology,
)
from repro.obs import ObsContext
from repro.sim import RandomSource, Simulator

from tests.helpers import scratch_stream

SEED = 23
JITTER = JitterParams(sigma=0.2, floor=0.9)


def link_oracle(src, dst, seed=SEED):
    """The link's stream, re-derived from scratch."""
    return scratch_stream(seed, f"latency.{src}->{dst}")


def oracle_sample(base, stream, jitter=JITTER):
    return base * max(stream.lognormvariate(0.0, jitter.sigma),
                      jitter.floor)


class TestSampleOracle:
    def make_topology(self):
        topology = paper_topology()
        for host, region in (("o", OREGON), ("t", TOKYO), ("i", IRELAND),
                             ("v", VIRGINIA), ("o2", OREGON)):
            topology.place_host(host, region)
        return topology

    def test_interleaved_samples_equal_the_from_scratch_formula(self):
        topology = self.make_topology()
        model = LatencyModel(topology, RandomSource(SEED), JITTER)
        hosts = topology.hosts()
        pairs = [(a, b) for a in hosts for b in hosts if a != b]
        assert ("o", "o2") in pairs  # the same-region link
        oracles = {pair: link_oracle(*pair) for pair in pairs}
        for index in range(600):
            # A fixed, uneven walk over the links: some are revisited
            # back to back, some after many other links drew.
            src, dst = pair = pairs[(index * index + 3 * index) % len(pairs)]
            expected = oracle_sample(topology.rtt(src, dst) / 2.0,
                                     oracles[pair])
            assert model.sample_one_way(src, dst) == expected

    def test_zero_sigma_returns_the_base_and_touches_no_stream(self):
        topology = self.make_topology()
        rng = RandomSource(SEED)
        created = []
        original_stream = rng.stream
        rng.stream = lambda name: created.append(name) or original_stream(name)
        model = LatencyModel(topology, rng, JitterParams(sigma=0.0))
        for _ in range(3):
            assert model.sample_one_way("v", "t") == 0.218 / 2.0
            assert model.sample_one_way("o", "o2") == 0.001 / 2.0
        assert created == []


def two_region_topology():
    topology = Topology()
    for name in ("east", "west", "north"):
        topology.add_region(Region(name))
    topology.set_rtt("east", "west", 0.100)
    topology.set_rtt("east", "north", 0.060)
    topology.place_host("a", "east")
    topology.place_host("b", "west")
    topology.place_host("a2", "east")
    return topology


def move_host(topology):
    topology.place_host("b", "north")


def edit_rtt(topology):
    topology.set_rtt("west", "east", 0.300)


def assign_intra_region_rtt(topology):
    topology.intra_region_rtt = 0.004


def place_unrelated_host(topology):
    topology.place_host("bystander", "north")


class TestInvalidation:
    @pytest.mark.parametrize("src, dst, mutate, base_after", [
        ("a", "b", move_host, 0.030),
        ("a", "b", edit_rtt, 0.150),
        ("b", "a", edit_rtt, 0.150),
        ("a", "a2", assign_intra_region_rtt, 0.002),
        ("a", "b", assign_intra_region_rtt, 0.050),
        ("a", "b", place_unrelated_host, 0.050),
    ])
    def test_next_sample_uses_current_base_and_next_draw(
            self, src, dst, mutate, base_after):
        topology = two_region_topology()
        model = LatencyModel(topology, RandomSource(SEED), JITTER)
        stream = link_oracle(src, dst)
        base_before = topology.one_way(src, dst)
        assert model.sample_one_way(src, dst) == \
            oracle_sample(base_before, stream)
        mutate(topology)
        assert topology.one_way(src, dst) == base_after
        # The same oracle stream continues: not fresh, nothing skipped.
        assert model.sample_one_way(src, dst) == \
            oracle_sample(base_after, stream)
        assert model.sample_one_way(src, dst) == \
            oracle_sample(base_after, stream)

    def test_moving_to_an_unlinked_region_raises_without_drawing(self):
        topology = two_region_topology()
        model = LatencyModel(topology, RandomSource(SEED), JITTER)
        stream = link_oracle("b", "a")
        assert model.sample_one_way("b", "a") == oracle_sample(0.050, stream)
        topology.place_host("a", "north")  # west <-> north has no RTT
        with pytest.raises(ConfigurationError, match="no RTT configured"):
            model.sample_one_way("b", "a")
        topology.set_rtt("west", "north", 0.080)
        assert model.sample_one_way("b", "a") == oracle_sample(0.040, stream)

    def test_unknown_host_raises_and_creates_no_stream(self):
        rng = RandomSource(SEED)
        model = LatencyModel(two_region_topology(), rng, JITTER)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="unknown host"):
                model.sample_one_way("a", "ghost")
        assert "latency.a->ghost" not in repr(rng)


def net_series(obs):
    return [(entry["name"], entry["labels"], entry["value"],
             entry["updated"])
            for entry in obs.metrics.snapshot()
            if entry["name"].startswith("net.")]


class TestLinkHandles:
    def make_network(self):
        sim = Simulator()
        topology = two_region_topology()
        obs = ObsContext(now_fn=lambda: sim.now)
        network = Network(
            sim, LatencyModel(topology, RandomSource(SEED), JITTER),
            obs=obs)
        network.attach("a", message_handler=lambda message: None)
        network.attach("a2", rpc_handler=lambda payload, src: payload)
        network.attach(
            "b", message_handler=lambda message: None,
            rpc_handler=lambda payload, src: payload)
        return sim, network, obs

    def test_series_appear_per_used_link_with_last_call_time(self):
        sim, network, obs = self.make_network()
        assert net_series(obs) == []  # attach creates nothing
        for at, call in [
            (1.0, lambda: network.rpc("a", "b", 1)),
            (2.0, lambda: network.send("b", "a", "x")),
            (3.0, lambda: network.rpc("a", "b", 2)),
            (4.0, lambda: network.rpc("b", "a2", 3)),
            (5.0, lambda: network.send("b", "a", "y")),
            (6.0, lambda: network.rpc("a", "b", 4)),
            (7.5, lambda: network.send("a", "b", "z")),
        ]:
            sim.schedule_at(at, call)
        sim.run()
        assert net_series(obs) == [
            ("net.datagrams_total", {"dst": "a", "src": "b"}, 2, 5.0),
            ("net.datagrams_total", {"dst": "b", "src": "a"}, 1, 7.5),
            ("net.rpc_requests_total", {"dst": "a2", "src": "b"}, 1, 4.0),
            ("net.rpc_requests_total", {"dst": "b", "src": "a"}, 3, 6.0),
        ]

    def test_handles_are_the_registrys_own_instruments(self):
        sim, network, obs = self.make_network()
        network.rpc("a", "b", 1)
        network.send("a", "b", "x")
        obs.metrics.counter("net.rpc_requests_total",
                            src="a", dst="b").inc(10)
        network.rpc("a", "b", 2)
        sim.run()
        assert obs.metrics.counter(
            "net.rpc_requests_total", src="a", dst="b").value == 12
        assert obs.metrics.counter(
            "net.datagrams_total", src="a", dst="b").value == 1

    def test_reattached_handler_serves_the_next_rpc(self):
        sim, network, _ = self.make_network()
        first = network.rpc("a", "b", 5)
        sim.run_until(1.0)
        network.detach("b")
        network.attach("b", rpc_handler=lambda payload, src: -payload)
        second = network.rpc("a", "b", 5)
        sim.run()
        assert (first.value, second.value) == (5, -5)
        assert first.name == second.name == "rpc a->b"

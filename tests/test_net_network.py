"""Unit tests for the simulated network: datagrams, RPC, faults."""

import pytest

from repro.errors import HostUnreachableError, NetworkError
from repro.net import (
    FaultInjector,
    JitterParams,
    LatencyModel,
    Network,
    Region,
    Topology,
)
from repro.obs import ObsContext
from repro.sim import Future, RandomSource, Simulator


def make_network(sim, sigma=0.0, faults=None, obs=None):
    topo = Topology()
    topo.add_region(Region("east"))
    topo.add_region(Region("west"))
    topo.set_rtt("east", "west", 0.100)
    topo.place_host("client", "east")
    topo.place_host("server", "west")
    topo.place_host("peer", "east")
    model = LatencyModel(topo, RandomSource(seed=1),
                         JitterParams(sigma=sigma))
    return Network(sim, model, faults=faults, obs=obs)


class TestAttachment:
    def test_attach_requires_placed_host(self):
        sim = Simulator()
        net = make_network(sim)
        with pytest.raises(NetworkError, match="not placed"):
            net.attach("ghost")

    def test_send_requires_attached_endpoints(self):
        sim = Simulator()
        net = make_network(sim)
        net.attach("client", message_handler=lambda m: None)
        with pytest.raises(HostUnreachableError):
            net.send("client", "server", {})
        with pytest.raises(HostUnreachableError):
            net.send("server", "client", {})

    def test_detach_is_idempotent(self):
        sim = Simulator()
        net = make_network(sim)
        net.attach("client")
        net.detach("client")
        net.detach("client")
        assert not net.is_attached("client")


class TestDatagrams:
    def test_message_delivered_after_one_way_delay(self):
        sim = Simulator()
        net = make_network(sim, sigma=0.0)
        received = []
        net.attach("client")
        net.attach("server",
                   message_handler=lambda m: received.append((sim.now, m)))
        net.send("client", "server", {"kind": "ping"})
        sim.run()
        (time, message), = received
        assert time == pytest.approx(0.050)
        assert message.payload == {"kind": "ping"}
        assert message.src == "client"
        assert message.deliver_time - message.send_time == \
            pytest.approx(0.050)

    def test_message_to_detached_host_is_dropped_in_flight(self):
        sim = Simulator()
        net = make_network(sim)
        received = []
        net.attach("client")
        net.attach("server", message_handler=received.append)
        net.send("client", "server", "x")
        net.detach("server")
        sim.run()
        assert received == []

    def test_reply_to_detached_client_is_dropped_in_flight(self):
        sim = Simulator()
        net = make_network(sim, sigma=0.0)
        net.attach("client")
        net.attach("server", rpc_handler=lambda p, s: "pong")
        reply = net.rpc("client", "server", "ping", timeout=2.0)
        sim.run_until(0.075)  # served at 0.050; the reply is on the wire
        assert net.messages_delivered == 1
        net.detach("client")
        failed_at = []
        reply.add_callback(lambda f: failed_at.append(sim.now))
        sim.run()
        assert net.messages_delivered == 1  # the reply never arrived
        assert reply.failed
        assert isinstance(reply.exception, HostUnreachableError)
        assert failed_at == [pytest.approx(2.0)]

    def test_partitioned_message_is_dropped(self):
        sim = Simulator()
        faults = FaultInjector()
        faults.isolate("server", 0.0, 100.0)
        net = make_network(sim, faults=faults)
        received = []
        net.attach("client")
        net.attach("server", message_handler=received.append)
        net.send("client", "server", "x")
        sim.run()
        assert received == []
        assert net.messages_delivered == 0

    def test_message_counters(self):
        sim = Simulator()
        net = make_network(sim)
        net.attach("client")
        net.attach("server", message_handler=lambda m: None)
        net.send("client", "server", 1)
        net.send("client", "server", 2)
        sim.run()
        assert net.messages_sent == 2
        assert net.messages_delivered == 2

    def test_every_message_handed_over_is_accounted_for(self):
        """``messages_sent`` counts datagrams, requests and replies
        alike, dropped or not, so once the heap is empty it equals
        delivered + dropped by faults + lost to a detached host."""
        sim = Simulator()
        faults = FaultInjector()
        faults.isolate("peer", 1.0, 2.0)
        net = make_network(sim, faults=faults)
        inbox = []
        net.attach("client", message_handler=inbox.append)
        net.attach("peer", message_handler=inbox.append,
                   rpc_handler=lambda p, s: p)

        def serve(payload, src):
            if payload == "cut the reply":
                faults.isolate("server", sim.now, sim.now + 0.5)
            return payload

        net.attach("server", message_handler=inbox.append,
                   rpc_handler=serve)
        replies = []

        def rpc(src, dst, payload):
            replies.append(net.rpc(src, dst, payload, timeout=1.0))

        # t=0: everything arrives -- 2 datagrams, 2 round trips.
        sim.schedule_at(0.0, net.send, "client", "server", "d1")
        sim.schedule_at(0.0, net.send, "server", "peer", "d2")
        sim.schedule_at(0.0, rpc, "client", "server", "r1")
        sim.schedule_at(0.0, rpc, "client", "peer", "r2")
        # t=1: peer is isolated -- a datagram and a request dropped.
        sim.schedule_at(1.0, net.send, "client", "peer", "d3")
        sim.schedule_at(1.0, rpc, "server", "peer", "r3")
        # t=3: the request arrives, its reply is dropped.
        sim.schedule_at(3.0, rpc, "client", "server", "cut the reply")
        # t=5: the server detaches with a datagram and a request in
        # flight to it; t=6: the client detaches under its reply.
        sim.schedule_at(5.0, net.send, "client", "server", "d4")
        sim.schedule_at(5.0, rpc, "client", "server", "r5")
        sim.schedule_at(5.01, net.detach, "server")
        sim.schedule_at(6.0, rpc, "client", "peer", "r6")
        sim.schedule_at(6.0002, net.detach, "client")
        sim.run()

        assert sim.pending_events == 0
        assert [m.payload for m in inbox] == ["d1", "d2"]
        assert [r.failed for r in replies] == \
            [False, False, True, True, True, True]
        lost_to_detach = 3  # d4, r5's request, r6's reply
        assert faults.dropped_messages == 3  # d3, r3's request, a reply
        assert net.messages_delivered == 2 + 4 + 1 + 1
        assert net.messages_sent == 14
        assert net.messages_sent == (net.messages_delivered
                                     + faults.dropped_messages
                                     + lost_to_detach)


class TestRpc:
    @pytest.mark.parametrize("timeout", [-1.0, float("nan")])
    def test_invalid_timeout_fails_before_anything_is_sent(self, timeout):
        sim = Simulator()
        obs = ObsContext(now_fn=lambda: sim.now)
        net = make_network(sim, obs=obs)
        served = []
        net.attach("client")
        net.attach("server", rpc_handler=lambda p, s: served.append(p))
        with pytest.raises(NetworkError, match="timeout"):
            net.rpc("client", "server", "x", timeout=timeout)
        assert sim.pending_events == 0
        assert net.messages_sent == 0
        assert obs.metrics.snapshot() == []
        sim.run()
        assert served == []

    def test_rpc_round_trip_timing_and_value(self):
        sim = Simulator()
        net = make_network(sim, sigma=0.0)
        net.attach("client")
        net.attach("server", rpc_handler=lambda payload, src: payload * 2)
        reply = net.rpc("client", "server", 21)
        sim.run()
        assert reply.value == 42

    def test_rpc_reply_arrives_after_full_rtt(self):
        sim = Simulator()
        net = make_network(sim, sigma=0.0)
        net.attach("client")
        net.attach("server", rpc_handler=lambda p, s: "pong")
        reply = net.rpc("client", "server", "ping")
        resolved_at = []
        reply.add_callback(lambda f: resolved_at.append(sim.now))
        sim.run()
        assert resolved_at == [pytest.approx(0.100)]

    def test_rpc_handler_exception_propagates(self):
        sim = Simulator()
        net = make_network(sim, sigma=0.0)
        net.attach("client")

        def handler(payload, src):
            raise ValueError("bad request")

        net.attach("server", rpc_handler=handler)
        reply = net.rpc("client", "server", None)
        sim.run()
        assert reply.failed
        assert isinstance(reply.exception, ValueError)

    def test_rpc_handler_may_return_future(self):
        sim = Simulator()
        net = make_network(sim, sigma=0.0)
        net.attach("client")
        pending = Future()

        def handler(payload, src):
            sim.schedule_after(1.0, pending.resolve, "delayed")
            return pending

        net.attach("server", rpc_handler=handler)
        reply = net.rpc("client", "server", None)
        resolved_at = []
        reply.add_callback(lambda f: resolved_at.append(sim.now))
        sim.run()
        assert reply.value == "delayed"
        # 50ms there + 1s processing + 50ms back.
        assert resolved_at == [pytest.approx(1.100)]

    def test_rpc_to_missing_host_fails_immediately(self):
        sim = Simulator()
        net = make_network(sim)
        net.attach("client")
        reply = net.rpc("client", "server", None)
        assert reply.failed
        assert isinstance(reply.exception, HostUnreachableError)

    def test_rpc_times_out_under_partition(self):
        sim = Simulator()
        faults = FaultInjector()
        faults.isolate("server", 0.0, 100.0)
        net = make_network(sim, faults=faults)
        net.attach("client")
        net.attach("server", rpc_handler=lambda p, s: "unreachable")
        reply = net.rpc("client", "server", None, timeout=2.0)
        failed_at = []
        reply.add_callback(lambda f: failed_at.append(sim.now))
        sim.run()
        assert reply.failed
        assert isinstance(reply.exception, HostUnreachableError)
        assert failed_at == [pytest.approx(2.0)]

    def test_lost_reply_also_times_out(self):
        sim = Simulator()
        faults = FaultInjector()
        # Block only the reply direction.
        faults_rng = None  # pair partition needs no rng
        del faults_rng
        net = make_network(sim, faults=faults)
        net.attach("client")
        served = []

        def handler(payload, src):
            served.append(sim.now)
            # Partition starts after the request arrives.
            faults.isolate("server", sim.now, sim.now + 100.0)
            return "reply"

        net.attach("server", rpc_handler=handler)
        reply = net.rpc("client", "server", None, timeout=3.0)
        sim.run()
        assert served  # the request got through
        assert reply.failed

    def test_timeout_after_success_is_ignored(self):
        sim = Simulator()
        net = make_network(sim, sigma=0.0)
        net.attach("client")
        net.attach("server", rpc_handler=lambda p, s: "ok")
        reply = net.rpc("client", "server", None, timeout=5.0)
        sim.run()  # runs past the timeout event
        assert reply.value == "ok"

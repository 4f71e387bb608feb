"""Unit tests for the simulated network: datagrams, RPC, faults."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def make_network(sim, sigma=0.0, faults=None, obs=None, rtt=0.100):
    topo = Topology()
    topo.add_region(Region("east"))
    topo.add_region(Region("west"))
    topo.set_rtt("east", "west", rtt)
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

    def test_replies_in_time_schedule_no_event_each(self):
        """A timeout value's deadlines share one armed expiry event:
        100 answered RPCs cost their request and reply events plus one
        expiry, not one timeout event each."""
        sim = Simulator()
        net = make_network(sim, sigma=0.0)
        net.attach("client")
        net.attach("server", rpc_handler=lambda p, s: p)
        replies = [net.rpc("client", "server", n) for n in range(100)]
        sim.run()
        assert [reply.value for reply in replies] == list(range(100))
        assert sim.events_processed == 100 + 100 + 1
        assert sim.now == 10.0  # the expiry fired, found nothing overdue


class TestTimeoutAtTheDeadline:
    """A reply that arrives at exactly its deadline.

    Events due at one instant fire in the order they were scheduled.
    An RPC's expiry event is scheduled when its timeout's FIFO arms
    it: at the RPC itself when the FIFO was empty, otherwise when the
    expiry for an earlier deadline re-arms.  That arming time, not the
    RPC's issue time, is the expiry's place in a same-instant tie —
    the one place deadline FIFOs can order events differently from a
    timer armed per RPC.  With one-way delays of 0.5 s and a 1 s
    timeout, an immediate reply lands exactly at its deadline.
    """

    def test_expiry_armed_at_issue_fails_the_reply(self):
        # Expected: the RPC times out.  Its expiry was scheduled at
        # t=0, before its reply was (t=0.5), so it fires first at 1.0.
        sim = Simulator()
        net = make_network(sim, sigma=0.0, rtt=1.0)
        net.attach("client")
        net.attach("server", rpc_handler=lambda p, s: "pong")
        reply = net.rpc("client", "server", "ping", timeout=1.0)
        settled = []
        reply.add_callback(lambda f: settled.append(sim.now))
        sim.run()
        assert reply.failed and settled == [1.0]
        assert str(reply.exception) == \
            "RPC from 'client' to 'server' timed out"

    def test_expiry_rearmed_after_the_reply_was_sent_resolves_it(self):
        # Expected: the second RPC (issued at 0.25, deadline 1.25)
        # resolves at 1.25.  Its reply was scheduled at 0.75; its
        # expiry was re-armed at 1.0, when the first deadline passed,
        # so the reply fires first.  A timer armed at 0.25 would have
        # failed it.
        sim = Simulator()
        net = make_network(sim, sigma=0.0, rtt=1.0)
        net.attach("client")
        net.attach("server", rpc_handler=lambda p, s: p)
        replies, settled = [], []

        def issue(payload):
            reply = net.rpc("client", "server", payload, timeout=1.0)
            reply.add_callback(lambda f: settled.append((payload, sim.now)))
            replies.append(reply)

        sim.schedule_at(0.0, issue, "first")
        sim.schedule_at(0.25, issue, "second")
        sim.run()
        assert settled == [("first", 1.0), ("second", 1.25)]
        assert replies[0].failed and replies[1].value == "second"


class ScriptedFaults(FaultInjector):
    """Drops the network's n-th message when ``script[n]`` is True."""

    def __init__(self, script):
        super().__init__()
        self._script = list(script)

    def should_drop(self, src, dst, now):
        return self._script.pop(0) if self._script else False


#: Instants on a 1/8 s grid, so deadlines, replies and detaches tie.
instants = st.integers(0, 24).map(lambda k: k / 8)
#: (issue time, timeout, what the server's handler does, how late a
#: deferred reply resolves).  Off-grid issue times keep deadlines apart.
rpc_plans = st.lists(
    st.tuples(st.one_of(instants, st.floats(0.0, 3.0)),
              st.sampled_from((0.0, 0.25, 1.0)),
              st.sampled_from(("value", "raise", "late", "never")),
              instants),
    min_size=1, max_size=25)
#: (host, detached at, re-attached this long after).
flaps = st.lists(
    st.tuples(st.sampled_from(("client", "server")), instants, instants),
    max_size=3)


@settings(max_examples=300, deadline=None)
@given(rpc_plans, flaps,
       st.lists(st.sampled_from((False, False, False, True)), max_size=60),
       st.sampled_from((0.0, 0.4)))
def test_every_rpc_settles_once_by_its_deadline(plans, flaps, drops,
                                                sigma):
    """Two timeout values (and zero) interleaved on one network, with
    dropped requests and replies, hosts detaching mid-flight and
    handlers that answer now, raise, answer late or never: every RPC
    settles exactly once; a timed-out one at exactly issue time + its
    timeout, any other outcome no later than that."""
    sim = Simulator()
    net = make_network(sim, sigma=sigma, faults=ScriptedFaults(drops),
                       rtt=0.125)

    def serve(index, src):
        _, _, behaviour, late = plans[index]
        if behaviour == "raise":
            raise ValueError(index)
        if behaviour == "value":
            return index
        deferred = Future()
        if behaviour == "late":
            sim.schedule_after(late, deferred.resolve, index)
        return deferred

    def attach(host):
        net.attach(host, rpc_handler=serve if host == "server" else None)

    issued = []  # (issue time, timeout, reply, [settle times])

    def issue(index):
        if not net.is_attached("client"):
            return
        _, timeout, _, _ = plans[index]
        settled = []
        reply = net.rpc("client", "server", index, timeout=timeout)
        reply.add_callback(lambda f: settled.append(sim.now))
        issued.append((sim.now, timeout, reply, settled))

    attach("client")
    attach("server")
    for index, (at, _, _, _) in enumerate(plans):
        sim.schedule_at(at, issue, index)
    for host, at, down_for in flaps:
        sim.schedule_at(at, net.detach, host)
        sim.schedule_at(at + down_for, attach, host)
    sim.run()

    for issued_at, timeout, reply, settled in issued:
        deadline = issued_at + timeout
        assert reply.done and len(settled) == 1
        if str(reply.exception).endswith("timed out"):
            assert isinstance(reply.exception, HostUnreachableError)
            assert settled == [deadline]
        else:
            assert settled[0] <= deadline

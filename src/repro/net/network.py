"""The simulated wide-area network: message delivery and RPC.

Hosts attach to the network with handlers; the network samples a one-way
delay from the :class:`~repro.net.latency.LatencyModel` for every
message and schedules delivery on the simulator.  A
:class:`~repro.net.partition.FaultInjector` may silently drop messages,
which is how partitions look to black-box clients.

Two communication styles are offered:

* :meth:`Network.send` — fire-and-forget datagram, delivered to the
  destination's message handler.  Used by replication substrates for
  anti-entropy traffic.
* :meth:`Network.rpc` — request/response.  The destination's RPC handler
  computes a reply (returning either a value or a
  :class:`~repro.sim.future.Future` for delayed replies); the reply
  travels back with an independently sampled delay and resolves the
  caller's future.  Used by the web-API layer and the clock-sync
  protocol.  RPCs carry a timeout so that partitions surface as
  :class:`~repro.errors.HostUnreachableError` rather than hung agents.
  A timeout costs no event of its own, only an append to a deadline
  FIFO and a pop.  Each timeout value (web-API clients' 10 s, a quorum
  frontend's 5 s) has its own FIFO, which is then in deadline order,
  with at most one armed expiry event; a shared FIFO would hold late
  deadlines ahead of earlier ones.

What a message needs that depends only on its ``(src, dst)`` pair — the
link's request / datagram counter and the reply future's label — is
resolved at the link's first message and looked up afterwards, so a
link's ``net.*`` series appears with its first message, never at
:meth:`Network.attach`.  Nothing here caches a delay: the topology is
mutable (see :mod:`repro.net.topology`) and
:class:`~repro.net.latency.LatencyModel` owns that memo and its
invalidation.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.errors import HostUnreachableError, NetworkError
from repro.net.latency import LatencyModel
from repro.net.partition import FaultInjector
from repro.obs.context import ObsContext
from repro.obs.metrics import Counter
from repro.sim.event_loop import Simulator
from repro.sim.future import Future

__all__ = ["Message", "Network", "DEFAULT_RPC_TIMEOUT"]

#: Default RPC timeout in (virtual) seconds.  Generous compared to WAN
#: RTTs so it only fires on genuine outages.
DEFAULT_RPC_TIMEOUT = 10.0

#: One timeout value's RPCs in issue order: (deadline, src, dst, reply).
_Deadlines = deque[tuple[float, str, str, Future]]
#: Handler invoked with each delivered datagram.
MessageHandler = Callable[["Message"], None]
#: Handler invoked with (payload, src_host); returns reply or Future.
RpcHandler = Callable[[Any, str], Any]


@dataclass(slots=True)
class Message:
    """One delivered datagram, with ground-truth timing attached."""

    src: str
    dst: str
    payload: Any
    send_time: float
    deliver_time: float


class _Endpoint:
    """A host's attachment record."""

    __slots__ = ("message_handler", "rpc_handler")

    def __init__(self, message_handler: MessageHandler | None,
                 rpc_handler: RpcHandler | None) -> None:
        self.message_handler = message_handler
        self.rpc_handler = rpc_handler


class Network:
    """Connects named hosts over a latency model with fault injection."""

    def __init__(self, sim: Simulator, latency: LatencyModel,
                 faults: FaultInjector | None = None,
                 obs: ObsContext | None = None) -> None:
        self._sim = sim
        self._latency = latency
        self._faults = faults or FaultInjector()
        #: The observability context every layer above reaches through
        #: its network reference (API clients, agents, replication
        #: substrates).  None = uninstrumented, zero overhead.  Fixed
        #: at construction: every layer keeps the handles it resolved.
        self.obs = obs
        self._endpoints: dict[str, _Endpoint] = {}
        #: (src, dst) -> (the link's ``net.rpc_requests_total`` counter,
        #: or None when uninstrumented; its reply futures' label).
        self._rpc_links: dict[tuple[str, str],
                              tuple[Counter | None, str]] = {}
        #: (src, dst) -> the link's ``net.datagrams_total`` counter.
        self._datagram_counters: dict[tuple[str, str], Counter] = {}
        #: RPC timeout -> its FIFO; one ``_expire`` is armed iff non-empty.
        self._deadlines: defaultdict[float, _Deadlines] = defaultdict(deque)
        self._messages_sent = 0
        self._messages_delivered = 0

    # -- Attachment ---------------------------------------------------------

    def attach(self, host: str, message_handler: MessageHandler | None = None,
               rpc_handler: RpcHandler | None = None) -> None:
        """Attach ``host``; its region must already be in the topology."""
        if not self._latency.topology.has_host(host):
            raise NetworkError(
                f"host {host!r} is not placed in the topology; call "
                f"Topology.place_host first"
            )
        self._endpoints[host] = _Endpoint(message_handler, rpc_handler)

    def detach(self, host: str) -> None:
        """Remove ``host``; in-flight messages to it — datagrams, RPC
        requests and RPC replies — are dropped on arrival."""
        self._endpoints.pop(host, None)

    def is_attached(self, host: str) -> bool:
        return host in self._endpoints

    @property
    def faults(self) -> FaultInjector:
        return self._faults

    @property
    def latency(self) -> LatencyModel:
        return self._latency

    # -- Datagrams --------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Send a fire-and-forget datagram (maybe dropped by faults)."""
        self._require_attached(src)
        self._require_attached(dst)
        self._messages_sent += 1
        if self.obs is not None:
            counter = self._datagram_counters.get((src, dst))
            if counter is None:
                counter = self._datagram_counters[src, dst] = (
                    self.obs.metrics.counter("net.datagrams_total",
                                             src=src, dst=dst))
            counter.inc()
        send_time = self._sim.now
        if self._faults.should_drop(src, dst, send_time):
            return
        self._sim.schedule_after(
            self._latency.sample_one_way(src, dst),
            self._deliver, src, dst, payload, send_time
        )

    def _deliver(self, src: str, dst: str, payload: Any,
                 send_time: float) -> None:
        endpoint = self._endpoints.get(dst)
        if endpoint is None or endpoint.message_handler is None:
            return  # host detached mid-flight, or no datagram handler
        self._messages_delivered += 1
        endpoint.message_handler(
            Message(src, dst, payload, send_time, self._sim.now)
        )

    # -- RPC ------------------------------------------------------------------

    def rpc(self, src: str, dst: str, payload: Any,
            timeout: float = DEFAULT_RPC_TIMEOUT) -> Future:
        """Issue a request/response exchange; returns the reply future.

        Unanswered by ``now + timeout``, it fails then with
        :class:`~repro.errors.HostUnreachableError`.  The first deadline
        in an empty FIFO arms the expiry, which re-arms at the next open
        one: its tie-break rank is when it was armed, so a reply due at
        exactly a deadline armed after the reply was sent wins it.
        """
        if not timeout >= 0:
            raise NetworkError(
                f"RPC timeout must be a non-negative number of seconds, "
                f"got {timeout!r}"
            )
        self._require_attached(src)
        link = self._rpc_links.get((src, dst))
        if link is None:
            link = self._rpc_links[src, dst] = (
                None if self.obs is None else self.obs.metrics.counter(
                    "net.rpc_requests_total", src=src, dst=dst),
                f"rpc {src}->{dst}",
            )
        requests, label = link
        if requests is not None:
            requests.inc()
        reply = Future(label)
        endpoint = self._endpoints.get(dst)
        if endpoint is None or endpoint.rpc_handler is None:
            reply.fail(HostUnreachableError(
                f"host {dst!r} is not attached or has no RPC handler"
            ))
            return reply

        self._messages_sent += 1
        now = self._sim.now
        if not self._faults.should_drop(src, dst, now):
            self._sim.schedule_after(
                self._latency.sample_one_way(src, dst),
                self._serve_rpc, src, dst, payload, reply
            )
        # The deadline covers both dropped requests and dropped replies.
        deadlines = self._deadlines[timeout]
        if not deadlines:
            self._sim.schedule_after(timeout, self._expire, deadlines)
        deadlines.append((now + timeout, src, dst, reply))
        return reply

    def _serve_rpc(self, src: str, dst: str, payload: Any,
                   reply: Future) -> None:
        endpoint = self._endpoints.get(dst)
        if endpoint is None or endpoint.rpc_handler is None:
            return  # server went away while the request was in flight
        self._messages_delivered += 1
        try:
            result = endpoint.rpc_handler(payload, src)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            self._send_reply(dst, src, reply, exception=exc)
            return
        if isinstance(result, Future):
            result.add_callback(
                partial(self._send_deferred_reply, dst, src, reply))
        else:
            self._send_reply(dst, src, reply, value=result)

    def _send_deferred_reply(self, src: str, dst: str, reply: Future,
                             done: Future) -> None:
        """Ship the outcome of the future an RPC handler returned."""
        self._send_reply(src, dst, reply,
                         value=None if done.failed else done.value,
                         exception=done.exception)

    def _send_reply(self, src: str, dst: str, reply: Future,
                    value: Any = None,
                    exception: BaseException | None = None) -> None:
        """Ship an RPC reply from server ``src`` back to client ``dst``."""
        if reply.done:
            return  # the caller already timed out
        self._messages_sent += 1
        if self._faults.should_drop(src, dst, self._sim.now):
            return  # reply lost; caller's timeout will fire
        delay = self._latency.sample_one_way(src, dst)
        self._sim.schedule_after(
            delay, self._resolve_reply, dst, reply, value, exception
        )

    def _resolve_reply(self, dst: str, reply: Future, value: Any,
                       exception: BaseException | None) -> None:
        if dst not in self._endpoints:
            return  # client detached mid-flight; its timeout will fire
        self._messages_delivered += 1
        if reply.done:
            return  # the caller already timed out
        if exception is not None:
            reply.fail(exception)
        else:
            reply.resolve(value)

    def _expire(self, deadlines: _Deadlines) -> None:
        """Fail the FIFO's overdue replies; re-arm at its next open one."""
        now = self._sim.now
        while deadlines:
            deadline, src, dst, reply = deadlines[0]
            if not reply.done:
                if deadline > now:
                    self._sim.schedule_at(deadline, self._expire, deadlines)
                    return
                reply.fail(HostUnreachableError(
                    f"RPC from {src!r} to {dst!r} timed out"))
            deadlines.popleft()

    # -- Stats ------------------------------------------------------------

    @property
    def messages_sent(self) -> int:
        """Messages handed to the network — datagrams, RPC requests and
        RPC replies alike — whether or not a fault then dropped them.

        Once nothing is in flight, ``messages_sent ==
        messages_delivered + faults.dropped_messages`` + the messages
        whose destination detached (or had no handler) on arrival.
        """
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        """Messages that reached an attached destination's handler
        (for a reply: the client, even if its timeout already fired)."""
        return self._messages_delivered

    def _require_attached(self, host: str) -> None:
        if host not in self._endpoints:
            raise HostUnreachableError(f"host {host!r} is not attached")

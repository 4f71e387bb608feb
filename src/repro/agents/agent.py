"""Measurement agents: the probing clients of the methodology (§IV).

An agent is one geo-located machine running the paper's probe logic:
it issues writes and continuously reads in the background, logging
every operation with its *local* clock readings (the coordinator's
delta estimates translate them later).  Agents interact with services
exclusively through a :class:`~repro.services.base.ServiceSession` —
the black-box API handle — and answer the coordinator's time queries.

Agents parse only the current test's messages out of API responses
(``message_filter``), mirroring how the paper's agents recognized their
own posts among unrelated feed content.
"""

from __future__ import annotations

from typing import Iterable

from repro.clocksync.cristian import make_time_query_handler
from repro.core.trace import ReadOp, TestTrace, WriteOp
from repro.errors import (
    HostUnreachableError,
    RateLimitExceededError,
    ReproError,
    ServiceError,
)
from repro.net.network import Network
from repro.services.base import ServiceSession
from repro.sim.clock import DriftingClock
from repro.sim.event_loop import Simulator

__all__ = ["MeasurementAgent"]


class MeasurementAgent:
    """One probing client at a fixed location."""

    def __init__(self, sim: Simulator, name: str, host: str,
                 clock: DriftingClock, network: Network,
                 session: ServiceSession) -> None:
        self._sim = sim
        self.name = name
        self.host = host
        self.clock = clock
        self.session = session
        obs = network.obs
        #: The tracer this agent's operation spans go to, or None when
        #: nobody keeps them: a span no one stores is not opened.
        self._tracer = (obs.tracer if obs is not None and obs.tracer.keeps
                        else None)
        # Answer the coordinator's Cristian time queries.
        network.attach(host, rpc_handler=make_time_query_handler(clock))
        self._trace: TestTrace | None = None
        self._message_filter: frozenset[str] = frozenset()
        self._seen: set[str] = set()
        self._reading = False
        self.total_reads = 0
        self.total_writes = 0
        self.failed_requests = 0

    # -- Test lifecycle --------------------------------------------------

    def begin_test(self, trace: TestTrace,
                   message_ids: Iterable[str]) -> None:
        """Start logging into ``trace``, recognizing ``message_ids``."""
        self._trace = trace
        self._message_filter = frozenset(message_ids)
        self._seen = set()

    def end_test(self) -> None:
        """Stop logging (reads outside tests are discarded)."""
        self._trace = None
        self._reading = False

    @property
    def in_test(self) -> bool:
        return self._trace is not None

    def has_seen(self, message_id: str) -> bool:
        """Has any read in the current test observed ``message_id``?"""
        return message_id in self._seen

    # -- Operations (generators; drive with `yield from`) ---------------------

    def timed_post(self, message_id: str, retries: int = 5):
        """Issue one write and log it with local invocation/response times.

        Rate-limit rejections back off for the service's ``retry_after``
        hint and retry (a deliberate probe write must eventually land);
        other failures return False without logging — a rejected write
        inserted no event.
        """
        invoke_local = self.clock.now()
        true_invoke = self._sim.now
        tracer = self._tracer
        span = None
        if tracer is not None:
            span = tracer.start("agent.write", agent=self.name)
        attempt = 0
        wire_requests = 0
        ok = False
        # The finally clause closes the span on *every* exit path —
        # success, retry exhaustion, hard failure — so span attempt
        # totals always reconcile with the client's wire counters.
        try:
            while True:
                try:
                    wire_requests += 1
                    yield self.session.post_message(message_id)
                    break
                except RateLimitExceededError as exc:
                    self.failed_requests += 1
                    attempt += 1
                    if attempt > retries:
                        return False
                    yield exc.retry_after or 1.0
                except (ServiceError, HostUnreachableError):
                    self.failed_requests += 1
                    return False
            ok = True
        finally:
            if span is not None:
                tracer.finish(
                    span, message_id=message_id,
                    attempts=wire_requests, rate_limited=attempt,
                    ok=ok,
                )
        self.total_writes += 1
        if self._trace is not None:
            self._trace.record(WriteOp(
                agent=self.name,
                message_id=message_id,
                invoke_local=invoke_local,
                response_local=self.clock.now(),
                true_invoke=true_invoke,
                true_response=self._sim.now,
            ))
        return True

    def timed_fetch(self):
        """Issue one read; log and return the filtered observation.

        Returns the tuple of observed in-test message ids, or None if
        the request failed (failed reads are not logged).
        """
        invoke_local = self.clock.now()
        true_invoke = self._sim.now
        tracer = self._tracer
        span = None
        if tracer is not None:
            span = tracer.start("agent.read", agent=self.name)
        status = "error"
        try:
            try:
                observed = yield self.session.fetch_messages()
            except RateLimitExceededError:
                # Surfaced to the read loop, which owns back-off
                # policy; the retry there is a *new* read span.
                self.failed_requests += 1
                status = "rate_limited"
                raise
            except (ServiceError, HostUnreachableError):
                self.failed_requests += 1
                return None
            status = "ok"
        finally:
            if span is not None:
                tracer.finish(
                    span, attempts=1, status=status,
                    ok=status == "ok",
                )
        filtered = tuple(filter(self._message_filter.__contains__,
                                observed))
        self.total_reads += 1
        if self._trace is not None:
            self._trace.record(ReadOp(
                agent=self.name,
                observed=filtered,
                invoke_local=invoke_local,
                response_local=self.clock.now(),
                true_invoke=true_invoke,
                true_response=self._sim.now,
            ))
            self._seen.update(filtered)
        return filtered

    # -- Background read loop -------------------------------------------------

    def read_loop(self, period: float, max_reads: int | None = None,
                  slow_after: int | None = None,
                  slow_period: float = 1.0):
        """Continuously read in the background (§IV).

        Reads every ``period`` seconds; after ``slow_after`` reads the
        cadence drops to ``slow_period`` (Test 2's adaptive schedule,
        "initially it is short, and then it becomes one second").
        Stops after ``max_reads`` reads, or when the test ends.  A 429
        answer backs off for the service's ``retry_after`` hint.
        """
        self._reading = True
        reads_done = 0
        while self._reading and self.in_test:
            if max_reads is not None and reads_done >= max_reads:
                break
            started = self._sim.now
            try:
                yield from self.timed_fetch()
            except RateLimitExceededError as exc:
                yield exc.retry_after or 1.0
                continue
            reads_done += 1
            current_period = period
            if slow_after is not None and reads_done >= slow_after:
                current_period = slow_period
            elapsed = self._sim.now - started
            yield max(current_period - elapsed, 0.0)
        self._reading = False
        return reads_done

    def stop_reading(self) -> None:
        """Ask the read loop to stop at its next wakeup."""
        self._reading = False

    def wait_until_seen(self, message_id: str, poll_period: float = 0.05):
        """Block (in virtual time) until a read observed ``message_id``."""
        while not self.has_seen(message_id):
            if not self.in_test:
                raise ReproError(
                    f"test ended while {self.name} waited for "
                    f"{message_id}"
                )
            yield poll_period

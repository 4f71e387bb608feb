"""The unified typed event protocol of the observability layer.

The fleet executor's progress events, the divergence-window
tracker's :class:`WindowEvent` and the campaign runner's
:class:`OperationObserver` hook are one concern: *typed events a
running measurement emits for consumers that only watch*.  This module
is their only home; :mod:`repro.fleet` and :mod:`repro.stream`
re-export some of them.  The dispatch loop's ``Shard*`` events and the
campaign service's ``Hunt*`` events are also a hunt's event feed:
:func:`feed_record` is their one encoding.

Design rules shared by every event here:

* events are plain frozen dataclasses (or a ``Protocol`` for the
  callback-shaped surface), so tests can assert exact sequences;
* event ordering and timing may vary with worker scheduling, but the
  *measured results* they describe never do — telemetry is
  observability, not output.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Protocol

if TYPE_CHECKING:  # annotations only: this module is a leaf that
    # repro.core.windows (the emitter of WindowEvent) imports.
    from repro.core.trace import Operation, TestTrace

__all__ = [
    "ObsEvent",
    "OperationObserver",
    "WindowEvent",
    "FleetEvent",
    "FleetStarted",
    "FleetCompleted",
    "ShardEvent",
    "ShardStarted",
    "ShardTestChecked",
    "ShardCompleted",
    "ShardRetried",
    "ShardSkipped",
    "HuntEvent",
    "HuntSubmitted",
    "HuntStateChanged",
    "EventCallback",
    "feed_record",
    "render_event",
]


@dataclass(frozen=True)
class ObsEvent:
    """Base class of every typed telemetry event."""


# -- Live operation stream (the runner's observer hook) -----------------


class OperationObserver(Protocol):
    """Live per-operation hook into a running campaign.

    The online detection path (:mod:`repro.stream`) and trace-event
    exporters implement this protocol; ``run_campaign(observer=...)``
    wires it in.  Calls arrive in simulation order:

    * ``test_opened(trace)`` — the trace exists, clock deltas and the
      WFR trigger map are final, no operation has been logged yet;
    * ``operation(trace, op)`` — one operation, the instant an agent
      logs it (i.e. at the op's true response time);
    * ``test_closed(trace)`` — the test finished; no more operations
      will be logged into this trace.
    """

    def test_opened(self, trace: TestTrace) -> None: ...

    def operation(self, trace: TestTrace, op: Operation) -> None: ...

    def test_closed(self, trace: TestTrace) -> None: ...


# -- Streaming window telemetry -----------------------------------------


@dataclass(frozen=True)
class WindowEvent(ObsEvent):
    """A divergence window opening or closing, live.

    ``kind`` is ``"content"`` or ``"order"``; ``action`` is
    ``"opened"`` or ``"closed"``.  For ``closed`` events ``start``
    carries the matching open time, so a consumer can render the
    completed interval without keeping its own per-pair state.
    """

    kind: str
    action: str
    pair: tuple[str, str]
    time: float
    start: float | None = None


# -- Shard and fleet telemetry ------------------------------------------


@dataclass(frozen=True)
class FleetEvent(ObsEvent):
    """Base class of every fleet telemetry event."""


@dataclass(frozen=True)
class FleetStarted(FleetEvent):
    """Emitted once by ``run_fleet``, before any shard work."""

    total_shards: int
    jobs: int
    #: Shards restored from the artifact store instead of executed.
    resumed: int


@dataclass(frozen=True)
class FleetCompleted(FleetEvent):
    """Emitted once by ``run_fleet``, after the ordered merge."""

    executed: int
    skipped: int
    retries: int


@dataclass(frozen=True)
class ShardEvent(FleetEvent):
    """Base class of the dispatch loop's per-shard events.

    Carries the shard's identity and ``hunt_id``, the run it belongs
    to: the hunt's id under the campaign service, empty under
    ``run_fleet``.  ``wire`` names the event's record in a hunt feed.
    """

    wire: ClassVar[str]

    shard_id: str
    index: int
    total: int
    service: str
    seed: int
    label: str | None
    hunt_id: str = ""


@dataclass(frozen=True)
class ShardStarted(ShardEvent):
    wire = "shard.started"
    attempt: int = 1


@dataclass(frozen=True)
class ShardTestChecked(ShardEvent):
    """One test of a shard finished and was checked *online*.

    Only streaming shards (``run_fleet(..., stream=True)``, a hunt
    submitted with ``stream=True``) emit these — the batch path has
    nothing to report until a whole shard returns.  ``anomalies`` maps
    anomaly kind to this test's observation count (zero counts
    omitted); ``state_size`` is the worker engine's retained-atom
    count right after the test closed.  A hunt's shards also carry
    ``windows``, the test's per-pair divergence-window verdicts
    (``{"content": [...], "order": [...]}``, each entry ``{"pair",
    "intervals", "converged"}``), so a follower of the feed sees *what
    diverged and for how long*.
    """

    wire = "test.checked"
    test_id: str = ""
    test_index: int = 0
    anomalies: dict[str, int] | None = None
    windows: dict[str, list] | None = None
    state_size: int = 0


@dataclass(frozen=True)
class ShardCompleted(ShardEvent):
    """The shard's result is merged and, with a store, persisted."""

    wire = "shard.completed"
    attempts: int = 1
    records: int = 0


@dataclass(frozen=True)
class ShardRetried(ShardEvent):
    """An attempt died environmentally; ``attempt`` is the re-queued one."""

    wire = "shard.retried"
    attempt: int = 1
    reason: str = ""


@dataclass(frozen=True)
class ShardSkipped(ShardEvent):
    """Restored from the run's artifact store instead of executed."""

    wire = "shard.skipped"
    reason: str = "complete in store"


# -- Campaign-service (hunt) telemetry ----------------------------------


@dataclass(frozen=True)
class HuntEvent(ObsEvent):
    """Base class of the campaign service's lifecycle events."""

    wire: ClassVar[str]

    hunt_id: str


@dataclass(frozen=True)
class HuntSubmitted(HuntEvent):
    """A hunt entered the queue."""

    wire = "hunt.submitted"
    services: tuple[str, ...] = ()
    shards: int = 0


@dataclass(frozen=True)
class HuntStateChanged(HuntEvent):
    """A hunt moved between lifecycle states."""

    wire = "hunt.state"
    previous: str = ""
    status: str = ""
    #: The merged golden signature, on the transition to "done".
    signature: str | None = None
    #: Failure detail, on the transition to "failed".
    error: str | None = None


EventCallback = Callable[[FleetEvent], None]


def feed_record(event: ShardEvent | HuntEvent) -> dict[str, Any]:
    """The hunt feed's record of ``event``, ``seq`` aside.

    The campaign service appends this for every event it forwards, so
    a hunt's ``events.jsonl`` is exactly its event sequence: the wire
    name under ``"event"``, then every field, tuples as lists.
    """
    record: dict[str, Any] = {"event": event.wire}
    for item in fields(event):
        value = getattr(event, item.name)
        record[item.name] = list(value) if isinstance(value, tuple) \
            else value
    return record


def _shard_label(event: ShardEvent) -> str:
    run = f"hunt {event.hunt_id}: " if event.hunt_id else ""
    extra = f" {event.label}" if event.label else ""
    return (f"{run}[{event.index + 1}/{event.total}] {event.service}"
            f"{extra} seed={event.seed}")


def render_event(event: FleetEvent) -> str | None:
    """One human-readable progress line per event (None = silent)."""
    if isinstance(event, FleetStarted):
        resumed = (f", {event.resumed} resumed from store"
                   if event.resumed else "")
        return (f"fleet: {event.total_shards} shards on "
                f"{event.jobs} worker(s){resumed}")
    if isinstance(event, ShardStarted):
        attempt = (f" (attempt {event.attempt})"
                   if event.attempt > 1 else "")
        return f"{_shard_label(event)} started{attempt}"
    if isinstance(event, ShardTestChecked):
        if event.anomalies:
            found = ", ".join(f"{kind}={count}" for kind, count
                              in sorted(event.anomalies.items()))
        else:
            found = "clean"
        open_windows = sum(
            1 for results in (event.windows or {}).values()
            for result in results if not result["converged"]
        )
        if open_windows:
            found += f", {open_windows} unconverged window(s)"
        return (f"{_shard_label(event)} checked {event.test_id}: "
                f"{found} (state={event.state_size})")
    if isinstance(event, ShardCompleted):
        return (f"{_shard_label(event)} done: {event.records} records"
                + (f" after {event.attempts} attempts"
                   if event.attempts > 1 else ""))
    if isinstance(event, ShardRetried):
        return (f"{_shard_label(event)} retrying "
                f"(attempt {event.attempt} {event.reason})")
    if isinstance(event, ShardSkipped):
        return f"{_shard_label(event)} skipped: {event.reason}"
    if isinstance(event, FleetCompleted):
        return (f"fleet: done ({event.executed} executed, "
                f"{event.skipped} skipped, {event.retries} retries)")
    if isinstance(event, HuntSubmitted):
        services = ",".join(event.services)
        return (f"hunt {event.hunt_id}: submitted ({services}, "
                f"{event.shards} shards)")
    if isinstance(event, HuntStateChanged):
        detail = ""
        if event.signature:
            detail = f" signature={event.signature[:12]}..."
        elif event.error:
            detail = f" ({event.error.splitlines()[0]})"
        return (f"hunt {event.hunt_id}: {event.previous} -> "
                f"{event.status}{detail}")
    return None

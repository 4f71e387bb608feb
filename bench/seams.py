"""The program's public seams, wrapped for the length of a traced run.

Nothing under ``src/`` changes and no underscore-prefixed name is
touched: :func:`patched` replaces public methods and public
module-level names with timing wrappers from a
:class:`~bench.tracing.Tracer` and puts the originals back on exit,
whatever the workload raised.

In the simulate phase the layers call each other through scheduled
callbacks, so three seams hand wrapped callables onward instead of
timing a call: ``Simulator.schedule_at`` (every event callback, named
after the package that owns it), ``Network.attach`` (message and RPC
handlers) and the iterator ``iter_trace_events`` returns.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.fleet.digest
import repro.io
import repro.methodology.runner
import repro.relations.batch
import repro.stream.ingest
import repro.world.engine
from repro.fleet.store import ArtifactStore
from repro.net.network import Network
from repro.net.partition import FaultInjector
from repro.obs.context import ObsContext
from repro.relations.streaming import StreamingMetricEvaluator
from repro.replication import (
    DatacenterReplica,
    EventualGroup,
    GeoGroupStore,
    GroupReplica,
    PrimaryBackupGroup,
    RankedFeedStore,
    VersionedStore,
)
from repro.sim.event_loop import Simulator
from repro.stream.engine import StreamEngine
from repro.webapi.client import ApiClient
from repro.webapi.router import Router
from repro.world.buffers import CohortBuffer
from repro.world.bus import WorldBus

from bench.tracing import END, Tracer

__all__ = ["patched", "layer_of_module", "UNIT_SEAMS", "SETUP_SEAMS"]

#: ``repro.<package>`` -> the layer its callbacks and handlers are
#: charged to.  Agents, clock sync and the test templates are the
#: generator bodies the event loop resumes (``sim.self_s``); service
#: glue and scenario engines sit on the request path with ``webapi``.
_LAYER_OF_PACKAGE = {
    "net": "net",
    "webapi": "webapi",
    "services": "webapi",
    "scenario": "webapi",
    "replication": "replication",
    "world": "world",
    "stream": "stream",
    "obs": "obs",
}


def layer_of_module(module: str | None) -> str:
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return _LAYER_OF_PACKAGE.get(parts[1], "sim")
    return "sim"


# -- Plain seams: (owner, attribute, span name, count name) -------------

UNIT_SEAMS: list[tuple[Any, str, str, str | None]] = [
    (Network, "send", "net.send", None),
    (Network, "rpc", "net.rpc", None),
    (ApiClient, "get", "webapi.get", None),
    (ApiClient, "post", "webapi.post", None),
    # A service calls either the group or a replica; group calls nest
    # the replica's, and per-layer counts take the outermost span.
    (PrimaryBackupGroup, "write", "replication.write", None),
    (PrimaryBackupGroup, "read", "replication.read", None),
    (PrimaryBackupGroup, "read_backup", "replication.read", None),
    (EventualGroup, "write", "replication.write", None),
    (EventualGroup, "read", "replication.read", None),
    (DatacenterReplica, "accept_write", "replication.write", None),
    (DatacenterReplica, "read", "replication.read", None),
    (GeoGroupStore, "write", "replication.write", None),
    (GeoGroupStore, "read", "replication.read", None),
    (GroupReplica, "accept_write", "replication.write", None),
    (GroupReplica, "read", "replication.read", None),
    (RankedFeedStore, "write", "replication.write", None),
    (RankedFeedStore, "read", "replication.read", None),
    (VersionedStore, "insert", "replication.store_insert",
     "replication.store_entries"),
    (VersionedStore, "view_now", "replication.store_view", None),
    (VersionedStore, "view_at", "replication.store_view", None),
    (ObsContext, "snapshot", "obs.snapshot", None),
    (StreamEngine, "observe", "stream.observe", "stream.ops"),
    (StreamingMetricEvaluator, "observe", "relations.observe", None),
    (StreamingMetricEvaluator, "close_test", "relations.close_test",
     None),
    (WorldBus, "send", "world.bus_send", None),
    (WorldBus, "drain_until", "world.bus_drain", None),
    (CohortBuffer, "add_read", "world.buffer_add", None),
    (CohortBuffer, "add_write", "world.buffer_add", None),
    (CohortBuffer, "materialize", "world.buffer_materialize", None),
    (ArtifactStore, "load_shard_records", "io.load", None),
    # Module-level names, patched where they are looked up.
    (repro.methodology.runner, "check_all", "core.anomalies.check",
     None),
    (repro.methodology.runner, "content_divergence_windows",
     "core.windows.content", "core.windows.windows"),
    (repro.methodology.runner, "order_divergence_windows",
     "core.windows.order", "core.windows.windows"),
    (repro.relations.batch, "evaluate_metrics", "relations.eval", None),
    (repro.io, "record_to_dict", "io.encode_record", None),
    (repro.io, "operation_from_dict", "io.parse_op", None),
    (repro.io, "trace_from_meta_dict", "io.parse_meta", None),
    (repro.stream.ingest, "operation_from_dict", "io.parse_op", None),
    (repro.stream.ingest, "trace_from_meta_dict", "io.parse_meta",
     None),
    (repro.fleet.digest, "canonical_json", "io.encode_json", None),
    (repro.world.engine, "record_to_dict", "io.encode_record", None),
    (repro.world.engine, "canonical_json", "io.encode_json", None),
    (repro.world.engine, "replay_trace", "stream.replay", None),
]

#: The archive build is traced at shard granularity only, so set-up
#: runs at its untraced speed.
SETUP_SEAMS: list[tuple[Any, str, str, str | None]] = [
    (ArtifactStore, "write_shard", "fleet.store_write", "fleet.shards"),
]


# -- Seams that hand wrapped callables onward ---------------------------


def _run_until(tracer: Tracer, original: Callable) -> Callable:
    timed = tracer.wrap(original, "sim.run_until")

    def run_until(self, *args, **kwargs):
        tracer.remember("sim", self)
        return timed(self, *args, **kwargs)

    return run_until


def _schedule_at(tracer: Tracer, original: Callable) -> Callable:
    names: dict[str, str] = {}
    spans = tracer.spans
    clock = time.perf_counter

    def run_event(name: str, callback: Callable, args: tuple) -> None:
        parent = tracer.current
        tracer.current = len(spans)
        record = [name, clock(), 0.0, parent]
        spans.append(record)
        try:
            callback(*args)
        finally:
            record[END] = clock()
            tracer.current = parent

    def schedule_at(self, time, callback, *args):
        # A wrapped seam scheduled directly (``Network.send``) belongs
        # to the layer of what it wraps, not to this package.
        owner = getattr(callback, "__wrapped__", callback)
        module = getattr(owner, "__module__", None) or ""
        name = names.get(module)
        if name is None:
            name = names[module] = f"{layer_of_module(module)}.event"
        return original(self, time, run_event, name, callback, args)

    return schedule_at


def _attach(tracer: Tracer, original: Callable) -> Callable:
    def handler_span(handler):
        if handler is None:
            return None
        layer = layer_of_module(getattr(handler, "__module__", None))
        return tracer.wrap(handler, f"{layer}.handler")

    def attach(self, host, message_handler=None, rpc_handler=None):
        return original(self, host, handler_span(message_handler),
                        handler_span(rpc_handler))

    return attach


def _should_drop(tracer: Tracer, original: Callable) -> Callable:
    counts = tracer.counts

    def should_drop(self, src, dst, now):
        dropped = original(self, src, dst, now)
        if dropped:
            counts["net.dropped"] += 1
        return dropped

    return should_drop


def _resolve(tracer: Tracer, original: Callable) -> Callable:
    timed = tracer.wrap(original, "webapi.resolve")
    routes = tracer.seen.setdefault("routes", {})

    def resolve(self, method, path):
        # Kept for the isolated ``webapi.resolve_us`` micro-driver.
        routes.setdefault((id(self), method, path), (self, method, path))
        return timed(self, method, path)

    return resolve


def _close_test(tracer: Tracer, original: Callable) -> Callable:
    timed = tracer.wrap(original, "stream.close_test")
    counts = tracer.counts

    def close_test(self, *args, **kwargs):
        # A test's state peaks right before it is retired.
        counts["stream.peak_state"] = max(counts["stream.peak_state"],
                                          self.state_size())
        return timed(self, *args, **kwargs)

    return close_test


_HANDOVER_SEAMS: list[tuple[Any, str, Callable]] = [
    (Simulator, "run_until", _run_until),
    (Simulator, "schedule_at", _schedule_at),
    (Network, "attach", _attach),
    (FaultInjector, "should_drop", _should_drop),
    (Router, "resolve", _resolve),
    (StreamEngine, "close_test", _close_test),
    (repro.io, "iter_trace_events",
     lambda tracer, original: tracer.wrap_iterator(
         original, "io.parse_events")),
    (repro.stream.ingest, "feed_events",
     lambda tracer, original: tracer.wrap_iterator(
         original, "stream.feed")),
]

_MISSING = object()


@contextmanager
def patched(tracer: Tracer, setup_only: bool = False) -> Iterator[None]:
    """Wrap the seams for the ``with`` body, then restore them."""
    replaced: list[tuple[Any, str, Any]] = []

    def replace(owner: Any, attribute: str, wrapper: Callable) -> None:
        replaced.append((owner, attribute,
                         vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, wrapper)

    try:
        seams = SETUP_SEAMS if setup_only else UNIT_SEAMS
        for owner, attribute, name, count in seams:
            replace(owner, attribute,
                    tracer.wrap(getattr(owner, attribute), name, count))
        if not setup_only:
            for owner, attribute, build in _HANDOVER_SEAMS:
                replace(owner, attribute,
                        build(tracer, getattr(owner, attribute)))
        yield
    finally:
        for owner, attribute, original in reversed(replaced):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

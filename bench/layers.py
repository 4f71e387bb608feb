"""Per-layer metrics from one traced run.

Layers are the repository's packages.  Counts come from the program's
public outputs and from calls counted at the wrapped seams; they
repeat exactly.  Times come from the span tree of the traced unit
(and, for ``fleet.*``, of the traced set-up).  A metric of a layer the
workload does not cross is 0: that *is* the measurement ("no work").
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Any

from bench.tracing import END, NAME, PARENT, START, Tracer, self_times

__all__ = ["LAYERS", "ON_PATH", "span_totals", "per_layer_metrics"]

#: Span-name prefixes that belong to a layer of the program; anything
#: else (the harness's own ``unit`` and ``campaign.run`` spans) is
#: unattributed time.
LAYERS = ("sim", "net", "webapi", "replication", "obs", "core",
          "relations", "stream", "io", "fleet", "world", "analysis")

_CAMPAIGN_LAYERS = frozenset({"sim", "net", "webapi", "replication",
                              "obs"})

#: Layers with an isolated micro-driver, per workload that crosses them.
ON_PATH = {
    "campaign_blogger": _CAMPAIGN_LAYERS,
    "campaign_gplus": _CAMPAIGN_LAYERS,
    "campaign_feed": _CAMPAIGN_LAYERS,
    "replay_batch": frozenset(),
    "replay_stream": frozenset(),
    "world_gossip": frozenset({"sim"}),
}


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Inclusive seconds, self seconds and call count per span name."""
    inclusive: Counter[str] = Counter()
    own: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for record, self_seconds in zip(spans, self_times(spans)):
        name = record[NAME]
        inclusive[name] += record[END] - record[START]
        own[name] += self_seconds
        calls[name] += 1
    return {"inclusive": inclusive, "self": own, "calls": calls}


def _prefixed(counter: Counter, prefix: str) -> float:
    return sum(value for name, value in counter.items()
               if name.startswith(prefix))


def _outermost(spans: list[list], name: str) -> list[float]:
    """Durations of ``name`` spans not nested in their own layer."""
    layer = name.split(".", 1)[0] + "."
    return [
        record[END] - record[START] for record in spans
        if record[NAME] == name and not (
            record[PARENT] >= 0
            and spans[record[PARENT]][NAME].startswith(layer))
    ]


def _obs_counts(obs: dict | None) -> dict[str, float]:
    """Request, response and agent-operation counts of a campaign's
    public obs snapshot."""
    counts: Counter[str] = Counter()
    if obs is None:
        return counts
    counts["obs.series"] = len(obs["metrics"])
    counts["obs.spans"] = len(obs["spans"])
    for entry in obs["metrics"]:
        if entry["name"] == "api.requests_total":
            counts["webapi.requests"] += entry["value"]
        elif entry["name"] == "api.responses_total" and \
                not entry["labels"]["status"].startswith("2"):
            counts["webapi.non_2xx"] += entry["value"]
    for span in obs["spans"]:
        if not span["name"].startswith("agent."):
            continue
        attrs = span["attrs"]
        counts["agents.ops"] += 1
        counts["agents.retried"] += max(attrs.get("attempts", 1) - 1, 0)
        if attrs.get("status") == "rate_limited":
            counts["agents.retried"] += 1
        if not attrs.get("ok", True):
            counts["agents.failed_ops"] += 1
    return counts


def per_layer_metrics(tracer: Tracer, setup_tracer: Tracer,
                      public: dict,
                      measured: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric this module knows, by name.

    ``tracer`` holds the traced unit (root span ``unit``),
    ``setup_tracer`` the traced set-up, ``public`` the unit's public
    outputs and ``measured`` what the child timed outside the span
    tree (CPU seconds, untraced wall, the ``*_over_*`` ratios, the
    isolated micro-drivers).
    """
    spans = tracer.spans
    totals = span_totals(spans)
    inclusive, own, calls = (totals["inclusive"], totals["self"],
                             totals["calls"])
    setup = span_totals(setup_tracer.spans)
    root = spans[0][END] - spans[0][START]
    layer_self = {layer: _prefixed(own, layer + ".") for layer in LAYERS}
    counts = tracer.counts + _obs_counts(public.get("obs"))
    world = public.get("world", {})
    sims = tracer.seen.get("sim", {}).values()

    analyze = sorted(_outermost(spans, "core.analyze"))
    reads = _outermost(spans, "replication.read")
    writes = _outermost(spans, "replication.write")
    observe_s = (inclusive["stream.observe"]
                 + inclusive["stream.close_test"])

    def mean_us(durations: list[float]) -> float:
        return statistics.fmean(durations) * 1e6 if durations else 0.0

    metrics: dict[str, Any] = {
        "proc.cpu_s": measured["cpu_s"],
        "trace.overhead_ratio": root / measured["untraced_wall_s"],
        "trace.unattributed_share":
            (root - sum(layer_self.values())) / root,

        "sim.events": sum(sim.events_processed for sim in sims),
        "sim.virtual_s": max((sim.now for sim in sims), default=0.0),
        "sim.self_s": layer_self["sim"],
        "sim.event_us": measured["sim.event_us"],
        "sim.switch_us": measured["sim.switch_us"],

        "net.messages": calls["net.send"] + calls["net.rpc"],
        "net.dropped": counts["net.dropped"],
        "net.self_s": layer_self["net"],
        "net.rpc_us": measured["net.rpc_us"],

        "webapi.requests": counts["webapi.requests"],
        "webapi.non_2xx": counts["webapi.non_2xx"],
        "webapi.self_s": layer_self["webapi"],
        "webapi.resolve_us": measured["webapi.resolve_us"],

        "replication.writes": len(writes),
        "replication.reads": len(reads),
        # Only substrates send datagrams; their RPCs (primary-backup
        # sync) are the ones issued from inside a substrate span.
        "replication.messages": calls["net.send"] + sum(
            1 for record in spans
            if record[NAME] == "net.rpc" and record[PARENT] >= 0
            and spans[record[PARENT]][NAME].startswith("replication.")),
        "replication.store_entries": counts["replication.store_entries"],
        "replication.self_s": layer_self["replication"],
        "replication.read_us": mean_us(reads),
        "replication.write_us": mean_us(writes),

        "agents.ops": counts["agents.ops"],
        "agents.retried": counts["agents.retried"],
        "agents.failed_ops": counts["agents.failed_ops"],

        "obs.spans": counts["obs.spans"],
        "obs.series": counts["obs.series"],
        "obs.snapshot_s": inclusive["obs.snapshot"],
        "obs.merge_s": measured.get("obs_merge_s", 0.0),
        "obs.counter_inc_ns": measured["obs.counter_inc_ns"],

        "core.analyze_s": sum(analyze),
        "core.analyze_ms_p50":
            analyze[len(analyze) // 2] * 1e3 if analyze else 0.0,
        "core.analyze_ms_p99":
            analyze[(len(analyze) * 99) // 100] * 1e3 if analyze else 0.0,
        "core.anomalies.check_s": inclusive["core.anomalies.check"],
        "core.anomalies.observations": public.get("observations", 0),
        "core.windows.window_s": _prefixed(inclusive, "core.windows."),
        "core.windows.windows": counts["core.windows.windows"],

        "relations.eval_s": layer_self["relations"],
        "relations.samples": public.get("samples", 0),
        "relations.over_plain": measured.get("relations_over_plain", 0.0),

        "stream.ops": counts["stream.ops"],
        "stream.observe_s": observe_s,
        "stream.op_us": (observe_s / counts["stream.ops"] * 1e6
                         if counts["stream.ops"] else 0.0),
        "stream.peak_state": counts["stream.peak_state"],
        "stream.over_batch": measured.get("stream_over_batch", 0.0),

        "io.parse_s": _prefixed(own, "io.parse_"),
        "io.bytes_read": public.get("bytes_read", 0),
        "io.encode_s": _prefixed(own, "io.encode_"),
        "io.load_s": inclusive["io.load"],

        "fleet.shards": setup_tracer.counts["fleet.shards"],
        "fleet.store_write_s": setup["inclusive"]["fleet.store_write"],
        "fleet.signature_s": (inclusive["fleet.signature"]
                              + setup["inclusive"]["fleet.signature"]),
        "fleet.pool_over_serial":
            measured.get("fleet_pool_over_serial", 0.0),

        "world.epochs": world.get("epochs", 0),
        "world.bus_messages": world.get("bus_messages", 0),
        "world.bus_deferred": world.get("bus_deferred", 0),
        "world.peak_open_state": world.get("peak_open_state", 0),
        "world.max_stream_state": world.get("max_stream_state", 0),
        "world.bus_s": _prefixed(own, "world.bus_"),
        "world.buffer_s": _prefixed(own, "world.buffer_"),
        "world.sharded_over_serial":
            measured.get("world_sharded_over_serial", 0.0),

        "analysis.report_s": inclusive["analysis.report"],
    }
    return metrics

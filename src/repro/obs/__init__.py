"""repro.obs — the deterministic observability layer.

Measurement systems must measure themselves: the paper's §V results
are campaign telemetry (request totals per service, anomaly counts,
divergence-window CDFs), and every later performance or robustness
change to this repo needs the same telemetry to be *observable* —
without breaking the determinism contract that a campaign is a pure
function of ``(seed, config)``.

This package is that layer:

* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms keyed by labels, timestamped from the *simulated* clock,
  with an ordered merge for fleet shards.
* :mod:`repro.obs.spans` — span-based tracing with sequential
  (seed-stable) span ids; threaded through the request hot path
  ``Agent → ApiClient → Network.rpc → replication substrate``.
* :mod:`repro.obs.events` — the one typed event protocol behind the
  fleet's progress telemetry, the streaming engine's window events,
  and the runner's ``OperationObserver`` hook (previously three
  disjoint surfaces).
* :mod:`repro.obs.context` — an :class:`ObsContext` bundling one
  registry + one tracer, with JSON-safe snapshots and the shard-order
  merge.
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — digest-validated
  JSONL exports (via :mod:`repro.io`) and the ``repro-consistency
  obs`` report renderer.  Imported lazily by consumers: they pull in
  :mod:`repro.io`, which this package's core must not.

Everything here is deterministic by construction: no wall clock, no
ambient randomness, snapshots sorted by stable keys — two runs with
the same seed export byte-identical files (the
``tools/gates.py obs`` CI gate).
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".context": ("ObsContext", "merge_obs_snapshots"),
    ".metrics": (
        "MetricsRegistry", "Counter", "Gauge", "Histogram",
        "DEFAULT_LATENCY_BUCKETS", "merge_metric_snapshots",
    ),
    ".spans": ("Span", "Tracer"),
    ".events": (
        "ObsEvent", "OperationObserver", "WindowEvent", "FleetEvent",
        "FleetStarted", "FleetCompleted", "ShardEvent", "ShardStarted",
        "ShardTestChecked", "ShardCompleted", "ShardRetried", "ShardSkipped",
        "EventCallback", "render_event",
    ),
})

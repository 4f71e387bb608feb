"""One observability context: a metrics registry plus a tracer.

An :class:`ObsContext` is what the measurement world threads through
the hot path: the world creates one on its simulated clock, hangs it
on the :class:`~repro.net.network.Network`, and every layer that holds
a network reference (API clients, agents, replication substrates)
instruments itself through it — no constructor churn down the stack.

The context's :meth:`snapshot` is the unit of transport: a pure-JSON
dict (lists and dicts only, no tuples) that crosses worker pipes,
round-trips through the digest-validated export, and merges across
fleet shards in spec order via :func:`merge_obs_snapshots` — all
without changing a byte.

A snapshot is **read-only**: its span entries are the tracer's own
records (see :class:`~repro.obs.spans.Tracer`), shared with every
later snapshot and with the ``labels`` of other spans.  Consumers
read them, copy them (the export writes each entry as a new dict) or
concatenate them (the merge); none writes to them.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.obs.metrics import MetricsRegistry, merge_metric_snapshots
from repro.obs.spans import Tracer

__all__ = ["ObsContext", "merge_obs_snapshots"]

#: Snapshot schema marker, bumped when the snapshot shape changes.
OBS_SNAPSHOT_VERSION = 1


class ObsContext:
    """The metrics + tracing bundle one measurement runs inside.

    ``spans=False`` keeps metrics only: the tracer stores no finished
    span, and :meth:`snapshot` lists none.
    """

    def __init__(self,
                 now_fn: Callable[[], float] | None = None,
                 spans: bool = True) -> None:
        self.metrics = MetricsRegistry(now_fn)
        self.tracer = Tracer(now_fn, keep=spans)
        #: The registry's clock, called directly.
        self.now: Callable[[], float] = self.metrics.now

    def snapshot(self) -> dict:
        """Everything observed so far, as one JSON-safe, read-only dict.

        The metric entries are built fresh; the span entries are the
        tracer's finished records themselves, in a new list.
        """
        return {
            "version": OBS_SNAPSHOT_VERSION,
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.snapshot(),
        }


def merge_obs_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge obs snapshots in the order given (the spec's shard order).

    Metrics merge by instrument key (counters/histograms sum, gauges
    keep the latest write); spans concatenate, so a merged export
    lists shard 0's spans before shard 1's.  Merging one snapshot is
    the identity — a single-shard fleet's merged export equals the
    serial run's byte for byte.
    """
    metric_parts: list[list[dict]] = []
    spans: list[dict] = []
    for snapshot in snapshots:
        metric_parts.append(snapshot.get("metrics", []))
        spans.extend(snapshot.get("spans", []))
    return {
        "version": OBS_SNAPSHOT_VERSION,
        "metrics": merge_metric_snapshots(metric_parts),
        "spans": spans,
    }

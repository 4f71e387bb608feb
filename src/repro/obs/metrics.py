"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the write side of the observability
layer.  Instruments are keyed by ``(name, sorted label items)`` and
timestamped by an injected ``now_fn`` — in a campaign that is the
simulated clock, so a metric's value *and* its timestamps are a pure
function of ``(seed, config)`` and two same-seed runs export
byte-identical snapshots.

Three rules keep snapshots and merges bit-stable:

* **Stable snapshot order** — :meth:`MetricsRegistry.snapshot` sorts
  entries by ``(type, name, canonical labels)``, never by insertion
  or hash order.
* **Fixed buckets** — histograms bucket into upper bounds fixed at
  creation (plus an implicit ``+inf`` overflow), so merged counts are
  elementwise integer sums.
* **Ordered merge** — :func:`merge_metric_snapshots` folds shard
  snapshots *in the order given* (the fleet passes spec order), so
  float accumulation order is seed-stable; merging a single snapshot
  is the identity.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Callable, Iterable, Sequence

from repro.errors import AnalysisError, ConfigurationError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_metric_snapshots",
]

#: Latency bucket upper bounds (seconds), sized for simulated WAN
#: round trips: tens of milliseconds to the 10 s RPC timeout.
DEFAULT_LATENCY_BUCKETS = (
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: A metric's identity: name plus sorted ``(label, value)`` items.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _label_items(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _canonical_labels(labels: dict) -> str:
    """One stable string per label set, used as a sort key.

    Not :func:`repro.fleet.digest.canonical_json`: importing that
    module runs the ``repro.fleet`` package init (executor, pool,
    multiprocessing) inside every module that instruments itself with
    ``repro.obs``.  For the str → str label sets a registry holds, the
    two encodings are the same bytes.
    """
    return json.dumps(labels, sort_keys=True, separators=(",", ":"))


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "labels", "value", "updated", "_now")

    def __init__(self, name: str,
                 labels: tuple[tuple[str, str], ...],
                 now_fn: Callable[[], float]) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0
        self.updated: float = 0.0
        self._now = now_fn

    def inc(self, amount: float = 1, at: float | None = None) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount
        self.updated = self._now() if at is None else at

    def snapshot(self) -> dict:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "updated": self.updated,
        }


class Gauge:
    """A point-in-time value; merges take the latest writer."""

    __slots__ = ("name", "labels", "value", "updated", "_now")

    def __init__(self, name: str,
                 labels: tuple[tuple[str, str], ...],
                 now_fn: Callable[[], float]) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0
        self.updated: float = 0.0
        self._now = now_fn

    def set(self, value: float, at: float | None = None) -> None:
        self.value = value
        self.updated = self._now() if at is None else at

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "updated": self.updated,
        }


class Histogram:
    """Observations bucketed into fixed upper bounds (plus ``+inf``)."""

    __slots__ = ("name", "labels", "buckets", "counts", "count",
                 "total", "updated", "_now")

    def __init__(self, name: str,
                 labels: tuple[tuple[str, str], ...],
                 buckets: Sequence[float],
                 now_fn: Callable[[], float]) -> None:
        bounds = tuple(buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name!r} needs ascending bucket bounds, "
                f"got {bounds!r}"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        #: One slot per bound plus the ``+inf`` overflow slot.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total: float = 0.0
        self.updated: float = 0.0
        self._now = now_fn

    def observe(self, value: float, at: float | None = None) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        self.updated = self._now() if at is None else at

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "updated": self.updated,
        }


class MetricsRegistry:
    """All instruments of one measurement context.

    ``now_fn`` supplies timestamps (the simulated clock in campaigns;
    defaults to a constant 0.0 for contexts with no native clock, such
    as the CLI's trace replay — callers there pass explicit ``at=``
    times from the data itself).
    """

    def __init__(self,
                 now_fn: Callable[[], float] | None = None) -> None:
        #: The clock itself (``now_fn``), so ``registry.now()`` and a
        #: caller that binds it once add no call frame of their own.
        self.now: Callable[[], float] = (
            now_fn if now_fn is not None else (lambda: 0.0))
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    def _check_unique(self, key: MetricKey, kind: str) -> None:
        kinds = {"counter": self._counters, "gauge": self._gauges,
                 "histogram": self._histograms}
        for other_kind, table in kinds.items():
            if other_kind != kind and key in table:
                raise ConfigurationError(
                    f"metric {key[0]!r} with labels {dict(key[1])!r} "
                    f"already registered as a {other_kind}, cannot "
                    f"re-register as a {kind}"
                )

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_items(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            self._check_unique(key, "counter")
            instrument = Counter(name, key[1], self.now)
            self._counters[key] = instrument
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_items(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            self._check_unique(key, "gauge")
            instrument = Gauge(name, key[1], self.now)
            self._gauges[key] = instrument
        return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels: str) -> Histogram:
        key = (name, _label_items(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            self._check_unique(key, "histogram")
            instrument = Histogram(name, key[1], buckets, self.now)
            self._histograms[key] = instrument
        elif instrument.buckets != tuple(buckets):
            raise ConfigurationError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.buckets!r}"
            )
        return instrument

    def snapshot(self) -> list[dict]:
        """Every instrument as a JSON-safe dict, in stable sort order."""
        entries = [instrument.snapshot()
                   for table in (self._counters, self._gauges,
                                 self._histograms)
                   for instrument in table.values()]
        entries.sort(key=_entry_key)
        return entries


def _entry_key(entry: dict) -> tuple[str, str, str]:
    return (entry["type"], entry["name"],
            _canonical_labels(entry["labels"]))


def _merge_into(current: dict, entry: dict) -> None:
    kind = entry["type"]
    if kind == "counter":
        current["value"] += entry["value"]
        current["updated"] = max(current["updated"], entry["updated"])
    elif kind == "gauge":
        # Last writer wins; ties fall to the later snapshot in merge
        # order, which is the spec's shard order — deterministic.
        if entry["updated"] >= current["updated"]:
            current["value"] = entry["value"]
            current["updated"] = entry["updated"]
    elif kind == "histogram":
        if entry["buckets"] != current["buckets"]:
            raise AnalysisError(
                f"histogram {entry['name']!r} bucket mismatch in "
                f"merge: {entry['buckets']!r} vs "
                f"{current['buckets']!r}"
            )
        current["counts"] = [a + b for a, b in
                             zip(current["counts"], entry["counts"])]
        current["count"] += entry["count"]
        current["sum"] += entry["sum"]
        current["updated"] = max(current["updated"], entry["updated"])
    else:
        raise AnalysisError(f"unknown metric type {kind!r}")


def merge_metric_snapshots(
        snapshots: Iterable[list[dict]]) -> list[dict]:
    """Fold metric snapshots, in the order given, into one snapshot.

    Counters and histograms sum; gauges keep the latest-timestamped
    value.  The caller's iteration order *is* the accumulation order
    — the fleet passes shards in spec order, making merged floats
    bit-identical across worker schedules.  Merging one snapshot
    returns an equal snapshot (identity), which is what makes a
    single-shard fleet's merged export byte-equal to the serial run's.
    """
    merged: dict[tuple[str, str, str], dict] = {}
    for snapshot in snapshots:
        for entry in snapshot:
            key = _entry_key(entry)
            current = merged.get(key)
            if current is None:
                copied = dict(entry)
                copied["labels"] = dict(entry["labels"])
                if entry["type"] == "histogram":
                    copied["buckets"] = list(entry["buckets"])
                    copied["counts"] = list(entry["counts"])
                merged[key] = copied
            else:
                _merge_into(current, entry)
    return [merged[key] for key in sorted(merged)]

"""Obs snapshot exports: digest-validated JSONL on disk.

One export file carries one snapshot — a run's, a shard's, or a
fleet's ordered merge.  The layout reuses the digest-validated JSONL
machinery of :mod:`repro.io`: a header line binding kind, schema
version, and the body digest; then one ``{"record": "meta"}`` line,
every metric as a ``{"record": "metric"}`` line (registry sort
order), and every span as a ``{"record": "span"}`` line (finish
order).  All lines are canonical JSON, so an export is a byte-stable
function of the snapshot — the ``tools/gates.py obs`` contract.

This module imports :mod:`repro.io` (which pulls the methodology
stack), so it is *not* re-exported from ``repro.obs.__init__`` —
consumers import it directly, keeping the core obs package cheap and
cycle-free for the modules that instrument themselves with it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.io import read_digest_jsonl, write_digest_jsonl
from repro.obs.context import OBS_SNAPSHOT_VERSION

__all__ = [
    "OBS_EXPORT_KIND",
    "OBS_EXPORT_SCHEMA_VERSION",
    "export_snapshot",
    "load_snapshot",
]

OBS_EXPORT_KIND = "obs"
OBS_EXPORT_SCHEMA_VERSION = 1


def _payloads(snapshot: dict) -> Iterator[dict]:
    """The export's body records, one at a time (nothing is kept)."""
    yield {"record": "meta",
           "version": snapshot.get("version", OBS_SNAPSHOT_VERSION)}
    for entry in snapshot.get("metrics", []):
        yield {"record": "metric", **entry}
    for entry in snapshot.get("spans", []):
        yield {"record": "span", **entry}


def export_snapshot(snapshot: dict, path: str | Path) -> Path:
    """Write one obs snapshot as digest-validated JSONL."""
    return write_digest_jsonl(
        path, _payloads(snapshot),
        kind=OBS_EXPORT_KIND,
        schema_version=OBS_EXPORT_SCHEMA_VERSION,
    )


#: Keys every record of a type must carry (metrics: per metric type)
#: — what merging and reporting read.
_SPAN_KEYS = ("span_id", "parent_id", "name", "labels", "start", "end",
              "attrs")
_METRIC_KEYS = {
    "counter": ("name", "labels", "value", "updated"),
    "gauge": ("name", "labels", "value", "updated"),
    "histogram": ("name", "labels", "buckets", "counts", "count", "sum",
                  "updated"),
}


def _complaint(payload: dict) -> str | None:
    """What is wrong with one export line's record, if anything."""
    record_type = payload.get("record")
    if record_type == "meta":
        return None
    if record_type == "span":
        required = _SPAN_KEYS
    elif record_type == "metric":
        required = _METRIC_KEYS.get(payload.get("type"))
        if required is None:
            return f"unknown metric type {payload.get('type')!r}"
    else:
        return f"unknown obs record type {record_type!r}"
    missing = [key for key in required if key not in payload]
    if missing:
        return f"{record_type} record lacks {', '.join(missing)}"
    return None


def load_snapshot(path: str | Path) -> dict:
    """Load an :func:`export_snapshot` file back into snapshot shape.

    Raises :class:`~repro.errors.AnalysisError`, naming file and line,
    for a record of unknown type or missing a key its type carries.
    """
    payloads = read_digest_jsonl(
        path,
        kind=OBS_EXPORT_KIND,
        schema_version=OBS_EXPORT_SCHEMA_VERSION,
        check=_complaint,
    )
    version = OBS_SNAPSHOT_VERSION
    metrics: list[dict] = []
    spans: list[dict] = []
    for payload in payloads:
        record = dict(payload)
        record_type = record.pop("record")
        if record_type == "meta":
            version = record.get("version", OBS_SNAPSHOT_VERSION)
        elif record_type == "metric":
            metrics.append(record)
        else:
            spans.append(record)
    return {"version": version, "metrics": metrics, "spans": spans}

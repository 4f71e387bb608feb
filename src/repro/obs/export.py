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

from repro.errors import AnalysisError
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


def load_snapshot(path: str | Path) -> dict:
    """Load an :func:`export_snapshot` file back into snapshot shape."""
    payloads = read_digest_jsonl(
        path,
        kind=OBS_EXPORT_KIND,
        schema_version=OBS_EXPORT_SCHEMA_VERSION,
    )
    version = OBS_SNAPSHOT_VERSION
    metrics: list[dict] = []
    spans: list[dict] = []
    for payload in payloads:
        record = dict(payload)
        record_type = record.pop("record", None)
        if record_type == "meta":
            version = record.get("version", OBS_SNAPSHOT_VERSION)
        elif record_type == "metric":
            metrics.append(record)
        elif record_type == "span":
            spans.append(record)
        else:
            raise AnalysisError(
                f"{path}: unknown obs record type {record_type!r}"
            )
    return {"version": version, "metrics": metrics, "spans": spans}

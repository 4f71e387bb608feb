"""Campaign persistence and the package's one file discipline.

A measurement campaign is expensive relative to its analysis; the
paper itself separates the month-long collection phase from the
offline analysis.  This module serializes a
:class:`~repro.methodology.runner.CampaignResult` (its compact per-test
records — full traces are not persisted) so collected data can be
archived, diffed across seeds, or re-analyzed without re-running the
simulation:

    from repro.io import load_campaign, save_campaign
    save_campaign(result, "gplus.jsonl")
    ...
    result = load_campaign("gplus.jsonl")
    print(prevalence_table({"googleplus": result}))

A campaign file is digest JSONL (:func:`write_digest_jsonl`): the
service and config, then one line per record in the fleet shard's
encoding.  :func:`replace_file` is the package's one whole-file write.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from repro._hash import tagged_sha256
from repro.core.anomalies.base import AnomalyObservation
from repro.core.anomalies.registry import TraceReport
from repro.core.trace import Operation, ReadOp, TestTrace, WriteOp
from repro.core.windows import WindowResult
from repro.errors import AnalysisError, ConfigurationError
from repro.fleet.digest import _encode, _is_lowered, canonical_json
from repro.methodology.config import CampaignConfig
from repro.methodology.records import CampaignResult, TestRecord
from repro.relations.spec import MetricResult, MetricSample

__all__ = [
    "save_campaign",
    "load_campaign",
    "replace_file",
    "record_to_dict",
    "record_from_dict",
    "SCHEMA_VERSION",
    "TRACE_EVENT_SCHEMA_VERSION",
    "operation_to_dict",
    "operation_from_dict",
    "trace_meta_to_dict",
    "trace_from_meta_dict",
    "TraceEventWriter",
    "iter_trace_events",
    "write_digest_jsonl",
    "read_digest_jsonl",
]

SCHEMA_VERSION = 2
TRACE_EVENT_SCHEMA_VERSION = 1


# -- Serialization ------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Recursively convert tuples/frozensets to JSON-safe structures."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    return value


def _observation_to_dict(obs: AnomalyObservation) -> dict:
    return {
        "anomaly": obs.anomaly,
        "agent": obs.agent,
        "time": obs.time,
        "pair": list(obs.pair) if obs.pair else None,
        "details": _jsonable(dict(obs.details)),
    }


def _window_to_dict(window: WindowResult) -> dict:
    return {
        "pair": list(window.pair),
        "intervals": [[start, end] for start, end in window.intervals],
        "converged": window.converged,
    }


def _metric_result_to_dict(result: MetricResult) -> dict:
    return {
        "metric": result.metric,
        "value": result.value,
        "samples": [
            {
                "agent": sample.agent,
                "time": sample.time,
                "value": sample.value,
                "details": _jsonable(dict(sample.details)),
            }
            for sample in result.samples
        ],
    }


def _metric_result_from_dict(data: dict) -> MetricResult:
    return MetricResult(
        metric=data["metric"],
        value=data["value"],
        samples=tuple(
            MetricSample(
                agent=sample["agent"],
                time=sample["time"],
                value=sample["value"],
                details=_restore_details(sample["details"]),
            )
            for sample in data["samples"]
        ),
    )


def record_to_dict(record: TestRecord) -> dict:
    """Serialize one :class:`TestRecord` to a JSON-safe dict.

    The inverse of :func:`record_from_dict`; the round trip is exact
    for everything the analysis pipeline consumes (full traces are
    never serialized).  Fleet shards and campaign files hold one
    canonical-JSON line of this per record.
    """
    return {
        "test_id": record.test_id,
        "test_type": record.test_type,
        "agents": list(record.report.agents),
        "observations": {
            anomaly: [_observation_to_dict(obs) for obs in observations]
            for anomaly, observations
            in record.report.observations.items()
        },
        "content_windows": [_window_to_dict(w)
                            for w in record.content_windows.values()],
        "order_windows": [_window_to_dict(w)
                          for w in record.order_windows.values()],
        "reads_per_agent": dict(record.reads_per_agent),
        "writes_per_agent": dict(record.writes_per_agent),
        "duration": record.duration,
        # Metric results only when the campaign requested them: the
        # key's absence keeps metric-free record bytes (and therefore
        # golden signatures and stored shards) unchanged.
        **({"metrics": [_metric_result_to_dict(result)
                        for result in record.metrics]}
           if record.metrics else {}),
    }


def save_campaign(result: CampaignResult, path: str | Path) -> Path:
    """Write a campaign's records to ``path``; returns the path.

    Digest JSONL of kind ``campaign``: one ``{"service", "config"}``
    line, then one line per record in the fleet shard's encoding.
    Full traces (``keep_traces=True``) are intentionally not persisted
    — they are a debugging aid, not analysis input.
    """
    config = result.config
    head = {
        "service": result.service,
        "config": {
            "num_tests": config.num_tests,
            "seed": config.seed,
            "test_types": list(config.test_types),
            "mask_sessions": config.mask_sessions,
            **({"metrics": list(config.metrics)}
               if config.metrics else {}),
        },
    }
    return write_digest_jsonl(
        path, chain((head,), map(record_to_dict, result.records)),
        kind="campaign", schema_version=SCHEMA_VERSION)


# -- Deserialization -------------------------------------------------------


def _restore_details(details: Any) -> Any:
    """JSON lists back to tuples (the shape the analysis relies on)."""
    if isinstance(details, dict):
        return {key: _restore_details(item)
                for key, item in details.items()}
    if isinstance(details, list):
        return tuple(_restore_details(item) for item in details)
    return details


def _observation_from_dict(data: dict) -> AnomalyObservation:
    return AnomalyObservation(
        anomaly=data["anomaly"],
        agent=data["agent"],
        time=data["time"],
        pair=tuple(data["pair"]) if data["pair"] else None,
        details=_restore_details(data["details"]),
    )


def _window_from_dict(data: dict) -> WindowResult:
    return WindowResult(
        pair=tuple(data["pair"]),
        intervals=tuple((start, end)
                        for start, end in data["intervals"]),
        converged=data["converged"],
    )


def record_from_dict(data: dict, service: str) -> TestRecord:
    """Rebuild a :class:`TestRecord` from :func:`record_to_dict` output."""
    report = TraceReport(
        test_id=data["test_id"],
        service=service,
        test_type=data["test_type"],
        agents=tuple(data["agents"]),
        observations={
            anomaly: [_observation_from_dict(obs)
                      for obs in observations]
            for anomaly, observations in data["observations"].items()
        },
    )
    content = {window.pair: window for window in
               (_window_from_dict(w) for w in data["content_windows"])}
    order = {window.pair: window for window in
             (_window_from_dict(w) for w in data["order_windows"])}
    return TestRecord(
        test_id=data["test_id"],
        test_type=data["test_type"],
        report=report,
        content_windows=content,
        order_windows=order,
        reads_per_agent=dict(data["reads_per_agent"]),
        writes_per_agent=dict(data["writes_per_agent"]),
        duration=data["duration"],
        metrics=tuple(_metric_result_from_dict(result)
                      for result in data.get("metrics", ())),
    )


# -- Trace-event JSONL ----------------------------------------------------
#
# A campaign's *operation stream* as an append-only JSONL file: one
# ``test_open`` line per test (all metadata the streaming engine needs
# up front), one ``op`` line per logged operation in recording order,
# one ``test_close`` line when the test finishes.  The format is what
# ``repro-consistency stream --from-trace`` consumes, what the fleet
# archives per shard, and what ``run --trace-out`` emits — the
# decoupling point between collecting operations and analyzing them.


def operation_to_dict(op: Operation) -> dict:
    """Serialize one trace operation to a JSON-safe dict."""
    data: dict[str, Any] = {
        "kind": "write" if isinstance(op, WriteOp) else "read",
        "agent": op.agent,
        "invoke_local": op.invoke_local,
        "response_local": op.response_local,
    }
    if isinstance(op, WriteOp):
        data["message_id"] = op.message_id
    else:
        data["observed"] = list(op.observed)
    if op.true_invoke is not None:
        data["true_invoke"] = op.true_invoke
    if op.true_response is not None:
        data["true_response"] = op.true_response
    return data


def operation_from_dict(data: dict) -> Operation:
    """Rebuild a trace operation from :func:`operation_to_dict`."""
    common = {
        "agent": data["agent"],
        "invoke_local": data["invoke_local"],
        "response_local": data["response_local"],
        "true_invoke": data.get("true_invoke"),
        "true_response": data.get("true_response"),
    }
    if data["kind"] == "write":
        return WriteOp(message_id=data["message_id"], **common)
    if data["kind"] == "read":
        return ReadOp(observed=tuple(data["observed"]), **common)
    raise AnalysisError(f"unknown operation kind {data['kind']!r}")


def trace_meta_to_dict(trace: TestTrace) -> dict:
    """The ``test_open`` payload: everything known at trace creation."""
    return {
        "test_id": trace.test_id,
        "service": trace.service,
        "test_type": trace.test_type,
        "agents": list(trace.agents),
        "clock_deltas": dict(trace.clock_deltas),
        "delta_uncertainty": dict(trace.delta_uncertainty),
        "wfr_triggers": {mid: sorted(deps) for mid, deps
                         in trace.wfr_triggers.items()},
    }


def trace_from_meta_dict(data: dict) -> TestTrace:
    """An empty :class:`TestTrace` shell from a ``test_open`` payload."""
    return TestTrace(
        test_id=data["test_id"],
        service=data["service"],
        test_type=data["test_type"],
        agents=tuple(data["agents"]),
        clock_deltas=dict(data["clock_deltas"]),
        delta_uncertainty=dict(data.get("delta_uncertainty", {})),
        wfr_triggers={mid: frozenset(deps) for mid, deps
                      in data.get("wfr_triggers", {}).items()},
    )


class TraceEventWriter:
    """An :class:`~repro.methodology.runner.OperationObserver` that
    appends every event to a JSONL stream as it happens.

    Lines are flushed per event so a concurrent ``stream --follow``
    reader sees operations with no buffering lag.
    """

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream

    def _emit(self, payload: dict) -> None:
        self._stream.write(json.dumps(payload, sort_keys=True) + "\n")
        self._stream.flush()

    def test_opened(self, trace: TestTrace) -> None:
        self._emit({
            "event": "test_open",
            "schema_version": TRACE_EVENT_SCHEMA_VERSION,
            **trace_meta_to_dict(trace),
        })

    def operation(self, trace: TestTrace, op: Operation) -> None:
        self._emit({
            "event": "op",
            "test_id": trace.test_id,
            **operation_to_dict(op),
        })

    def test_closed(self, trace: TestTrace) -> None:
        self._emit({"event": "test_close", "test_id": trace.test_id})


def iter_trace_events(lines: Iterable[str]) -> Iterator[dict]:
    """Parse trace-event JSONL lines, skipping blanks.

    Accepts any iterable of whole lines (an open file, a tail-follow
    generator).  A line that is not one JSON object of a known schema
    version raises :class:`~repro.errors.AnalysisError` naming it.
    """
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError as exc:
            raise AnalysisError(
                f"trace-event line {number}: unreadable JSON: {exc}"
            ) from exc
        if not isinstance(event, dict):
            raise AnalysisError(
                f"trace-event line {number}: not a JSON object")
        version = event.get("schema_version",
                            TRACE_EVENT_SCHEMA_VERSION)
        if version != TRACE_EVENT_SCHEMA_VERSION:
            raise AnalysisError(
                f"trace-event line {number}: unsupported schema "
                f"version {version!r} (expected "
                f"{TRACE_EVENT_SCHEMA_VERSION})"
            )
        yield event


# -- Files ------------------------------------------------------------------
#
# :func:`replace_file` writes every whole file (only the streams that
# append as they go are written another way).  Digest JSONL is the one
# self-validating format: a header line binds a kind tag, a schema
# version and the SHA-256 of the body lines, so truncation, tampering
# and version skew fail loudly instead of mis-parsing.


def replace_file(path: str | Path, chunks: Iterable[str]) -> Path:
    """Write ``chunks`` (UTF-8 text) as the whole of ``path``.

    They go to a sibling ``<name>.tmp`` that is then renamed onto
    ``path`` (parent directory created), so a killed process leaves
    the old file or the new one, never a torn one; on any exception
    the temp file is removed.  No ``fsync``: a lost machine may lose
    the write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    try:
        with temp.open("w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


def write_digest_jsonl(path: str | Path, payloads: Iterable[dict], *,
                       kind: str, schema_version: int) -> Path:
    """Write ``payloads`` as digest-validated canonical JSONL.

    Output is a pure function of the payload sequence: canonical JSON
    (sorted keys, compact separators) per line, so two identical
    inputs produce byte-identical files — the property the obs parity
    gate asserts.  ``payloads`` may be a generator; it is consumed once.

    A *lowered* payload (``repro.fleet.digest``) goes to the encoder as
    it stands.  Any other is copied through :func:`_jsonable` first:
    that sorts sets by value where ``canonical`` sorts them by their
    encoding, and files already written hold the by-value order.

    The body is hashed line by line and written after the header, so
    the list of lines is the only copy of it held.
    """
    lines = [(_encode(payload) if _is_lowered(payload)
              else canonical_json(_jsonable(payload))) + "\n"
             for payload in payloads]
    header = _encode({
        "kind": kind,
        "schema_version": schema_version,
        "lines": len(lines),
        "digest": tagged_sha256(line.encode("utf-8") for line in lines),
    })
    return replace_file(path, chain((header + "\n",), lines))


def read_digest_jsonl(path: str | Path, *, kind: str,
                      schema_version: int,
                      check: Callable[[dict], str | None] | None = None
                      ) -> list[dict]:
    """Load a :func:`write_digest_jsonl` file, validating everything.

    Raises :class:`~repro.errors.AnalysisError` on a file that cannot
    be read (missing, a directory), bytes that are not UTF-8, a missing
    or malformed header, a kind or schema-version
    mismatch, body bytes that no longer hash to the recorded digest,
    a body line that is not one JSON object, or one that ``check``
    (payload -> complaint or None) complains about — the last two
    naming the line, so a digest-valid but malformed file fails as
    typed as a damaged one.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise AnalysisError(
            f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AnalysisError(f"{path}: not UTF-8 text: {exc}") from exc
    newline = text.find("\n")
    if newline < 0:
        raise AnalysisError(f"{path}: missing digest header")
    try:
        header = json.loads(text[:newline])
    except ValueError as exc:
        raise AnalysisError(
            f"{path}: unreadable digest header: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise AnalysisError(
            f"{path}: line 1: digest header is not a JSON object"
        )
    if header.get("kind") != kind:
        raise AnalysisError(
            f"{path}: kind {header.get('kind')!r} is not {kind!r}"
        )
    if header.get("schema_version") != schema_version:
        raise AnalysisError(
            f"{path}: unsupported {kind} schema version "
            f"{header.get('schema_version')!r} "
            f"(expected {schema_version})"
        )
    # UTF-8 writes "\n" as the byte 0x0A and no other character uses
    # that byte, so the body's bytes start after the first one.
    body = data[data.index(b"\n") + 1:]
    if tagged_sha256(body) != header.get("digest"):
        raise AnalysisError(
            f"{path}: body does not match its recorded digest "
            f"(truncated or tampered)"
        )
    payloads = []
    # Line 1 is the header; the body's first line is line 2.
    for number, line in enumerate(text[newline + 1:].splitlines(),
                                  start=2):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise AnalysisError(
                f"{path}: line {number}: unreadable JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise AnalysisError(
                f"{path}: line {number}: not a JSON object"
            )
        complaint = check(payload) if check is not None else None
        if complaint:
            raise AnalysisError(f"{path}: line {number}: {complaint}")
        payloads.append(payload)
    if len(payloads) != header.get("lines"):
        raise AnalysisError(
            f"{path}: {len(payloads)} body lines, header claims "
            f"{header.get('lines')}"
        )
    return payloads


def load_campaign(path: str | Path) -> CampaignResult:
    """Load a campaign saved by :func:`save_campaign`.

    Beyond :func:`read_digest_jsonl`'s checks, a line the decoder
    cannot rebuild (a missing key, a value of the wrong shape, a
    config the current :class:`CampaignConfig` rejects — say, one
    naming a metric that no longer exists) raises
    :class:`~repro.errors.AnalysisError` naming the file and the line.
    """
    payloads = read_digest_jsonl(path, kind="campaign",
                                 schema_version=SCHEMA_VERSION)
    number = 2  # line 1 is the header
    try:
        service = payloads[0]["service"]
        config_data = payloads[0]["config"]
        config = CampaignConfig(
            num_tests=config_data["num_tests"],
            seed=config_data["seed"],
            test_types=tuple(config_data["test_types"]),
            mask_sessions=config_data.get("mask_sessions", False),
            metrics=tuple(config_data.get("metrics", ())),
        )
        result = CampaignResult(service=service, config=config)
        for number, data in enumerate(payloads[1:], start=3):
            result.records.append(record_from_dict(data, service))
    except (AttributeError, ConfigurationError, IndexError, KeyError,
            TypeError, ValueError) as exc:
        raise AnalysisError(
            f"{path}: line {number}: malformed campaign line: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return result

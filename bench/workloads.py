"""The six workloads: inputs from a seed, one timed unit, its check.

Every workload is closed-loop, one client, serial.  ``prepare`` builds
the unit's inputs from the seed (timed as set-up), ``warm`` runs the
small campaign that fills lazy imports and caches, and ``unit`` is the
timed work: seed -> records -> signature -> report text.  A unit
returns what it checked instead of raising: tests (cohorts for
``world_gossip``) that produced no valid record are *failed*.

The same ``unit`` runs traced and untraced; only the tracer differs.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import repro.io
import repro.stream.ingest
from repro.analysis import full_report
from repro.errors import ReproError
from repro.fleet import (
    ArtifactStore,
    FleetSpec,
    campaign_signature,
    derive_fleet_seeds,
    records_digest,
    run_fleet,
)
from repro.methodology import (
    CampaignConfig,
    CampaignResult,
    analyze_trace,
    run_campaign,
)
from repro.relations import metric_names, resolve_metrics
from repro.scenario import load_scenario
from repro.stream import OpIngest, StreamEngine
from repro.world import run_world, world_from_scenario

from bench.spec import ROOT
from bench.tracing import NULL_TRACER

__all__ = ["UnitResult", "Workload", "WORKLOADS", "REPLAY_SERVICES",
           "Archive", "archive_traces"]

#: The archive both replay workloads read: every paper service.
REPLAY_SERVICES = ("googleplus", "facebook_feed", "facebook_group",
                   "blogger")

WORLD_SCENARIO = ROOT / "examples" / "scenarios" / "gossip_world.toml"

#: What a damaged archive line can raise while it is parsed, rebuilt
#: or checked; such a shard's tests count as failed, never a traceback.
_REPLAY_ERRORS = (ValueError, KeyError, TypeError, ReproError)


@dataclass
class UnitResult:
    """What one timed unit produced and how much of it was valid."""

    signature: str
    #: Reads + writes the unit put through the checkers.
    ops: int
    #: Units of work attempted / without a valid record.
    attempted: int
    failed: int
    #: The program's public outputs the per-layer counts come from.
    public: dict


def _checker_output(records: list) -> dict:
    """Anomaly observations and relation samples across ``records``."""
    return {
        "observations": sum(
            len(found) for record in records
            for found in record.report.observations.values()),
        "samples": sum(len(result.samples) for record in records
                       for result in record.metrics),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``prepare(seed, sizes, work_dir, fresh, tracer)`` -> unit state.
    prepare: Callable[..., Any]
    #: ``warm(seed)``: the pre-timing campaign.
    warm: Callable[[int], None]
    #: ``unit(state, tracer)`` -> :class:`UnitResult`.
    unit: Callable[..., UnitResult]


# -- campaign_* ---------------------------------------------------------


def _campaign_workload(name: str, service: str) -> Workload:
    def prepare(seed, sizes, work, fresh=False, tracer=NULL_TRACER):
        return service, CampaignConfig(num_tests=sizes[name], seed=seed)

    def warm(seed):
        run_campaign(service, CampaignConfig(num_tests=3, seed=seed))

    return Workload(name, prepare, warm, _campaign_unit)


def _campaign_unit(state, tracer=NULL_TRACER) -> UnitResult:
    service, config = state
    analyzer = None
    if tracer.enabled:
        def analyzer(trace, keep_trace):
            with tracer.span("core.analyze"):
                return analyze_trace(trace, keep_trace)
    with tracer.span("campaign.run"):
        result = run_campaign(service, config, analyzer=analyzer)
    with tracer.span("fleet.signature"):
        signature = campaign_signature(result)
    with tracer.span("analysis.report"):
        report = full_report({service: result})
    attempted = config.num_tests * len(config.test_types)
    valid = min(len(result.records), attempted) if report else 0
    return UnitResult(
        signature=signature,
        ops=result.total_reads + result.total_writes,
        attempted=attempted, failed=attempted - valid,
        public={"obs": result.obs, **_checker_output(result.records)},
    )


# -- replay_* -----------------------------------------------------------


@dataclass
class Archive:
    """The replay workloads' input: stored records + their op streams."""

    jobs: list
    store: ArtifactStore
    #: The five relation metrics, resolved.
    metrics: tuple
    #: ``fleet_signature`` of the stored records: the archive's identity.
    signature: str


def _prepare_archive(seed, sizes, work, fresh=False,
                     tracer=NULL_TRACER) -> Archive:
    """Simulate the archive, or reopen the one already in ``work``.

    ``run_fleet`` skips every digest-valid shard it finds, so the
    measuring process calls this too and pays only the reload.
    """
    out = Path(work) / "archive"
    if fresh:
        shutil.rmtree(out, ignore_errors=True)
    spec = FleetSpec(
        services=REPLAY_SERVICES,
        base_config=CampaignConfig(num_tests=sizes["replay_tests"],
                                   seed=0, metrics=metric_names()),
        seeds=derive_fleet_seeds(seed, 2),
    )
    with tracer.span("fleet.run"):
        outcome = run_fleet(spec, jobs=1, out_dir=out, stream=True)
    with tracer.span("fleet.signature"):
        signature = outcome.signature()
    return Archive(list(outcome.jobs), ArtifactStore(out),
                    resolve_metrics(metric_names()), signature)


def _warm_replay(seed):
    run_campaign("googleplus", CampaignConfig(
        num_tests=3, seed=seed, metrics=metric_names()))


def archive_traces(archive: Archive, job, tally):
    """Yield one shard's traces, rebuilt from its archived events."""
    trace = None
    path = archive.store.trace_path(job.shard_id)
    tally["bytes"] += path.stat().st_size
    with path.open("r", encoding="utf-8") as handle:
        for event in repro.io.iter_trace_events(handle):
            kind = event["event"]
            if kind == "test_open":
                trace = repro.io.trace_from_meta_dict(event)
            elif trace is None:
                raise ValueError(f"{kind} event before any test_open")
            elif kind == "op":
                trace.record(repro.io.operation_from_dict(event))
                tally["ops"] += 1
            else:
                yield trace


def _batch_records(archive: Archive, job, tracer, tally) -> list:
    """Rebuild every trace of one shard and check it in one pass."""
    records = []
    for trace in archive_traces(archive, job, tally):
        with tracer.span("core.analyze"):
            records.append(analyze_trace(trace,
                                         metrics=archive.metrics))
    return records


def _stream_records(archive: Archive, job, tracer, tally) -> list:
    """Feed one shard's events through the incremental engine."""
    records = []
    ingest = OpIngest(
        StreamEngine(horizon=1, metrics=archive.metrics),
        on_record=lambda meta, record: records.append(record),
    )
    path = archive.store.trace_path(job.shard_id)
    tally["bytes"] += path.stat().st_size
    with path.open("r", encoding="utf-8") as handle:
        events = repro.io.iter_trace_events(handle)
        for event in repro.stream.ingest.feed_events(events, ingest):
            if event["event"] == "op":
                tally["ops"] += 1
    return records


def _replay_unit(shard_records: Callable, report: bool) -> Callable:
    def unit(archive: Archive, tracer=NULL_TRACER) -> UnitResult:
        tally = {"ops": 0, "bytes": 0}
        attempted = failed = 0
        encoded: list[dict] = []
        results: dict[str, CampaignResult] = {}
        for job in archive.jobs:
            expected = (job.config.num_tests
                        * len(job.config.test_types))
            attempted += expected
            try:
                stored = archive.store.load_shard_records(job.shard_id)
                tally["bytes"] += archive.store.shard_path(
                    job.shard_id).stat().st_size
                records = shard_records(archive, job, tracer, tally)
                replayed = [repro.io.record_to_dict(record)
                            for record in records]
            except _REPLAY_ERRORS:
                failed += expected
                continue
            matching = sum(1 for ours, theirs in zip(replayed, stored)
                           if ours == theirs)
            failed += expected - min(matching, expected)
            encoded.extend(replayed)
            results[job.shard_id] = CampaignResult(
                service=job.service, config=job.config, records=records)
        with tracer.span("fleet.signature"):
            signature = records_digest(encoded)
        if report:
            with tracer.span("analysis.report"):
                if not full_report(results):
                    failed = attempted
        return UnitResult(
            signature=signature, ops=tally["ops"],
            attempted=attempted, failed=failed,
            public={"bytes_read": tally["bytes"], **_checker_output([
                record for result in results.values()
                for record in result.records])},
        )

    return unit


# -- world_gossip -------------------------------------------------------


def _prepare_world(seed, sizes, work, fresh=False, tracer=NULL_TRACER):
    scenario = load_scenario(WORLD_SCENARIO)
    return world_from_scenario(
        scenario, sessions=sizes["world_sessions"]), seed


def _warm_world(seed):
    run_world(world_from_scenario(load_scenario(WORLD_SCENARIO),
                                  sessions=400), seed=seed)


def _world_unit(state, tracer=NULL_TRACER) -> UnitResult:
    spec, seed = state
    with tracer.span("world.run"):
        result = run_world(spec, seed=seed)
    attempted = spec.cohort_count
    valid = min(result.tests, attempted)
    if result.max_stream_state != 1:
        valid = 0
    return UnitResult(
        signature=result.signature, ops=result.ops,
        attempted=attempted, failed=attempted - valid,
        public={"world": result.summary(),
                "observations": sum(result.anomalies.values())},
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        _campaign_workload("campaign_blogger", "blogger"),
        _campaign_workload("campaign_gplus", "googleplus"),
        _campaign_workload("campaign_feed", "facebook_feed"),
        Workload("replay_batch", _prepare_archive, _warm_replay,
                 _replay_unit(_batch_records, report=True)),
        Workload("replay_stream", _prepare_archive, _warm_replay,
                 _replay_unit(_stream_records, report=False)),
        Workload("world_gossip", _prepare_world, _warm_world,
                 _world_unit),
    )
}

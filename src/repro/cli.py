"""Command-line interface: run campaigns and print the paper's figures.

Examples
--------
Run a scaled-down campaign against one service and print its summary::

    repro-consistency run --service googleplus --tests 50 --seed 7

Regenerate every figure for all four services, on four workers::

    repro-consistency figures --tests 100 --seed 7 --jobs 4

Run a resumable three-seed replication fleet with a persistent
artifact store (re-invoking skips completed shards)::

    repro-consistency fleet --services googleplus,blogger \\
        --replicates 3 --tests 100 --jobs 4 --out artifacts/

Search a service's profile knobs against the paper's published
numbers by successive halving; every rung is a fleet run, so with
``--store-out`` a re-invocation resumes it shard by shard::

    repro-consistency calibrate --service googleplus --jobs 4 \\
        --store-out trials/ --calibrate-out fidelity.json

Run a declarative scenario file through the same pipelines::

    repro-consistency run --scenario examples/scenarios/gossip_mesh.toml
    repro-consistency fleet --scenario examples/scenarios/gossip_mesh.toml \\
        --jobs 4

Quantify the Cristian clock-sync protocol's accuracy::

    repro-consistency clocksync --seed 7
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # each verb imports the subsystem it runs
    from repro.methodology.config import CampaignConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.services.profiles import (
        EXTENSION_SERVICE_NAMES,
        SERVICE_NAMES,
    )

    parser = argparse.ArgumentParser(
        prog="repro-consistency",
        description=(
            "Reproduction of 'Characterizing the Consistency of Online "
            "Services' (DSN 2016): probe simulated service APIs for "
            "consistency anomalies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser(
        "run", help="run one service's measurement campaign"
    )
    run_cmd.add_argument(
        "--service", default=None,
        choices=SERVICE_NAMES + EXTENSION_SERVICE_NAMES,
    )
    run_cmd.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="run a declarative scenario file (TOML/JSON) instead of "
             "a built-in service",
    )
    run_cmd.add_argument(
        "--masked", action="store_true",
        help="wrap agent sessions in the client-side masking layer",
    )
    _add_out_flag(
        run_cmd, "--campaign-out", legacy="--output",
        help="save the campaign's records (digest JSONL) for 'report'",
    )
    _add_out_flag(
        run_cmd, "--trace-out",
        help="append every operation to a trace-event JSONL file as "
             "it happens (input for 'stream --from-trace')",
    )
    _add_out_flag(
        run_cmd, "--obs-out",
        help="export the campaign's metrics/span snapshot as "
             "digest-validated JSONL (input for 'obs'); spans are "
             "recorded only when this is given",
    )
    _add_campaign_args(run_cmd)

    stream_cmd = sub.add_parser(
        "stream",
        help="online anomaly detection over a trace-event stream",
        description=(
            "Feed a trace-event JSONL file (from 'run --trace-out' or "
            "a fleet store's traces/ directory) through the streaming "
            "detection engine: anomalies are reported the moment their "
            "evidence completes, with live per-anomaly counters and "
            "state-size telemetry.  Output records are identical to "
            "a plain run's (the feed-parity contract)."
        ),
    )
    stream_cmd.add_argument(
        "--from-trace", required=True, metavar="FILE", dest="trace",
        help="trace-event JSONL file to ingest",
    )
    stream_cmd.add_argument(
        "--follow", action="store_true",
        help="keep watching the file for appended events (live tail "
             "of a running campaign; stop with Ctrl-C)",
    )
    stream_cmd.add_argument(
        "--stats-every", type=int, default=0, metavar="N",
        help="print a telemetry line every N ingested operations "
             "(0 = only per-test summaries)",
    )
    stream_cmd.add_argument(
        "--horizon", type=int, default=None, metavar="N",
        help="eviction horizon: closed-test records retained by the "
             "engine (default 64)",
    )
    stream_cmd.add_argument(
        "--quiet", action="store_true",
        help="suppress per-anomaly live lines (keep summaries)",
    )
    stream_cmd.add_argument(
        "--metrics", default=None, metavar="NAMES",
        help="comma-separated relation-layer metric names to "
             "evaluate online per test (bounded-memory streaming "
             "evaluators; see repro.relations.registry)",
    )
    _add_out_flag(
        stream_cmd, "--obs-out",
        help="export the engine's metrics snapshot as "
             "digest-validated JSONL (input for 'obs')",
    )

    report_cmd = sub.add_parser(
        "report", help="regenerate figures from saved campaign files"
    )
    report_cmd.add_argument(
        "files", nargs="+", metavar="FILE",
        help="campaign JSON files written by 'run --output'",
    )

    figures_cmd = sub.add_parser(
        "figures", help="regenerate every figure for chosen services"
    )
    figures_cmd.add_argument(
        "--services", default=None,
        help="comma-separated service names (default: all four)",
    )
    figures_cmd.add_argument(
        "--scenario", action="append", default=None, metavar="FILE",
        help="also run a scenario file (repeatable)",
    )
    _add_campaign_args(figures_cmd)
    _add_fleet_args(figures_cmd)

    fleet_cmd = sub.add_parser(
        "fleet",
        help="run a parallel, resumable multi-campaign fleet",
        description=(
            "Expand services x seeds into independent campaign shards "
            "and execute them on a worker pool.  Output is "
            "bit-identical to the serial path for the same spec and "
            "seeds; with --out, completed shards persist and a "
            "re-invocation resumes, skipping digest-valid shards."
        ),
    )
    fleet_cmd.add_argument(
        "--services", default=None,
        help="comma-separated service names (default: all four)",
    )
    fleet_cmd.add_argument(
        "--scenario", action="append", default=None, metavar="FILE",
        help="also run a scenario file (repeatable); the scenario's "
             "content enters the spec hash, so editing the file "
             "invalidates stored shards",
    )
    seeds_group = fleet_cmd.add_mutually_exclusive_group()
    seeds_group.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="explicit comma-separated campaign seeds",
    )
    seeds_group.add_argument(
        "--replicates", type=int, default=None, metavar="N",
        help="derive N seeds from --seed via the RandomSource "
             "discipline (default: 3 when --seeds is not given)",
    )
    _add_out_flag(
        fleet_cmd, "--store-out", legacy="--out", metavar="DIR",
        help="artifact-store directory (enables checkpoint/resume)",
    )
    _add_out_flag(
        fleet_cmd, "--obs-out",
        help="export the fleet's merged metrics/span snapshot as "
             "digest-validated JSONL (input for 'obs')",
    )
    fleet_cmd.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock limit per shard attempt (workers only)",
    )
    fleet_cmd.add_argument(
        "--quiet", action="store_true",
        help="suppress per-shard progress telemetry",
    )
    fleet_cmd.add_argument(
        "--stream", action="store_true",
        help="report while shards run: identical results, plus "
             "per-test anomaly telemetry and (with --store-out) "
             "archived per-shard operation streams",
    )
    _add_campaign_args(fleet_cmd)
    _add_fleet_args(fleet_cmd)

    obs_cmd = sub.add_parser(
        "obs",
        help="render the metrics/span report of an obs export or "
             "fleet store",
        description=(
            "Read a digest-validated obs export (from 'run --obs-out' "
            "/ 'fleet --obs-out') or a fleet artifact-store directory "
            "(merging every shard's snapshot in spec order) and print "
            "the metrics and span report, including the paper's "
            "per-service campaign request totals."
        ),
    )
    obs_cmd.add_argument(
        "path", metavar="PATH",
        help="an .obs.jsonl export file, or a fleet store directory",
    )
    obs_cmd.add_argument(
        "--json", action="store_true",
        help="print the raw merged snapshot as JSON instead of the "
             "rendered report",
    )

    calibrate_cmd = sub.add_parser(
        "calibrate",
        help="search service profile knobs against the paper's "
             "targets",
        description=(
            "Run a deterministic successive-halving search fitting "
            "one service's profile knobs to the paper's published "
            "numbers (Figures 3/8/9/10, Tables I/II).  Each rung "
            "evaluates its candidates as one fleet campaign; with "
            "--store-out, rung r keeps its fleet store in DIR/r<r> "
            "and a re-invocation resumes shard by shard.  Prints the "
            "winning profile and a paper-vs-default-vs-calibrated "
            "comparison."
        ),
    )
    calibrate_cmd.add_argument(
        "--service", default=None, choices=SERVICE_NAMES,
    )
    calibrate_cmd.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="calibrate a scenario file's declared [calibrate.axes] "
             "against its [calibrate.targets]",
    )
    calibrate_cmd.add_argument(
        "--tests", type=int, default=6,
        help="rung-0 budget in tests per test type (each later rung "
             "runs 3x the previous one's)",
    )
    calibrate_cmd.add_argument("--seed", type=int, default=0)
    _add_out_flag(
        calibrate_cmd, "--store-out", metavar="DIR",
        help="directory of per-rung fleet stores (enables "
             "checkpoint/resume)",
    )
    _add_out_flag(
        calibrate_cmd, "--calibrate-out",
        help="write the machine-readable fidelity report "
             "(fidelity.json)",
    )
    calibrate_cmd.add_argument(
        "--quiet", action="store_true",
        help="suppress per-rung progress lines",
    )
    _add_fleet_args(calibrate_cmd)

    sync_cmd = sub.add_parser(
        "clocksync", help="measure the clock-sync protocol's accuracy"
    )
    sync_cmd.add_argument("--seed", type=int, default=0)
    sync_cmd.add_argument("--samples", type=int, default=8,
                          help="time queries per estimate")

    world_cmd = sub.add_parser(
        "world",
        help="run a scenario as a partitioned simulated world",
        description=(
            "Execute a scenario's [topology] through the sharded "
            "world engine (repro.world): author-sharded sessions and "
            "replicas on N shards joined by a deterministic message "
            "bus; the shards run in one process per usable core.  "
            "The signature printed is byte-identical for every "
            "--shards value and core count — the contract "
            "tools/gates.py world gates in CI."
        ),
    )
    world_cmd.add_argument(
        "--scenario", required=True, metavar="FILE",
        help="scenario file with a [topology] table",
    )
    world_cmd.add_argument("--seed", type=int, default=0)
    world_cmd.add_argument(
        "--shards", type=int, default=None,
        help="override topology.shards (placement and parallelism: "
             "the shards run in min(shards, cores) processes; "
             "results do not change)",
    )
    world_cmd.add_argument(
        "--sessions", type=int, default=None,
        help="override topology.sessions (smoke-scale a big world)",
    )
    world_cmd.add_argument(
        "--json", action="store_true",
        help="print the full result summary as JSON",
    )

    lint_cmd = sub.add_parser(
        "lint",
        help="run the determinism & trace-safety linter over the tree",
        description=(
            "AST-based static analysis enforcing that campaigns stay a "
            "pure function of (seed, config): no ambient randomness, "
            "no wall-clock reads, no order taken out of an unordered "
            "collection, no module-level state, no trace mutation — "
            "over the whole repro package, in one mode."
        ),
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_cmd)

    return parser


def _add_out_flag(cmd: argparse.ArgumentParser, flag: str, *,
                  help: str, legacy: str | None = None,
                  metavar: str = "FILE") -> None:
    """Add an output-path flag following the ``--*-out`` convention.

    Every subcommand output flag goes through here so the surface
    stays uniform (``--campaign-out``, ``--trace-out``, ``--obs-out``,
    ``--store-out``).  ``legacy`` registers a hidden pre-convention
    alias (``--output``, ``--out``) that keeps old invocations
    working.
    """
    names = [flag] + ([legacy] if legacy else [])
    cmd.add_argument(
        *names, dest=flag.lstrip("-").replace("-", "_"),
        default=None, metavar=metavar, help=help,
    )


def _add_campaign_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--tests", type=int, default=50,
                     help="tests per test type (paper ran ~1000)")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--gap", type=float, default=15.0,
                     help="virtual cool-down between tests (seconds)")
    cmd.add_argument(
        "--metrics", default=None, metavar="NAMES",
        help="comma-separated relation-layer metric names to "
             "evaluate per test (see repro.relations.registry); "
             "overrides a scenario file's metrics list",
    )


def _add_fleet_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = serial in-process execution; "
             "output is bit-identical either way)",
    )


def _parse_services(raw: str) -> tuple[list[str], list[str]]:
    """Split a --services value; returns (services, unknown)."""
    from repro.services.profiles import (
        EXTENSION_SERVICE_NAMES,
        SERVICE_NAMES,
    )

    services = [name.strip() for name in raw.split(",")
                if name.strip()]
    known = set(SERVICE_NAMES + EXTENSION_SERVICE_NAMES)
    unknown = sorted(set(services) - known)
    return services, unknown


def _parse_metrics(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(name.strip() for name in raw.split(",")
                 if name.strip())


def _config(args: argparse.Namespace) -> CampaignConfig:
    from repro.methodology.config import CampaignConfig

    return CampaignConfig(
        num_tests=args.tests, seed=args.seed,
        inter_test_gap=args.gap,
        mask_sessions=getattr(args, "masked", False),
        metrics=_parse_metrics(getattr(args, "metrics", None)),
    )


def _load_cli_scenarios(paths) -> list:
    """Load + register scenario files named on the command line."""
    from repro.scenario.loader import load_scenarios
    from repro.scenario.registry import register_scenario

    return [register_scenario(spec, replace=True)
            for spec in load_scenarios(paths).values()]


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.prevalence import prevalence_table
    from repro.methodology.runner import run_campaign

    if (args.service is None) == (args.scenario is None):
        print("run needs exactly one of --service / --scenario",
              file=sys.stderr)
        return 2
    if args.scenario is not None:
        from repro.scenario.registry import scenario_campaign

        (spec,) = _load_cli_scenarios([args.scenario])
        service, config = scenario_campaign(spec, _config(args))
    else:
        service, config = args.service, _config(args)
    observer = None
    trace_file = None
    if args.trace_out:
        from repro.io import TraceEventWriter

        trace_file = open(args.trace_out, "w", encoding="utf-8")
        observer = TraceEventWriter(trace_file)
    try:
        result = run_campaign(service, config, observer=observer,
                              spans=bool(args.obs_out))
    finally:
        if trace_file is not None:
            trace_file.close()
    if args.trace_out:
        print(f"operation stream written to {args.trace_out}")
    if args.obs_out:
        from repro.obs.export import export_snapshot

        export_snapshot(result.obs, args.obs_out)
        print(f"obs snapshot written to {args.obs_out}")
    print(f"service: {result.service}")
    print(f"tests:   {result.total_tests} "
          f"({config.num_tests} per test type)")
    print(f"reads:   {result.total_reads}")
    print(f"writes:  {result.total_writes}")
    print()
    print(prevalence_table({result.service: result}))
    if result.config.metrics:
        from repro.analysis.metrics import metric_table

        print()
        print(metric_table({result.service: result}))
    if args.campaign_out:
        from repro.io import save_campaign

        path = save_campaign(result, args.campaign_out)
        print(f"\nsaved campaign records to {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import full_report
    from repro.io import load_campaign

    results = {}
    for filename in args.files:
        result = load_campaign(filename)
        results[result.service] = result
    print(full_report(results))
    return 0


def _resolve_fleet_services(args) -> tuple[list[str], list, int]:
    """(services, scenario specs, error) for --services/--scenario."""
    specs = _load_cli_scenarios(args.scenario or [])
    if args.services is not None:
        services, unknown = _parse_services(args.services)
        if unknown:
            print(f"unknown services: {unknown}", file=sys.stderr)
            return [], [], 2
    elif specs:
        services = []
    else:
        from repro.services.profiles import SERVICE_NAMES

        services = list(SERVICE_NAMES)
    services += [spec.name for spec in specs
                 if spec.name not in services]
    return services, specs, 0


def _cmd_figures(args: argparse.Namespace) -> int:
    services, scenario_specs, error = _resolve_fleet_services(args)
    if error:
        return error
    from repro.analysis.report import full_report
    from repro.fleet.executor import run_fleet
    from repro.fleet.spec import FleetSpec

    spec = FleetSpec(services=tuple(services),
                     base_config=_config(args),
                     seeds=(args.seed,),
                     scenarios=tuple(scenario_specs))
    outcome = run_fleet(spec, jobs=args.jobs)
    results = {job.service: result
               for job, result in zip(outcome.jobs, outcome.results)}
    print(full_report(results))
    from repro.calibrate.claims import claims_table, evaluate_claims

    verdicts = evaluate_claims(results)
    if verdicts:
        print("\n== Paper claims (§V): rows for these services ==")
        print(claims_table(verdicts))
    return 0


def _print_event(event) -> None:
    """The ``on_event`` of every verb that narrates a run."""
    from repro.obs.events import render_event

    line = render_event(event)
    if line:
        print(line)


def _cmd_fleet(args: argparse.Namespace) -> int:
    services, scenario_specs, error = _resolve_fleet_services(args)
    if error:
        return error
    import repro.calibrate.claims as claims
    from repro.fleet.executor import run_fleet
    from repro.fleet.spec import FleetSpec, derive_fleet_seeds

    if args.seeds is not None:
        seeds = tuple(int(part) for part in args.seeds.split(",")
                      if part.strip())
    else:
        seeds = derive_fleet_seeds(args.seed, args.replicates or 3)
    spec = FleetSpec(services=tuple(services),
                     base_config=_config(args), seeds=seeds,
                     scenarios=tuple(scenario_specs))

    outcome = run_fleet(
        spec, jobs=args.jobs, out_dir=args.store_out,
        on_event=None if args.quiet else _print_event,
        shard_timeout=args.shard_timeout,
        stream=args.stream,
    )

    print(f"\n== Fleet summary ({len(outcome.results)} campaigns, "
          f"signature {outcome.signature()[:16]}) ==")
    for service, results in outcome.by_service().items():
        print(f"\n{service}: anomaly prevalence over "
              f"{len(results)} seed(s)")
        print(claims.seeds_table(claims.fig3_lines(service, results)))
        if any(result.config.metrics for result in results):
            from repro.analysis.metrics import metric_summaries

            print(f"{service}: consistency metrics over "
                  f"{len(results)} seed(s)")
            print(claims.seeds_table([claims.across_seeds(
                claims.Claim(f"metrics.{service}.{rows[0].metric}", None),
                [row.value for row in rows])
                for rows in zip(*map(metric_summaries, results))]))
    per_seed = claims.evaluate_seeds(outcome)
    failing = [f"  {row:64s} holds at {held} of {applies}" for row, (
        held, applies) in claims.held_at(per_seed).items() if held < applies]
    print("\nclaim rows that fail at some seed:", *failing or ["  none"],
          sep="\n")
    if args.obs_out:
        merged = outcome.merged_obs()
        if merged is None:
            print("obs export skipped: at least one shard has no "
                  "snapshot (store predates obs?)", file=sys.stderr)
        else:
            from repro.obs.export import export_snapshot

            export_snapshot(merged, args.obs_out)
            print(f"merged obs snapshot written to {args.obs_out}")
    if args.store_out:
        from repro.fleet.digest import canonical
        from repro.io import write_digest_jsonl

        write_digest_jsonl(f"{args.store_out}/claims.jsonl", [
            {"config": canonical(spec.base_config)}, *(
            {"seed": seed, "id": verdict.claim.id, "value": verdict.value,
             "holds": verdict.holds, "applies": verdict.applies}
            for seed, verdicts in per_seed.items() for verdict in verdicts)],
            kind="claims", schema_version=1)
        print(f"\nartifacts stored in {args.store_out}")
    return 0


def _follow_lines(handle, poll_interval: float = 0.5):
    """Yield whole lines forever, waiting for appends at EOF (tail -f).

    A tail without its newline is a write still in flight: held back.
    """
    import time

    tail = ""
    while True:
        tail += handle.readline()
        if tail.endswith("\n"):
            yield tail
            tail = ""
        else:
            time.sleep(poll_interval)


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.errors import AnalysisError
    from repro.io import iter_trace_events
    from repro.stream.engine import DEFAULT_HORIZON, StreamEngine
    from repro.stream.ingest import OpIngest
    from repro.stream.ingest import feed_events

    horizon = (args.horizon if args.horizon is not None
               else DEFAULT_HORIZON)
    obs = None
    if args.obs_out:
        from repro.obs.context import ObsContext

        obs = ObsContext()
    metric_specs = ()
    if args.metrics:
        from repro.relations.registry import resolve_metrics

        metric_specs = resolve_metrics(
            _parse_metrics(args.metrics))
    engine = StreamEngine(horizon=horizon, obs=obs,
                          metrics=metric_specs)
    peak_state = 0
    metric_totals = {spec.name: 0.0 for spec in metric_specs}
    metric_measure = {spec.name: spec.measure
                      for spec in metric_specs}

    def on_emission(meta, sop, emission) -> None:
        if args.quiet:
            return
        for obs in emission.observations:
            print(f"[{meta.test_id}] {obs.anomaly} by {obs.agent} "
                  f"at t={obs.time:.2f}")
        for event in emission.window_events:
            pair = "~".join(event.pair)
            tail = (f" ({event.time - event.start:.2f}s)"
                    if event.start is not None else "")
            print(f"[{meta.test_id}] {event.kind} window "
                  f"{event.action} for {pair} at "
                  f"t={event.time:.2f}{tail}")

    def on_record(meta, record) -> None:
        found = {kind: len(observations) for kind, observations
                 in record.report.observations.items()
                 if observations}
        summary = (", ".join(f"{kind}={count}" for kind, count
                             in sorted(found.items()))
                   or "clean")
        for result in record.metrics:
            if metric_measure.get(result.metric) == "max":
                metric_totals[result.metric] = max(
                    metric_totals[result.metric], result.value)
            elif result.metric in metric_totals:
                metric_totals[result.metric] += result.value
        print(f"[{meta.test_id}] closed: {summary} "
              f"(state={engine.state_size()})")

    ingest = OpIngest(engine, on_emission=on_emission,
                      on_record=on_record)
    try:
        handle = open(args.trace, "r", encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(
            f"{args.trace}: cannot read: {exc.strerror or exc}") from exc
    try:
        with handle:
            lines = (_follow_lines(handle) if args.follow
                     else iter(handle))
            ingested = 0
            for event in feed_events(iter_trace_events(lines),
                                     ingest):
                if event.get("event") != "op":
                    continue
                ingested += 1
                state = engine.state_size() + ingest.state_size()
                peak_state = max(peak_state, state)
                if args.stats_every and \
                        ingested % args.stats_every == 0:
                    counts = ", ".join(
                        f"{kind}={count}" for kind, count
                        in sorted(engine.anomaly_counts.items())
                        if count)
                    print(f"-- {ingested} ops, "
                          f"{engine.open_tests} open / "
                          f"{engine.tests_closed} closed tests, "
                          f"state={state} (peak {peak_state})"
                          + (f", {counts}" if counts else ""))
    except KeyboardInterrupt:
        print("\ninterrupted")
    except AnalysisError as exc:
        raise AnalysisError(f"{args.trace}: {exc}") from exc
    print(f"\n== Stream summary ==")
    print(f"operations ingested: {engine.operations_seen}")
    print(f"tests closed:        {engine.tests_closed}")
    print(f"peak state size:     {peak_state}")
    for kind, count in engine.anomaly_counts.items():
        print(f"  {kind:20s} {count}")
    if metric_specs:
        print("consistency metrics (streaming):")
        for spec in metric_specs:
            reduction = "max" if spec.measure == "max" else "total"
            print(f"  {spec.name:28s} {reduction} "
                  f"{metric_totals[spec.name]:g}")
    if obs is not None:
        from repro.obs.export import export_snapshot

        export_snapshot(obs.snapshot(), args.obs_out)
        print(f"\nobs snapshot written to {args.obs_out}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import AnalysisError, FleetError
    from repro.obs.export import load_snapshot
    from repro.obs.report import render_obs_report

    path = Path(args.path)
    try:
        if path.is_dir():
            from repro.fleet.store import ArtifactStore

            store = ArtifactStore(path)
            # Shard ids embed the zero-padded spec index, so sorted
            # file order *is* spec merge order.
            shard_ids = store.completed_shards()
            snapshot, missing = store.merged_obs(shard_ids)
            if missing:
                print(f"shards without obs snapshots: {missing}",
                      file=sys.stderr)
                return 2
            if not shard_ids:
                print(f"no completed shards in {path}",
                      file=sys.stderr)
                return 2
        else:
            snapshot = load_snapshot(path)
    except (AnalysisError, FleetError, OSError) as exc:
        print(f"cannot read obs data from {path}: {exc}",
              file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_obs_report(snapshot))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.calibrate import (
        comparison_table,
        run_calibration,
        write_fidelity_json,
    )
    from repro.methodology.config import CampaignConfig

    if (args.service is None) == (args.scenario is None):
        print("calibrate needs exactly one of --service / "
              "--scenario", file=sys.stderr)
        return 2
    base = CampaignConfig(seed=args.seed)
    space = objective = None
    if args.scenario is not None:
        from repro.scenario.registry import scenario_objective, scenario_space

        (scenario_spec,) = _load_cli_scenarios([args.scenario])
        service = scenario_spec.name
        space = scenario_space(scenario_spec)
        objective = scenario_objective(scenario_spec)
        base = replace(base, scenario=scenario_spec,
                       client_policy=scenario_spec.policy)
    else:
        service = args.service
    outcome = run_calibration(
        service, space=space, objective=objective,
        base_config=base, num_tests=args.tests, jobs=args.jobs,
        store_dir=args.store_out,
        on_message=None if args.quiet else print,
    )
    winner = outcome.winner
    print(f"\n== Calibration winner for {service} "
          f"({len(outcome.trials)} trials) ==")
    print(f"trial {winner.trial_id} at {winner.num_tests} tests/type, "
          f"weighted loss {winner.score.total:.4f}")
    for path, value in winner.assignment.items():
        print(f"  {path} = {value}")

    # Baseline shielding keeps candidate 0 (the checked-in defaults)
    # in the final rung: an apples-to-apples comparison at the
    # winner's budget and seed.
    baseline_score = outcome.baseline_trial().score
    print()
    print(comparison_table(baseline_score, winner.score))
    if args.calibrate_out:
        write_fidelity_json(
            args.calibrate_out,
            {f"{service}.default": baseline_score,
             f"{service}.calibrated": winner.score},
            extra={
                "service": service,
                "seed": args.seed,
                "winner_trial": winner.trial_id,
                "num_tests": winner.num_tests,
                "assignment": dict(sorted(
                    winner.assignment.items()
                )),
            },
        )
        print(f"\nfidelity report written to {args.calibrate_out}")
    if args.store_out:
        print(f"rung stores in {args.store_out}")
    return 0


def _cmd_clocksync(args: argparse.Namespace) -> int:
    from repro.clocksync.cristian import estimate_clock_delta
    from repro.methodology.world import MeasurementWorld
    from repro.sim.process import spawn

    world = MeasurementWorld("blogger", seed=args.seed)
    print("Cristian-style delta estimation vs. simulator ground truth")
    print(f"{'agent':10s}{'true delta':>12s}{'estimate':>12s}"
          f"{'error':>10s}{'bound':>10s}")
    for agent in world.agents:
        process = spawn(
            world.sim, estimate_clock_delta,
            world.network, world.coordinator.host,
            world.coordinator.clock, agent.host,
            samples=args.samples,
        )
        world.sim.run_until(world.sim.now + 60.0)
        estimate = process.completion.value
        true_delta = (agent.clock.now()
                      - world.coordinator.clock.now())
        error = abs(estimate.delta - true_delta)
        print(f"{agent.name:10s}{true_delta:12.4f}{estimate.delta:12.4f}"
              f"{error:10.4f}{estimate.uncertainty:10.4f}")
    return 0


def _cmd_world(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.scenario.loader import load_scenario
    from repro.world.engine import run_world
    from repro.world.scenario import world_from_scenario

    scenario = load_scenario(args.scenario)
    spec = world_from_scenario(
        scenario, shards=args.shards, sessions=args.sessions,
    )
    result = run_world(spec, seed=args.seed)
    if args.json:
        print(json_module.dumps(result.summary(), indent=2,
                                sort_keys=True))
        return 0
    print(f"world {scenario.name}: {result.sessions} sessions on "
          f"{result.replicas} replicas / {result.shards} shard(s)")
    print(f"  tests={result.tests} ops={result.ops} "
          f"bus={result.bus_messages} "
          f"(deferred {result.bus_deferred}) epochs={result.epochs}")
    anomalies = ", ".join(f"{kind}={count}" for kind, count
                          in result.anomalies.items()) or "none"
    print(f"  anomalies: {anomalies}")
    print(f"  max stream state={result.max_stream_state} "
          f"peak open state={result.peak_open_state}")
    print(f"  signature {result.signature}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_from_args

    return run_from_args(args)


def main(argv: list[str] | None = None) -> int:
    """Run one verb; a :class:`ReproError` is one stderr line, exit 2.

    A bad scenario, flag value or store fails closed as
    ``<command>: <message>`` instead of a traceback.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "stream": _cmd_stream,
        "figures": _cmd_figures,
        "fleet": _cmd_fleet,
        "report": _cmd_report,
        "calibrate": _cmd_calibrate,
        "obs": _cmd_obs,
        "clocksync": _cmd_clocksync,
        "world": _cmd_world,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

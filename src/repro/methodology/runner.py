"""Campaign runner: execute many test instances and distill results.

One campaign = one service + one :class:`CampaignConfig`.  The runner
builds a fresh :class:`~repro.methodology.world.MeasurementWorld`, runs
``num_tests`` instances of each requested test template with cool-downs
in between (the paper alternated four-day blocks of each type; we run
the blocks back-to-back since block order does not interact with any
measured quantity), runs the stream engine — the six anomaly
checkers, the divergence-window trackers and any requested metrics —
to completion over every finished trace, and returns a
:class:`CampaignResult` of compact per-test records.

Fault scenarios are armed by a :class:`~repro.methodology.nemesis.Nemesis`
hook before each test.  By default, ``facebook_group`` Test 2 campaigns
get the paper's Tokyo incident — a partition between the group store's
replicas spanning ``group_partition_tests`` consecutive tests (§V
attributes 9 of the 15 content-divergence occurrences to such a
stretch); pass ``CampaignConfig(nemesis=...)`` for custom scenarios.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.anomalies.registry import check_all
from repro.core.stream import run_to_completion
from repro.core.trace import TestTrace
from repro.core.windows import (
    content_divergence_windows,
    order_divergence_windows,
)
from repro.errors import ReproError
from repro.methodology.config import (
    PAPER_PLANS,
    CampaignConfig,
    ServicePlan,
)
from repro.methodology.records import (
    CampaignResult,
    Pair,
    TestRecord,
    TraceAnalyzer,
)
from repro.methodology.test1 import run_test1
from repro.methodology.test2 import run_test2
from repro.methodology.world import MeasurementWorld
from repro.obs.events import OperationObserver
from repro.sim.process import spawn
from repro.stream.engine import StreamEngine

# ``check_all`` and the two window functions are re-exports nothing
# here calls: the frozen ``bench/seams.py`` wraps them for a traced
# run as ``vars(repro.methodology.runner)[name]``, so they stay.  The
# record types are re-exported from :mod:`repro.methodology.records`.
__all__ = ["TestRecord", "CampaignResult", "run_campaign",
           "analyze_trace", "OperationObserver", "TraceAnalyzer",
           "Pair", "check_all", "content_divergence_windows",
           "order_divergence_windows"]


def analyze_trace(trace: TestTrace,
                  keep_trace: bool = False,
                  metrics: tuple = ()) -> TestRecord:
    """Distill one trace into a compact :class:`TestRecord`.

    The one distiller, :class:`~repro.stream.engine.StreamEngine`, run
    to completion over the sorted trace — one sort, one pass.
    ``metrics`` is a tuple of resolved
    :class:`~repro.relations.spec.MetricSpec` objects; when non-empty
    the record additionally carries the relation-layer metric results
    (see :mod:`repro.relations`).
    """
    (record,) = run_to_completion(
        [StreamEngine(horizon=1, metrics=metrics)], trace
    )
    return replace(record, trace=trace) if keep_trace else record


def run_campaign(service_name: str,
                 config: CampaignConfig | None = None,
                 plan: ServicePlan | None = None,
                 observer: OperationObserver | None = None,
                 analyzer: TraceAnalyzer | None = None,
                 spans: bool | None = None) -> CampaignResult:
    """Run a full measurement campaign against one service.

    ``observer`` taps the live operation stream (see
    :class:`OperationObserver`); ``analyzer`` replaces the default
    :func:`analyze_trace` — a streaming fleet shard passes one that
    also reports each record as its test closes.
    Neither affects what the campaign *executes*: they only watch, or
    re-derive, the analysis of each finished trace.

    ``spans=True`` is for a caller that exports telemetry (``run
    --obs-out``, every fleet shard): ``result.obs["spans"]`` then
    lists every finished span.  With ``spans=False`` it is empty and
    the campaign stores no span; metrics, records and the campaign
    signature are the same either way.  Left unset, spans are kept
    exactly when an ``analyzer`` is given: a caller that re-derives
    each test's analysis is inspecting the run, and ``bench``'s traced
    campaign unit reads its agent-operation counts from the spans.
    """
    config = config or CampaignConfig()
    if plan is None:
        if config.scenario is not None:
            from repro.scenario.registry import scenario_plan

            plan = scenario_plan(config.scenario)
        else:
            plan = PAPER_PLANS[service_name]
    world = MeasurementWorld(
        service_name, seed=config.seed,
        service_params=config.service_params,
        role_order=config.role_order,
        scenario=config.scenario,
        spans=analyzer is not None if spans is None else spans,
    )
    # Policy wraps the raw session; masking stacks on top of it, as a
    # real SDK layers session guarantees above its retry machinery.
    if config.client_policy is not None:
        _apply_client_policy(world, config.client_policy)
    if config.mask_sessions:
        _mask_agent_sessions(world)
    result = CampaignResult(service=service_name, config=config)
    gap_stream = world.rng.stream("campaign.gap")

    nemesis = _effective_nemesis(service_name, config)

    metric_specs: tuple = ()
    if config.metrics:
        from repro.relations.registry import resolve_metrics

        metric_specs = resolve_metrics(config.metrics)

    def campaign():
        for test_type in config.test_types:
            duration_hint = (plan.test1.timeout if test_type == "test1"
                             else plan.test2.timeout)
            for index in range(config.num_tests):
                armed_windows = None
                if nemesis is not None:
                    armed_windows = nemesis.before_test(
                        world, test_type, index, config.num_tests,
                        duration_hint,
                    )
                test_id = f"{service_name}-{test_type}-{index}"
                if test_type == "test1":
                    trace = yield from run_test1(world, test_id,
                                                 plan.test1, observer)
                    gap = (config.inter_test_gap
                           if config.inter_test_gap is not None
                           else plan.test1.inter_test_gap)
                else:
                    trace = yield from run_test2(world, test_id,
                                                 plan.test2, observer)
                    gap = (config.inter_test_gap
                           if config.inter_test_gap is not None
                           else plan.test2.inter_test_gap)
                if armed_windows:
                    # Test-scoped faults end with the test, not with
                    # their (timeout-sized) hint.
                    for window in armed_windows:
                        world.faults.close(window, world.sim.now)
                if observer is not None:
                    observer.test_closed(trace)
                if analyzer is not None:
                    record = analyzer(trace, config.keep_traces)
                else:
                    record = analyze_trace(trace, config.keep_traces,
                                           metrics=metric_specs)
                result.records.append(record)
                # Sub-second jitter varies the wall-clock phase between
                # tests (load-bearing for second-truncated ordering).
                yield gap + gap_stream.uniform(0.0, 1.0)

    driver = spawn(world.sim, campaign, name=f"campaign.{service_name}")
    # Services run periodic timers (anti-entropy, batch flushes) that
    # never drain the event queue, so drive the clock in chunks until
    # the campaign process finishes — with a generous virtual-time
    # budget as a wedge against harness bugs.
    per_test_budget = max(
        plan.test1.timeout + _gap_or(config, plan.test1.inter_test_gap),
        plan.test2.timeout + _gap_or(config, plan.test2.inter_test_gap),
    )
    budget = (4.0 * per_test_budget * config.num_tests
              * len(config.test_types) + 3600.0)
    deadline = world.sim.now + budget
    while not driver.completion.done and world.sim.now < deadline:
        world.sim.run_until(world.sim.now + 300.0)
    if not driver.completion.done:
        raise ReproError(
            f"campaign against {service_name!r} exceeded its virtual "
            f"time budget of {budget:.0f}s"
        )
    if driver.completion.failed:
        raise ReproError(
            f"campaign against {service_name!r} failed"
        ) from driver.completion.exception
    result.obs = world.obs.snapshot()
    return result


def _mask_agent_sessions(world: MeasurementWorld) -> None:
    """Wrap every agent's session in the masking layer (§V ablation).

    Imported lazily to keep the methodology package importable without
    the masking extension.
    """
    from repro.masking import DependencyRegistry, SessionGuaranteeClient

    registry = DependencyRegistry()
    for agent in world.agents:
        agent.session = SessionGuaranteeClient(
            agent.session, registry=registry
        )


def _apply_client_policy(world: MeasurementWorld,
                         policy_spec) -> None:
    """Wrap every agent's session in the resilience policy layer.

    Imported lazily, like masking, so the methodology package stays
    importable without the scenario extension.
    """
    from repro.scenario.policies import apply_policy

    apply_policy(world, policy_spec)


def _gap_or(config: CampaignConfig, plan_gap: float) -> float:
    """The effective cool-down for budget computation."""
    return (config.inter_test_gap
            if config.inter_test_gap is not None else plan_gap)


def _effective_nemesis(service_name: str, config: CampaignConfig):
    """The configured nemesis, or the service's paper-default one."""
    if config.nemesis is not None:
        return config.nemesis
    if config.scenario is not None and config.scenario.nemeses:
        from repro.scenario.registry import scenario_nemesis

        # Built fresh per campaign: nemeses carry arming state.
        return scenario_nemesis(config.scenario)
    if (service_name == "facebook_group"
            and config.group_partition_tests != 0):
        from repro.methodology.nemesis import PartitionStretchNemesis

        return PartitionStretchNemesis(
            host_a="fbgroup-primary",
            host_b="fbgroup-follower",
            span=config.effective_partition_tests(),
            test_type="test2",
        )
    return None

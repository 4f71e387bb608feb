"""Resolve scenarios by name and lower them onto the existing stack.

The registry is the seam between the declarative layer and everything
that already exists: it turns a :class:`ScenarioSpec` into the campaign
config, the test plan, the nemesis, the params object, the calibrate
search space/objective, and — via
:func:`~repro.services.profiles.build_service` — the running service.

Name resolution (``register_scenario`` / ``get_scenario``) exists so
the CLI can load ``--scenario`` files once and then treat the scenario
name like any built-in service name; the execution path itself never
needs the registry, because the spec rides inside
``CampaignConfig.scenario`` (pickled into fleet shard jobs), which also
puts the scenario's canonical content into every ``spec_hash``.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.errors import ConfigurationError
from repro.methodology.config import (
    PAPER_PLANS,
    CampaignConfig,
    ServicePlan,
    Test1Config,
    Test2Config,
)
from repro.scenario.schema import ScenarioSpec

__all__ = [
    "register_scenario",
    "get_scenario",
    "forget_scenario",
    "registered_scenarios",
    "scenario_base_params",
    "scenario_params",
    "scenario_plan",
    "scenario_config",
    "scenario_campaign",
    "scenario_nemesis",
    "scenario_space",
    "scenario_objective",
    "build_scenario_service",
]

#: Scenarios registered by name this process (CLI / test wiring only;
#: campaign execution reads the spec from the config, never from here).
_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec,
                      replace: bool = False) -> ScenarioSpec:
    """Make ``spec`` resolvable by name; same-content re-register ok."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and not replace and \
            existing.digest() != spec.digest():
        raise ConfigurationError(
            f"scenario {spec.name!r} is already registered with "
            f"different content (registered digest "
            f"{existing.digest()}, offered digest {spec.digest()}); "
            "pass replace=True to override"
        )
    # Waived: the CLI fills the registry from --scenario files before
    # a run starts; the execution path never reads it — the spec rides
    # by value inside CampaignConfig.scenario.
    _REGISTRY[spec.name] = spec  # repro-lint: disable=DET005
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """The registered scenario for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = tuple(sorted(_REGISTRY))
        raise ConfigurationError(
            f"no scenario registered under {name!r} "
            f"(registered: {known})"
        ) from None


def forget_scenario(name: str) -> None:
    """Drop a registered scenario (test hygiene)."""
    # Waived: test hygiene for the registry above; no run calls it.
    _REGISTRY.pop(name, None)  # repro-lint: disable=DET005


def registered_scenarios() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# Params
# ---------------------------------------------------------------------------


def scenario_base_params(spec: ScenarioSpec) -> Any:
    """A fresh default params object for the scenario's archetype."""
    if spec.service.archetype == "builtin":
        from repro.services.blogger import BloggerParams
        from repro.services.facebook_feed import FacebookFeedParams
        from repro.services.facebook_group import FacebookGroupParams
        from repro.services.googleplus import GooglePlusParams
        from repro.services.quorum_kv import QuorumKvParams

        factories = {
            "googleplus": GooglePlusParams,
            "blogger": BloggerParams,
            "facebook_feed": FacebookFeedParams,
            "facebook_group": FacebookGroupParams,
            "quorum_kv": QuorumKvParams,
        }
        return factories[spec.service.base]()
    from repro.scenario.engines import GossipServiceParams

    return GossipServiceParams()


def _replace_path(params: Any, path: str, value: Any,
                  full_path: str) -> Any:
    head, _, rest = path.partition(".")
    if not dataclasses.is_dataclass(params) or \
            not hasattr(params, head):
        raise ConfigurationError(
            f"service.params.{full_path}: "
            f"{type(params).__name__} has no field {head!r}"
        )
    if rest:
        value = _replace_path(getattr(params, head), rest, value,
                              full_path)
    return dataclasses.replace(params, **{head: value})


def scenario_params(spec: ScenarioSpec) -> Any | None:
    """The scenario's params object, or None when it has no overrides.

    None keeps the equivalence property exact: a scenario with no
    ``[service.params]`` produces the same ``service_params=None``
    config (and thus the same world construction path) as a plain
    ``build_service(name)`` run.
    """
    if not spec.service.params:
        return None
    params = scenario_base_params(spec)
    for path, value in spec.service.params:
        params = _replace_path(params, path, value, path)
    return params


# ---------------------------------------------------------------------------
# Plan / config
# ---------------------------------------------------------------------------

#: Plan for engine archetypes (matches the quorum_kv extension plan:
#: short-period reads, 5-minute cool-downs, no paper test count).
_ENGINE_PLAN = ServicePlan(
    test1=Test1Config(read_period=0.3, inter_test_gap=5 * 60,
                      paper_num_tests=0),
    test2=Test2Config(fast_reads=20, reads_per_agent=40,
                      inter_test_gap=5 * 60, paper_num_tests=0),
)


def _apply_overrides(config, pairs, what: str):
    if not pairs:
        return config
    try:
        return dataclasses.replace(config, **dict(pairs))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{what}: {exc}") from None


def scenario_plan(spec: ScenarioSpec) -> ServicePlan:
    """The test plan a campaign of this scenario runs."""
    if spec.service.archetype == "builtin":
        plan = PAPER_PLANS[spec.service.base]
    else:
        plan = _ENGINE_PLAN
    return ServicePlan(
        test1=_apply_overrides(plan.test1, spec.workload.test1,
                               "workload.test1"),
        test2=_apply_overrides(plan.test2, spec.workload.test2,
                               "workload.test2"),
    )


def scenario_config(spec: ScenarioSpec,
                    base: CampaignConfig | None = None
                    ) -> CampaignConfig:
    """Lower a scenario onto a campaign config.

    Scenario workload fields override the base config where set;
    explicit ``service_params`` on the base win over the scenario's
    (that is how calibrate sweeps a scenario's parameter space).
    """
    base = base if base is not None else CampaignConfig()
    updates: dict[str, Any] = {
        "scenario": spec,
        "client_policy": spec.policy,
    }
    if base.service_params is None:
        updates["service_params"] = scenario_params(spec)
    workload = spec.workload
    if workload.num_tests is not None:
        updates["num_tests"] = workload.num_tests
    if workload.test_types is not None:
        updates["test_types"] = workload.test_types
    if workload.inter_test_gap is not None:
        updates["inter_test_gap"] = workload.inter_test_gap
    if workload.role_order is not None:
        updates["role_order"] = workload.role_order
    if workload.mask_sessions is not None:
        updates["mask_sessions"] = workload.mask_sessions
    # A --metrics flag (base config) wins over the file's list, the
    # same precedence service_params gets.
    if spec.metrics and not base.metrics:
        updates["metrics"] = spec.metrics
    return dataclasses.replace(base, **updates)


def scenario_campaign(
    spec: ScenarioSpec, base: CampaignConfig | None = None,
) -> tuple[str, CampaignConfig]:
    """(service_name, config) ready for ``run_campaign``."""
    return spec.name, scenario_config(spec, base)


# ---------------------------------------------------------------------------
# Nemesis
# ---------------------------------------------------------------------------


def scenario_nemesis(spec: ScenarioSpec):
    """Fresh nemesis instances for one campaign (or None).

    Always builds new objects: nemeses carry per-campaign arming state
    (e.g. ``LinkLossNemesis._armed``), so sharing instances across
    campaigns would leak state between shards.
    """
    if not spec.nemeses:
        return None
    from repro.methodology.nemesis import (
        CompositeNemesis,
        LinkLossNemesis,
        PartitionStretchNemesis,
        PeriodicPartitionNemesis,
    )

    parts = []
    for entry in spec.nemeses:
        if entry.kind == "partition_stretch":
            parts.append(PartitionStretchNemesis(
                host_a=entry.host_a, host_b=entry.host_b,
                span=entry.span, start_index=entry.start_index,
                test_type=entry.test_type or "test2",
            ))
        elif entry.kind == "periodic_partition":
            parts.append(PeriodicPartitionNemesis(
                host_a=entry.host_a, host_b=entry.host_b,
                period=entry.period, test_type=entry.test_type,
            ))
        else:
            parts.append(LinkLossNemesis(
                links=[tuple(link) for link in entry.links],
                probability=entry.probability,
            ))
    if len(parts) == 1:
        return parts[0]
    return CompositeNemesis(parts)


# ---------------------------------------------------------------------------
# Calibrate
# ---------------------------------------------------------------------------


def scenario_space(spec: ScenarioSpec):
    """The scenario's declared calibrate search space."""
    from repro.calibrate.space import Axis, SearchSpace

    if spec.calibration is None or not spec.calibration.axes:
        raise ConfigurationError(
            f"scenario {spec.name!r} declares no [calibrate.axes]"
        )
    # The space validates its axes against base_params(spec.name),
    # which resolves through the registry for scenario names.
    register_scenario(spec)
    return SearchSpace(
        service=spec.name,
        axes=tuple(Axis(path, values)
                   for path, values in spec.calibration.axes),
    )


def scenario_objective(spec: ScenarioSpec):
    """The scenario's declared calibrate fit objective."""
    from repro.calibrate.objective import Objective
    from repro.calibrate.targets import ServiceTargets

    if spec.calibration is None or not spec.calibration.prevalence:
        raise ConfigurationError(
            f"scenario {spec.name!r} declares no "
            "[calibrate.targets.prevalence]"
        )
    return Objective(targets=ServiceTargets(
        service=spec.name,
        prevalence=dict(spec.calibration.prevalence),
    ))


# ---------------------------------------------------------------------------
# Service construction
# ---------------------------------------------------------------------------


def build_scenario_service(spec: ScenarioSpec, sim, topology, network,
                           rng, params: Any | None = None):
    """Instantiate the scenario's service model into a world."""
    effective = params if params is not None else \
        scenario_params(spec)
    if spec.service.archetype == "builtin":
        from repro.services.profiles import SERVICE_CLASSES

        service_class = SERVICE_CLASSES[spec.service.base]
        if effective is None:
            return service_class(sim, topology, network, rng)
        return service_class(sim, topology, network, rng,
                             params=effective)
    from repro.scenario.engines import GossipScenarioService

    return GossipScenarioService(spec, sim, topology, network, rng,
                                 params=effective)

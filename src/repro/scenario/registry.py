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

from repro.errors import CalibrationError, ConfigurationError
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
        raise ConfigurationError(
            f"no scenario registered under {name!r} "
            f"(registered: {registered_scenarios()})"
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
        from repro.calibrate.space import base_params

        return base_params(spec.service.base)
    from repro.scenario.engines import GossipServiceParams

    return GossipServiceParams()


def scenario_params(spec: ScenarioSpec) -> Any | None:
    """The scenario's params object, or None when it has no overrides.

    None keeps the equivalence property exact: a scenario with no
    ``[service.params]`` produces the same ``service_params=None``
    config (and thus the same world construction path) as a plain
    ``build_service(name)`` run.
    """
    if not spec.service.params:
        return None
    from repro.calibrate.space import apply_assignment

    params = scenario_base_params(spec)
    for path, value in spec.service.params:
        try:
            params = apply_assignment(params, {path: value})
        except (CalibrationError, ConfigurationError) as exc:
            # A bad path, or a value its ``*Params`` range-check refuses.
            raise ConfigurationError(
                f"service.params.{path}: {exc}"
            ) from None
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
    # Workload fields named like a config field override it when set;
    # the plan overrides (test1 / test2) go through scenario_plan.
    for entry in dataclasses.fields(spec.workload):
        value = getattr(spec.workload, entry.name)
        if value is not None and hasattr(base, entry.name):
            updates[entry.name] = value
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
    from repro.methodology.nemesis import CompositeNemesis

    parts = [entry.build() for entry in spec.nemeses]
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
    return SearchSpace(
        service=spec.name,
        axes=tuple(Axis(path, values)
                   for path, values in spec.calibration.axes),
        base=scenario_base_params(spec),
    )


def scenario_objective(spec: ScenarioSpec):
    """The scenario's declared calibrate fit objective: one Fig. 3
    prevalence row per target, under the scenario's name."""
    from repro.calibrate.claims import Claim, S
    from repro.calibrate.objective import Objective
    from repro.core.anomalies import ALL_ANOMALIES

    if spec.calibration is None or not spec.calibration.prevalence:
        raise ConfigurationError(
            f"scenario {spec.name!r} declares no "
            "[calibrate.targets.prevalence]"
        )
    targets = dict(spec.calibration.prevalence)
    return Objective(rows=tuple(
        Claim(f"fig3.{spec.name}.{anomaly}", S("share", spec.name, anomaly),
              paper=targets[anomaly], weight=1.0)
        for anomaly in ALL_ANOMALIES if anomaly in targets
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
        from repro.services.profiles import service_class

        model = service_class(spec.service.base)
        if effective is None:
            return model(sim, topology, network, rng)
        return model(sim, topology, network, rng, params=effective)
    from repro.scenario.engines import GossipScenarioService

    return GossipScenarioService(spec, sim, topology, network, rng,
                                 params=effective)

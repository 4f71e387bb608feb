"""Declarative scenarios: service × topology × faults × workload ×
client policy as data.

The paper measures four hand-picked services under one fixed
methodology.  This package turns "scenario" into data: a TOML/JSON
file (:mod:`repro.scenario.loader`) validated into a versioned
:class:`~repro.scenario.schema.ScenarioSpec`
(:mod:`repro.scenario.schema`) and lowered onto the existing stack by
:mod:`repro.scenario.registry` — so ``run``, ``fleet``, ``stream``,
and ``calibrate`` accept ``--scenario path.toml`` everywhere a service
name is accepted, without a new Python module per service.

Two archetype engines ship with the DSL: the gossip / anti-entropy
store (:mod:`repro.scenario.engines` over
:mod:`repro.replication.gossip`) and the client-side resilience policy
layer (:mod:`repro.scenario.policies`).
"""

from repro.scenario.loader import (
    load_scenario,
    load_scenarios,
    scenario_from_mapping,
)
from repro.scenario.policies import (
    CircuitOpenError,
    PolicySpec,
    ResilientSession,
    apply_policy,
)
from repro.scenario.registry import (
    build_scenario_service,
    forget_scenario,
    get_scenario,
    register_scenario,
    registered_scenarios,
    scenario_campaign,
    scenario_config,
    scenario_nemesis,
    scenario_objective,
    scenario_params,
    scenario_plan,
    scenario_space,
)
from repro.scenario.schema import (
    SCHEMA_VERSION,
    CalibrationSpec,
    NemesisSpec,
    ScenarioSpec,
    ServiceSpec,
    WorkloadSpec,
)

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioSpec",
    "ServiceSpec",
    "NemesisSpec",
    "WorkloadSpec",
    "CalibrationSpec",
    "PolicySpec",
    "CircuitOpenError",
    "ResilientSession",
    "apply_policy",
    "load_scenario",
    "load_scenarios",
    "scenario_from_mapping",
    "register_scenario",
    "get_scenario",
    "forget_scenario",
    "registered_scenarios",
    "scenario_campaign",
    "scenario_config",
    "scenario_params",
    "scenario_plan",
    "scenario_nemesis",
    "scenario_space",
    "scenario_objective",
    "build_scenario_service",
]

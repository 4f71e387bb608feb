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

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".schema": (
        "SCHEMA_VERSION", "ScenarioSpec", "ServiceSpec", "NemesisSpec",
        "WorkloadSpec", "CalibrationSpec",
    ),
    ".policies": (
        "PolicySpec", "CircuitOpenError", "ResilientSession", "apply_policy",
    ),
    ".loader": ("load_scenario", "load_scenarios", "scenario_from_mapping"),
    ".registry": (
        "register_scenario", "get_scenario", "forget_scenario",
        "registered_scenarios", "scenario_campaign", "scenario_config",
        "scenario_params", "scenario_plan", "scenario_nemesis",
        "scenario_space", "scenario_objective", "build_scenario_service",
    ),
})

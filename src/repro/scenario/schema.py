"""The versioned scenario model: frozen dataclasses + strict checks.

A :class:`ScenarioSpec` is the in-memory form of one scenario file —
**service model × topology × nemesis schedule × workload mix × client
policy** — and the unit everything downstream consumes: the campaign
config carries it (so it rides pickled shard jobs into fleet workers
and enters ``spec_hash`` through the canonical digest), the registry
resolves it by name, and the engines instantiate it into a running
service.

Every nested spec validates eagerly in ``__post_init__`` and raises
:class:`~repro.errors.ConfigurationError` (``[topology]`` is a
:class:`~repro.world.spec.WorldSpec`, which raises
:class:`~repro.errors.SimulationError`); the loader re-raises both
with the offending file path.  Specs are plain frozen
dataclasses of primitives and tuples, so they pickle across the fleet
worker boundary and lower canonically into fleet digests without any
special casing.

``SCHEMA_VERSION`` is bumped whenever the model changes shape; files
declaring another version are rejected at load time (version skew is
an error, not a silent best-effort parse).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.anomalies import ALL_ANOMALIES
from repro.errors import CalibrationError, ConfigurationError
from repro.fleet.digest import canonical_json, sha256_hex
from repro.methodology.config import Test1Config, Test2Config
from repro.methodology.nemesis import (
    LinkLossNemesis,
    Nemesis,
    PartitionStretchNemesis,
    PeriodicPartitionNemesis,
)
from repro.net.topology import IRELAND, OREGON, TOKYO, VIRGINIA, Region
from repro.scenario.policies import PolicySpec
from repro.world.spec import WorldSpec

__all__ = [
    "SCHEMA_VERSION",
    "ARCHETYPES",
    "KNOWN_REGIONS",
    "ServiceSpec",
    "NemesisSpec",
    "WorkloadSpec",
    "CalibrationSpec",
    "ScenarioSpec",
]

#: Current scenario schema version (files must declare it).
SCHEMA_VERSION = 1

#: Service archetypes the DSL can instantiate.
ARCHETYPES = ("builtin", "gossip")

#: Regions an engine scenario may place replicas in, by name (the
#: paper's EC2 geography; see :mod:`repro.net.topology`).
KNOWN_REGIONS: dict[str, Region] = {
    region.name: region for region in (OREGON, TOKYO, IRELAND, VIRGINIA)
}

#: The nemesis class each ``[[nemesis]]`` kind builds.
_NEMESIS_CLASSES: dict[str, type[Nemesis]] = {
    "partition_stretch": PartitionStretchNemesis,
    "periodic_partition": PeriodicPartitionNemesis,
    "link_loss": LinkLossNemesis,
}

_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyz0123456789_"
)


def _valid_name(name: str) -> bool:
    return bool(name) and name[0].isalpha() and \
        set(name) <= _NAME_CHARS


def _check_param_pairs(pairs: tuple, what: str) -> None:
    if not isinstance(pairs, tuple):
        raise ConfigurationError(f"{what} must be a tuple of "
                                 "(path, value) pairs")
    paths = []
    for entry in pairs:
        if not (isinstance(entry, tuple) and len(entry) == 2
                and isinstance(entry[0], str) and entry[0]):
            raise ConfigurationError(
                f"{what} entries must be (dotted-path, value) pairs"
            )
        paths.append(entry[0])
    duplicates = sorted({p for p in paths if paths.count(p) > 1})
    if duplicates:
        raise ConfigurationError(
            f"{what} repeats paths {duplicates}"
        )


@dataclass(frozen=True)
class ServiceSpec:
    """Which service model a scenario instantiates, and how."""

    #: One of :data:`ARCHETYPES`.
    archetype: str
    #: For the ``builtin`` archetype: the registered service name.
    base: str | None = None
    #: For engine archetypes: replica regions (empty = the agent
    #: regions oregon/tokyo/ireland).
    regions: tuple[str, ...] = ()
    #: Dotted-path overrides applied to the archetype's default
    #: parameter dataclass, e.g. ``("store.fanout", 2)``.
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.archetype not in ARCHETYPES:
            raise ConfigurationError(
                f"service.archetype must be one of {ARCHETYPES}, "
                f"got {self.archetype!r}"
            )
        if self.archetype == "builtin":
            from repro.services.profiles import SERVICE_IMPORTS

            if self.base not in SERVICE_IMPORTS:
                known = tuple(sorted(SERVICE_IMPORTS))
                raise ConfigurationError(
                    f"service.base must name a built-in service "
                    f"{known}, got {self.base!r}"
                )
            if self.regions:
                raise ConfigurationError(
                    "service.regions applies to engine archetypes "
                    "only; the builtin archetype keeps its service's "
                    "own placement"
                )
        else:
            if self.base is not None:
                raise ConfigurationError(
                    "service.base applies to the builtin archetype "
                    "only"
                )
            unknown = sorted(set(self.regions) - set(KNOWN_REGIONS))
            if unknown:
                raise ConfigurationError(
                    f"service.regions has unknown regions {unknown}; "
                    f"choose from {tuple(KNOWN_REGIONS)}"
                )
            if len(set(self.regions)) != len(self.regions):
                raise ConfigurationError(
                    "service.regions has duplicates"
                )
        _check_param_pairs(self.params, "service.params")


@dataclass(frozen=True)
class NemesisSpec:
    """One declarative fault schedule entry.

    ``kind`` selects the :mod:`repro.methodology.nemesis` class; the
    remaining fields are that class's knobs (unused ones keep their
    defaults, and None leaves the class default).  The class itself
    range-checks them: a spec is valid exactly when :meth:`build`
    succeeds.
    """

    kind: str
    host_a: str = ""
    host_b: str = ""
    span: int = 1
    start_index: int | None = None
    period: int = 5
    test_type: str | None = None
    links: tuple[tuple[str, str], ...] = ()
    probability: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _NEMESIS_CLASSES:
            raise ConfigurationError(
                f"nemesis.kind must be one of "
                f"{tuple(_NEMESIS_CLASSES)}, got {self.kind!r}"
            )
        if self.test_type not in (None, "test1", "test2"):
            raise ConfigurationError(
                f"nemesis.test_type must be test1 or test2, "
                f"got {self.test_type!r}"
            )
        if self.kind == "link_loss":
            if not self.links:
                raise ConfigurationError(
                    "nemesis.link_loss needs at least one link"
                )
        elif not self.host_a or not self.host_b:
            raise ConfigurationError(
                f"nemesis.{self.kind} needs host_a and host_b"
            )
        elif self.host_a == self.host_b:
            raise ConfigurationError(
                "nemesis host_a and host_b must differ"
            )
        try:
            self.build()
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"nemesis.{self.kind}: {exc}"
            ) from None

    def build(self) -> Nemesis:
        """A fresh instance of the ``kind``'s nemesis class."""
        cls = _NEMESIS_CLASSES[self.kind]
        knobs = {f.name: getattr(self, f.name)
                 for f in dataclasses.fields(cls)
                 if getattr(self, f.name, None) is not None}
        return cls(**knobs)


def _check_test_overrides(pairs: tuple, config_cls: type,
                          what: str) -> None:
    _check_param_pairs(pairs, what)
    known = {f.name for f in dataclasses.fields(config_cls)}
    for path, _ in pairs:
        if path not in known:
            raise ConfigurationError(
                f"{what}.{path} is not a {config_cls.__name__} "
                f"field (have: {tuple(sorted(known))})"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """Campaign workload overrides (None / empty = keep the base)."""

    num_tests: int | None = None
    test_types: tuple[str, ...] | None = None
    inter_test_gap: float | None = None
    role_order: tuple[str, ...] | None = None
    mask_sessions: bool | None = None
    #: Field overrides onto the plan's Test1Config / Test2Config.
    test1: tuple[tuple[str, Any], ...] = ()
    test2: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.num_tests is not None and self.num_tests < 1:
            raise ConfigurationError(
                "workload.num_tests must be >= 1"
            )
        if self.test_types is not None:
            bad = set(self.test_types) - {"test1", "test2"}
            if bad or not self.test_types:
                raise ConfigurationError(
                    f"workload.test_types must be a non-empty subset "
                    f"of ('test1', 'test2'), got {self.test_types!r}"
                )
        if self.inter_test_gap is not None and \
                self.inter_test_gap < 0:
            raise ConfigurationError(
                "workload.inter_test_gap must be >= 0"
            )
        _check_test_overrides(self.test1, Test1Config,
                              "workload.test1")
        _check_test_overrides(self.test2, Test2Config,
                              "workload.test2")


@dataclass(frozen=True)
class CalibrationSpec:
    """Search axes and fit targets declared by a scenario."""

    #: ``(dotted path, candidate values)`` — values[0] must be the
    #: default, matching the calibrate convention.
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    #: Anomaly-prevalence fit targets.
    prevalence: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        from repro.calibrate.space import Axis

        paths = [path for path, _ in self.axes]
        if len(set(paths)) != len(paths):
            raise ConfigurationError(
                "calibrate.axes repeats a path"
            )
        for path, values in self.axes:
            try:
                Axis(path, values)
            except CalibrationError as exc:
                raise ConfigurationError(
                    f"[calibrate.axes].{path}: {exc}"
                ) from None
        for anomaly, fraction in self.prevalence:
            if anomaly not in ALL_ANOMALIES:
                raise ConfigurationError(
                    f"calibrate.targets.prevalence.{anomaly} is not "
                    f"a known anomaly {tuple(ALL_ANOMALIES)}"
                )
            if not 0.0 <= fraction <= 1.0:
                raise ConfigurationError(
                    f"calibrate.targets.prevalence.{anomaly} must "
                    f"be a fraction, got {fraction!r}"
                )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete declarative scenario."""

    name: str
    service: ServiceSpec
    version: int = SCHEMA_VERSION
    description: str = ""
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    nemeses: tuple[NemesisSpec, ...] = ()
    policy: PolicySpec | None = None
    calibration: CalibrationSpec | None = None
    #: Relation-layer consistency metrics to evaluate per test, by
    #: registry name (:mod:`repro.relations.registry`); lowered onto
    #: ``CampaignConfig.metrics`` so every runner surface (``run``,
    #: ``fleet``, ``stream``) computes them.
    metrics: tuple[str, ...] = ()
    #: Sharded-world scale (``[topology]``); None = classic campaign.
    #: ``shards`` is physical placement only, the rest logical scale;
    #: :func:`~repro.world.scenario.world_from_scenario` sets the
    #: world's name and partitions.
    topology: WorldSpec | None = None

    def __post_init__(self) -> None:
        if self.metrics:
            object.__setattr__(self, "metrics", tuple(self.metrics))
            from repro.relations.registry import resolve_metrics

            resolve_metrics(self.metrics)
        if self.version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"scenario.schema_version {self.version!r} is not "
                f"supported (this build speaks version "
                f"{SCHEMA_VERSION})"
            )
        if not _valid_name(self.name):
            raise ConfigurationError(
                f"scenario.name {self.name!r} must be lowercase "
                "letters, digits and underscores, starting with a "
                "letter"
            )
        from repro.services.profiles import SERVICE_IMPORTS

        if self.name in SERVICE_IMPORTS and not (
                self.service.archetype == "builtin"
                and self.service.base == self.name):
            raise ConfigurationError(
                f"scenario.name {self.name!r} collides with a "
                "built-in service; only a builtin-archetype scenario "
                "with service.base set to the same name may reuse it"
            )

    def digest(self) -> str:
        """Canonical content digest (stable across processes)."""
        return sha256_hex(canonical_json(self))

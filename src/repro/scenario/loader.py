"""Load scenario files (TOML or JSON) into :class:`ScenarioSpec`.

Two layers:

* a parser front-end — :mod:`tomllib` or :mod:`json`, by file suffix;
* :func:`scenario_from_mapping` — the strict mapping → dataclass
  conversion.  Unknown keys, version skew, type errors, and
  out-of-range values all raise
  :class:`~repro.errors.ConfigurationError` naming the offending file
  and ``[table].key`` path, so a typo'd scenario fails loudly instead
  of silently running the default.

Collections are canonicalised (parameter/axis/target pairs sorted by
path) before they enter the spec, so two files that state the same
scenario in a different key order produce the same
:meth:`ScenarioSpec.digest`.
"""

from __future__ import annotations

import json
import tomllib
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.scenario.policies import PolicySpec
from repro.scenario.schema import (
    CalibrationSpec,
    NemesisSpec,
    ScenarioSpec,
    ServiceSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "load_scenario",
    "load_scenarios",
    "scenario_from_mapping",
]


# ---------------------------------------------------------------------------
# Mapping -> spec conversion
# ---------------------------------------------------------------------------


def _require_table(value: Any, source: str, table: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"{source}: [{table}] must be a table"
        )
    return value


def _check_keys(table: dict, allowed: tuple[str, ...],
                source: str, name: str) -> None:
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown key [{name}].{unknown[0]} "
            f"(allowed: {allowed})"
        )


def _typed(table: dict, key: str, types: tuple[type, ...],
           source: str, name: str, default: Any = None) -> Any:
    if key not in table:
        return default
    value = table[key]
    if isinstance(value, bool) and bool not in types:
        # bool is an int subclass; reject it for numeric fields.
        value = None
    if value is None or not isinstance(value, types):
        raise ConfigurationError(
            f"{source}: [{name}].{key} has the wrong type "
            f"(expected {'/'.join(t.__name__ for t in types)})"
        )
    return value


def _float_or_none(table: dict, key: str, source: str,
                   name: str) -> float | None:
    value = _typed(table, key, (int, float), source, name)
    return None if value is None else float(value)


def _str_tuple(table: dict, key: str, source: str,
               name: str) -> tuple[str, ...] | None:
    value = _typed(table, key, (list,), source, name)
    if value is None:
        return None
    for item in value:
        if not isinstance(item, str):
            raise ConfigurationError(
                f"{source}: [{name}].{key} must be a list of strings"
            )
    return tuple(value)


def _pairs(table: dict | None, source: str,
           name: str) -> tuple[tuple[str, Any], ...]:
    """Sorted (path, value) pairs from an override table."""
    if table is None:
        return ()
    _require_table(table, source, name)
    for value in table.values():
        if isinstance(value, (dict, list)):
            raise ConfigurationError(
                f"{source}: [{name}] values must be scalars"
            )
    return tuple(sorted(table.items()))


def _build(factory, source: str, **kwargs):
    """Build a spec dataclass, prefixing errors with the source."""
    try:
        return factory(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from None


def _service_spec(table: Any, source: str) -> ServiceSpec:
    table = _require_table(table, source, "service")
    _check_keys(table, ("archetype", "base", "regions", "params"),
                source, "service")
    if "archetype" not in table:
        raise ConfigurationError(
            f"{source}: [service].archetype is required"
        )
    params = table.get("params")
    if params is not None:
        params = _require_table(params, source, "service.params")
    return _build(
        ServiceSpec, source,
        archetype=_typed(table, "archetype", (str,), source,
                         "service"),
        base=_typed(table, "base", (str,), source, "service"),
        regions=_str_tuple(table, "regions", source, "service") or (),
        params=_pairs(params, source, "service.params"),
    )


def _workload_spec(table: Any, source: str) -> WorkloadSpec:
    if table is None:
        return WorkloadSpec()
    table = _require_table(table, source, "workload")
    _check_keys(
        table,
        ("num_tests", "test_types", "inter_test_gap", "role_order",
         "mask_sessions", "test1", "test2"),
        source, "workload",
    )
    return _build(
        WorkloadSpec, source,
        num_tests=_typed(table, "num_tests", (int,), source,
                         "workload"),
        test_types=_str_tuple(table, "test_types", source,
                              "workload"),
        inter_test_gap=_float_or_none(table, "inter_test_gap",
                                      source, "workload"),
        role_order=_str_tuple(table, "role_order", source,
                              "workload"),
        mask_sessions=_typed(table, "mask_sessions", (bool,),
                             source, "workload"),
        test1=_pairs(table.get("test1"), source, "workload.test1"),
        test2=_pairs(table.get("test2"), source, "workload.test2"),
    )


def _nemesis_specs(entries: Any,
                   source: str) -> tuple[NemesisSpec, ...]:
    if entries is None:
        return ()
    if not isinstance(entries, list):
        raise ConfigurationError(
            f"{source}: [[nemesis]] must be an array of tables"
        )
    specs = []
    for index, table in enumerate(entries):
        name = f"nemesis[{index}]"
        table = _require_table(table, source, name)
        _check_keys(
            table,
            ("kind", "host_a", "host_b", "span", "start_index",
             "period", "test_type", "links", "probability"),
            source, name,
        )
        if "kind" not in table:
            raise ConfigurationError(
                f"{source}: [{name}].kind is required"
            )
        links_raw = _typed(table, "links", (list,), source, name,
                           default=[])
        links = []
        for link in links_raw:
            if not (isinstance(link, list) and len(link) == 2
                    and all(isinstance(h, str) for h in link)):
                raise ConfigurationError(
                    f"{source}: [{name}].links entries must be "
                    "[src, dst] pairs"
                )
            links.append(tuple(link))
        probability = _float_or_none(table, "probability", source,
                                     name)
        specs.append(_build(
            NemesisSpec, source,
            kind=_typed(table, "kind", (str,), source, name),
            host_a=_typed(table, "host_a", (str,), source, name,
                          default=""),
            host_b=_typed(table, "host_b", (str,), source, name,
                          default=""),
            span=_typed(table, "span", (int,), source, name,
                        default=1),
            start_index=_typed(table, "start_index", (int,), source,
                               name),
            period=_typed(table, "period", (int,), source, name,
                          default=5),
            test_type=_typed(table, "test_type", (str,), source,
                             name),
            links=tuple(links),
            probability=0.05 if probability is None else probability,
        ))
    return tuple(specs)


def _policy_spec(table: Any, source: str) -> PolicySpec | None:
    if table is None:
        return None
    table = _require_table(table, source, "policy")
    fields = ("retry_attempts", "backoff_base", "backoff_factor",
              "backoff_max", "backoff_jitter", "breaker_threshold",
              "breaker_cooldown", "idempotency_keys")
    _check_keys(table, fields, source, "policy")
    kwargs: dict[str, Any] = {}
    for key in ("retry_attempts", "breaker_threshold"):
        value = _typed(table, key, (int,), source, "policy")
        if value is not None:
            kwargs[key] = value
    for key in ("backoff_base", "backoff_factor", "backoff_max",
                "backoff_jitter", "breaker_cooldown"):
        value = _float_or_none(table, key, source, "policy")
        if value is not None:
            kwargs[key] = value
    value = _typed(table, "idempotency_keys", (bool,), source,
                   "policy")
    if value is not None:
        kwargs["idempotency_keys"] = value
    return _build(PolicySpec, source, **kwargs)


def _calibration_spec(table: Any,
                      source: str) -> CalibrationSpec | None:
    if table is None:
        return None
    table = _require_table(table, source, "calibrate")
    _check_keys(table, ("axes", "targets"), source, "calibrate")
    axes = []
    axes_table = table.get("axes")
    if axes_table is not None:
        axes_table = _require_table(axes_table, source,
                                    "calibrate.axes")
        for path, values in sorted(axes_table.items()):
            if not isinstance(values, list):
                raise ConfigurationError(
                    f"{source}: [calibrate.axes].{path} must be a "
                    "list of candidate values"
                )
            axes.append((path, tuple(values)))
    prevalence = []
    targets = table.get("targets")
    if targets is not None:
        targets = _require_table(targets, source,
                                 "calibrate.targets")
        _check_keys(targets, ("prevalence",), source,
                    "calibrate.targets")
        ptable = targets.get("prevalence")
        if ptable is not None:
            ptable = _require_table(
                ptable, source, "calibrate.targets.prevalence"
            )
            for anomaly, fraction in sorted(ptable.items()):
                if isinstance(fraction, bool) or \
                        not isinstance(fraction, (int, float)):
                    raise ConfigurationError(
                        f"{source}: [calibrate.targets.prevalence]."
                        f"{anomaly} must be a number"
                    )
                prevalence.append((anomaly, float(fraction)))
    return _build(
        CalibrationSpec, source,
        axes=tuple(axes), prevalence=tuple(prevalence),
    )


def _topology_spec(table: Any, source: str) -> TopologySpec | None:
    if table is None:
        return None
    table = _require_table(table, source, "topology")
    int_keys = ("shards", "sessions", "replicas", "cohort_size",
                "writes_per_session", "reads_per_session", "fanout")
    float_keys = ("arrival_window", "think_median", "service_time",
                  "hop_median", "hop_sigma", "epoch")
    _check_keys(table, int_keys + float_keys, source, "topology")
    kwargs: dict[str, Any] = {}
    for key in int_keys:
        value = _typed(table, key, (int,), source, "topology")
        if value is not None:
            kwargs[key] = value
    for key in float_keys:
        value = _float_or_none(table, key, source, "topology")
        if value is not None:
            kwargs[key] = value
    return _build(TopologySpec, source, **kwargs)


def scenario_from_mapping(data: Any, source: str) -> ScenarioSpec:
    """Convert a parsed scenario mapping into a validated spec.

    ``source`` (usually the file path) prefixes every error message.
    """
    data = _require_table(data, source, "scenario file")
    _check_keys(
        data,
        ("scenario", "service", "workload", "nemesis", "policy",
         "calibrate", "metrics", "topology"),
        source, "top level",
    )
    if "scenario" not in data:
        raise ConfigurationError(
            f"{source}: missing [scenario] table"
        )
    meta = _require_table(data["scenario"], source, "scenario")
    _check_keys(meta, ("schema_version", "name", "description"),
                source, "scenario")
    for required in ("schema_version", "name"):
        if required not in meta:
            raise ConfigurationError(
                f"{source}: [scenario].{required} is required"
            )
    if "service" not in data:
        raise ConfigurationError(
            f"{source}: missing [service] table"
        )
    return _build(
        ScenarioSpec, source,
        name=_typed(meta, "name", (str,), source, "scenario"),
        version=_typed(meta, "schema_version", (int,), source,
                       "scenario"),
        description=_typed(meta, "description", (str,), source,
                           "scenario", default=""),
        service=_service_spec(data["service"], source),
        workload=_workload_spec(data.get("workload"), source),
        nemeses=_nemesis_specs(data.get("nemesis"), source),
        policy=_policy_spec(data.get("policy"), source),
        calibration=_calibration_spec(data.get("calibrate"), source),
        metrics=_str_tuple(data, "metrics", source,
                           "top level") or (),
        topology=_topology_spec(data.get("topology"), source),
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load one scenario file (``.toml`` or ``.json``)."""
    path = Path(path)
    source = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(
            f"{source}: cannot read scenario file ({exc})"
        ) from None
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{source}: invalid JSON ({exc})"
            ) from None
    else:
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(
                f"{source}: invalid TOML ({exc})"
            ) from None
    return scenario_from_mapping(data, source)


def load_scenarios(
    paths: list[str | Path] | tuple[str | Path, ...],
) -> dict[str, ScenarioSpec]:
    """Load several scenario files; duplicate names are an error."""
    loaded: dict[str, tuple[ScenarioSpec, str]] = {}
    for path in paths:
        spec = load_scenario(path)
        if spec.name in loaded:
            raise ConfigurationError(
                f"duplicate scenario name {spec.name!r}: defined by "
                f"both {loaded[spec.name][1]} and {path}"
            )
        loaded[spec.name] = (spec, str(path))
    return {name: spec for name, (spec, _) in loaded.items()}

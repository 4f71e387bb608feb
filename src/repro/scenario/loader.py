"""Load scenario files (TOML or JSON) into :class:`ScenarioSpec`.

Two layers:

* a parser front-end — :mod:`tomllib` or :mod:`json`, by file suffix;
* :func:`scenario_from_mapping` — the strict mapping → dataclass
  conversion.  Unknown keys, version skew, type errors, and
  out-of-range values all raise
  :class:`~repro.errors.ConfigurationError` naming the offending file
  and ``[table].key`` path, so a typo'd scenario fails loudly instead
  of silently running the default.

Each table's keys, scalar types, required keys and defaults are read
off the dataclass that holds it, so a field is declared once, in the
spec; only non-scalar shapes (override pairs, ``links``,
``[calibrate]``) have readers of their own.

Collections are canonicalised (parameter/axis/target pairs sorted by
path) before they enter the spec, so two files that state the same
scenario in a different key order produce the same
:meth:`ScenarioSpec.digest`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigurationError, SimulationError
from repro.scenario.policies import PolicySpec
from repro.scenario.schema import (
    CalibrationSpec,
    NemesisSpec,
    ScenarioSpec,
    ServiceSpec,
    WorkloadSpec,
)
from repro.world.spec import WorldSpec

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


def _value(value: Any, kind: Any, source: str, name: str,
           key: str) -> Any:
    """``value`` checked against the scalar field type ``kind``.

    ``float`` fields take any finite number; ``bool`` (an ``int``
    subclass) is accepted only where ``kind`` is ``bool``; a
    ``tuple[str, ...]`` field takes a list of strings.
    """
    where = f"{source}: [{name}].{key}"
    if kind == tuple[str, ...]:
        if not isinstance(value, list):
            raise ConfigurationError(
                f"{where} has the wrong type (expected list)"
            )
        if not all(isinstance(item, str) for item in value):
            raise ConfigurationError(
                f"{where} must be a list of strings"
            )
        return tuple(value)
    accepted = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) and kind is not bool or \
            not isinstance(value, accepted):
        expected = "/".join(t.__name__ for t in accepted)
        raise ConfigurationError(
            f"{where} has the wrong type (expected {expected})"
        )
    if kind is float:
        if not math.isfinite(value):
            raise ConfigurationError(
                f"{where} must be finite, got {value!r}"
            )
        return float(value)
    return value


@functools.cache
def _fields(cls: type) -> dict[str, tuple[Any, bool]]:
    """``{field: (type without None, required)}`` for a dataclass."""
    hints = typing.get_type_hints(cls)
    fields = {}
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if isinstance(kind, types.UnionType):
            (kind,) = [arg for arg in typing.get_args(kind)
                       if arg is not type(None)]
        required = f.default is dataclasses.MISSING and \
            f.default_factory is dataclasses.MISSING
        fields[f.name] = (kind, required)
    return fields


def _spec(cls: type, table: Any, source: str, name: str,
          exclude: tuple[str, ...] = (),
          **shapes: Callable[[Any, str, str, str], Any]) -> Any:
    """Build ``cls`` from ``[name]``; its fields are the schema.

    The allowed keys, their scalar types, which are required and every
    default come from the dataclass; ``shapes`` read the keys whose
    values are not scalars.  An absent key keeps the field default.
    """
    table = _require_table(table, source, name)
    fields = {key: field for key, field in _fields(cls).items()
              if key not in exclude}
    _check_keys(table, tuple(fields), source, name)
    kwargs = {}
    for key, (kind, required) in fields.items():
        if key not in table:
            if required:
                raise ConfigurationError(
                    f"{source}: [{name}].{key} is required"
                )
        elif key in shapes:
            kwargs[key] = shapes[key](table[key], source, name, key)
        else:
            kwargs[key] = _value(table[key], kind, source, name, key)
    return _build(cls, source, **kwargs)


def _pairs(table: Any, source: str, name: str,
           key: str) -> tuple[tuple[str, Any], ...]:
    """Sorted (path, value) pairs from an override table."""
    name = f"{name}.{key}"
    table = _require_table(table, source, name)
    for value in table.values():
        if isinstance(value, (dict, list)):
            raise ConfigurationError(
                f"{source}: [{name}] values must be scalars"
            )
    return tuple(sorted(table.items()))


def _links(value: Any, source: str, name: str,
           key: str) -> tuple[tuple[str, str], ...]:
    if not isinstance(value, list):
        raise ConfigurationError(
            f"{source}: [{name}].{key} has the wrong type "
            "(expected list)"
        )
    for link in value:
        if not (isinstance(link, list) and len(link) == 2
                and all(isinstance(h, str) for h in link)):
            raise ConfigurationError(
                f"{source}: [{name}].{key} entries must be "
                "[src, dst] pairs"
            )
    return tuple(tuple(link) for link in value)


def _build(factory, source: str, **kwargs):
    """Build a spec dataclass, prefixing errors with the source."""
    try:
        return factory(**kwargs)
    except (ConfigurationError, SimulationError) as exc:
        raise ConfigurationError(f"{source}: {exc}") from None


def _nemesis_specs(entries: Any,
                   source: str) -> tuple[NemesisSpec, ...]:
    if not isinstance(entries, list):
        raise ConfigurationError(
            f"{source}: [[nemesis]] must be an array of tables"
        )
    return tuple(
        _spec(NemesisSpec, table, source, f"nemesis[{index}]",
              links=_links)
        for index, table in enumerate(entries)
    )


def _calibration_spec(table: Any, source: str) -> CalibrationSpec:
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
                prevalence.append((anomaly, _value(
                    fraction, float, source,
                    "calibrate.targets.prevalence", anomaly,
                )))
    return _build(
        CalibrationSpec, source,
        axes=tuple(axes), prevalence=tuple(prevalence),
    )


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
    fields: dict[str, Any] = {
        "name": _value(meta["name"], str, source, "scenario", "name"),
        "version": _value(meta["schema_version"], int, source,
                          "scenario", "schema_version"),
        "description": _value(meta.get("description", ""), str,
                              source, "scenario", "description"),
        "service": _spec(ServiceSpec, data["service"], source,
                         "service", params=_pairs),
    }
    if data.get("workload") is not None:
        fields["workload"] = _spec(WorkloadSpec, data["workload"],
                                   source, "workload",
                                   test1=_pairs, test2=_pairs)
    if data.get("nemesis") is not None:
        fields["nemeses"] = _nemesis_specs(data["nemesis"], source)
    if data.get("policy") is not None:
        fields["policy"] = _spec(PolicySpec, data["policy"], source,
                                 "policy")
    if data.get("calibrate") is not None:
        fields["calibration"] = _calibration_spec(data["calibrate"],
                                                  source)
    if "metrics" in data:
        fields["metrics"] = _value(data["metrics"], tuple[str, ...],
                                   source, "top level", "metrics")
    if data.get("topology") is not None:
        # The world's name and partitions are not file keys:
        # world_from_scenario sets both.
        fields["topology"] = _spec(WorldSpec, data["topology"], source,
                                   "topology",
                                   exclude=("name", "partitions"))
    return _build(ScenarioSpec, source, **fields)


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
        import tomllib

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

"""Declarative parameter spaces over service profile dataclasses.

A :class:`SearchSpace` is a service name plus an ordered tuple of
:class:`Axis` entries, each naming one knob by *dotted path* into the
service's (possibly nested) frozen params dataclass — e.g.
``replication_eu.sync_delay_median`` on
:class:`~repro.services.googleplus.GooglePlusParams`.  Candidate
``index`` decodes mixed-radix into one value per axis, with the first
axis most significant; by convention the **first value of every axis
is the checked-in default**, so candidate 0 always reproduces the
baseline profile and a search can never select something worse than
what it already had.

Materialization is purely functional: :meth:`SearchSpace.params`
starts from the space's ``base`` params object and applies each
assignment entry via nested :func:`dataclasses.replace`, so profiles
stay frozen dataclasses end to end.  A path must end at a value, not
a nested table, and the value must have the type the field already
holds (an ``int`` may stand in for a ``float``; a ``bool`` never
stands in for a number).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.errors import CalibrationError

__all__ = [
    "Axis",
    "SearchSpace",
    "base_params",
    "apply_assignment",
    "default_space",
]


def base_params(service: str) -> Any:
    """A fresh default params object for one built-in service.

    A scenario's default params come from
    :func:`repro.scenario.registry.scenario_base_params`, which
    resolves its ``builtin`` archetype here.
    """
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
    try:
        return factories[service]()
    except KeyError:
        known = ", ".join(sorted(factories))
        raise CalibrationError(
            f"no profile parameters for service {service!r} "
            f"(have: {known})"
        ) from None


def _accepts(current: Any, value: Any) -> bool:
    """Whether ``value`` may replace a field holding ``current``."""
    return type(value) is type(current) or (
        type(current) is float and type(value) is int)


def _replace_path(params: Any, path: str, value: Any) -> Any:
    head, _, rest = path.partition(".")
    if not dataclasses.is_dataclass(params) or \
            not hasattr(params, head):
        raise CalibrationError(
            f"{type(params).__name__} has no field {head!r} "
            f"(while applying {path!r})"
        )
    current = getattr(params, head)
    if rest:
        value = _replace_path(current, rest, value)
    elif dataclasses.is_dataclass(current):
        raise CalibrationError(
            f"{type(params).__name__}.{head} is a table, not a value "
            f"(while applying {path!r})"
        )
    elif not _accepts(current, value):
        raise CalibrationError(
            f"{type(params).__name__}.{head} expects "
            f"{type(current).__name__}, not {value!r} "
            f"(while applying {path!r})"
        )
    return dataclasses.replace(params, **{head: value})


def apply_assignment(params: Any, assignment: dict[str, Any]) -> Any:
    """Apply ``{dotted.path: value}`` entries with nested replace."""
    for path, value in sorted(assignment.items()):
        params = _replace_path(params, path, value)
    return params


@dataclass(frozen=True)
class Axis:
    """One knob: a dotted field path and its candidate values.

    By convention ``values[0]`` is the checked-in default, so index 0
    of any space is the baseline profile.
    """

    path: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise CalibrationError("axis path must be non-empty")
        if not self.values:
            raise CalibrationError(
                f"axis {self.path!r} needs a non-empty value list"
            )
        try:
            distinct = len(set(self.values))
        except TypeError:
            raise CalibrationError(
                f"axis {self.path!r} values must be scalars"
            ) from None
        if distinct != len(self.values):
            raise CalibrationError(
                f"axis {self.path!r} has duplicate values"
            )


@dataclass(frozen=True)
class SearchSpace:
    """An ordered product of axes over one service's profile.

    ``base`` is the default params object the axes apply to:
    :func:`base_params` of a built-in service, or
    :func:`~repro.scenario.registry.scenario_base_params` of a
    scenario.
    """

    service: str
    axes: tuple[Axis, ...]
    base: Any

    def __post_init__(self) -> None:
        if not self.axes:
            raise CalibrationError(
                f"search space for {self.service!r} has no axes"
            )
        paths = [axis.path for axis in self.axes]
        if len(set(paths)) != len(paths):
            raise CalibrationError(
                f"search space for {self.service!r} repeats a path"
            )
        # Fail at construction, not mid-search: every axis value must
        # apply to the base profile.
        for axis in self.axes:
            for value in axis.values:
                _replace_path(self.base, axis.path, value)

    @property
    def size(self) -> int:
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def assignment(self, index: int) -> dict[str, Any]:
        """Mixed-radix decode: first axis most significant."""
        if not 0 <= index < self.size:
            raise CalibrationError(
                f"candidate index {index} outside space of size "
                f"{self.size}"
            )
        assignment: dict[str, Any] = {}
        remainder = index
        for axis in reversed(self.axes):
            remainder, digit = divmod(remainder, len(axis.values))
            assignment[axis.path] = axis.values[digit]
        return {axis.path: assignment[axis.path]
                for axis in self.axes}

    def assignments(self) -> list[dict[str, Any]]:
        """Every candidate assignment, in index order."""
        return [self.assignment(index) for index in range(self.size)]

    def params(self, assignment: dict[str, Any]) -> Any:
        """Materialize one assignment into a frozen params object."""
        return apply_assignment(self.base, assignment)

    def label(self, index: int) -> str:
        """Stable per-candidate label used in fleet shard ids."""
        return f"c{index:04d}"


#: Default spaces.  First value of every axis is the checked-in
#: default, so candidate 0 is always the baseline profile.
def default_space(service: str) -> SearchSpace:
    """The checked-in search space for one service.

    The Google+ space spans the four knobs that empirically control
    its Figure 3/8 signature: the EU replication cadence (sync
    interval + delay median) governs whether the Ireland pairs'
    mutual divergence is caught at the first paired read (content
    divergence off 100% toward 85%), the EU tail-insert probability
    sets order-divergence prevalence, and the US delay median
    stretches Test 1 (reads per agent toward Table I's 48).  The
    other services ship small spaces over their processing delays —
    their defaults already sit near the paper's numbers, so the
    searcher's job is to confirm the baseline rather than move it.
    """
    space_axes = {
        "googleplus": (
            Axis("replication_eu.sync_interval", (0.4, 0.05)),
            Axis("replication_eu.sync_delay_median",
                 (1.5, 0.25, 0.15)),
            Axis("replication_eu.tail_insert_prob", (0.12, 0.18)),
            Axis("replication_us.sync_delay_median",
                 (1.5, 3.0, 4.5)),
        ),
        "blogger": (
            Axis("write_processing_median", (0.17, 0.12)),
            Axis("read_processing_median", (0.04, 0.06)),
        ),
        "facebook_feed": (
            Axis("write_processing_median", (0.10, 0.08)),
            Axis("read_processing_median", (0.06, 0.05)),
        ),
        "facebook_group": (
            Axis("write_processing_median", (0.05, 0.07)),
            Axis("read_processing_median", (0.06, 0.05)),
        ),
    }
    try:
        axes = space_axes[service]
    except KeyError:
        known = ", ".join(sorted(space_axes))
        raise CalibrationError(
            f"no default search space for service {service!r} "
            f"(have: {known})"
        ) from None
    return SearchSpace(service=service, axes=axes,
                       base=base_params(service))

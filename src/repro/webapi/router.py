"""Declarative request routing shared by every API surface.

Historically each :class:`~repro.webapi.endpoint.ServiceEndpoint`
carried its own ad-hoc ``(method, path) -> handler`` dict, populated
imperatively.  That was fine for five services with two static paths
each, but the campaign service (:mod:`repro.serve`) needs versioned
paths, path parameters (``/v1/hunts/{hunt_id}``), and resources that
register several related routes at once — and it must share the
auth/rate-limit/pagination pipeline with the simulated services rather
than grow a second stack.

This module is the shared routing layer:

* :class:`RouteSpec` — one declarative route: method, path pattern,
  handler, and optional per-route processing-delay overrides (writes
  cost more server-side work than reads).
* :class:`Router` — an ordered, conflict-checked route table with
  exact-match and ``{param}`` segment patterns, an optional version
  prefix, sub-router mounting, and resource registration.
* :class:`RouteMatch` — a resolved route plus its extracted path
  parameters.

Resolution is deterministic: exact (parameter-free) patterns are a
dict lookup — byte-for-byte the historical dispatch, which is what
keeps the five services' golden signatures unchanged — and
parameterized patterns are tried most-literal-first, then in
registration order.  Registering two patterns that can never be told
apart raises :class:`~repro.errors.ConfigurationError` at construction
time, not at request time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    Protocol,
    runtime_checkable,
)

from repro.errors import ConfigurationError

__all__ = [
    "RouteSpec",
    "RouteMatch",
    "Router",
    "Resource",
    "split_path",
]

#: A route handler: ``(request, account) -> body mapping | Future``.
#: Typed loosely here to avoid an import cycle with the endpoint
#: pipeline; :mod:`repro.webapi.endpoint` narrows it.
Handler = Callable[..., Any]


def split_path(path: str) -> tuple[str, ...]:
    """Split an API path into its non-empty segments."""
    return tuple(part for part in path.split("/") if part)


def _is_param(segment: str) -> bool:
    return segment.startswith("{") and segment.endswith("}")


@dataclass(frozen=True)
class RouteSpec:
    """One declarative route of an API surface.

    ``pattern`` is an absolute path whose ``{name}`` segments match any
    single concrete segment and bind it as a path parameter.  The
    optional processing-delay overrides replace the endpoint's
    defaults when this route is dispatched.
    """

    method: str
    pattern: str
    handler: Handler
    #: Optional stable name (defaults to ``METHOD pattern``).
    name: str = ""
    processing_delay_median: float | None = None
    processing_delay_sigma: float | None = None

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST", "DELETE"):
            raise ConfigurationError(
                f"unsupported route method {self.method!r}"
            )
        if not self.pattern.startswith("/"):
            raise ConfigurationError(
                f"route pattern must be absolute: {self.pattern!r}"
            )
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.method} {self.pattern}"
            )

    @property
    def segments(self) -> tuple[str, ...]:
        return split_path(self.pattern)

    @property
    def has_params(self) -> bool:
        return any(_is_param(part) for part in self.segments)

    def match(self, path_segments: tuple[str, ...]) -> dict | None:
        """Path parameters if ``path_segments`` matches, else None."""
        pattern = self.segments
        if len(pattern) != len(path_segments):
            return None
        params: dict[str, str] = {}
        for expected, actual in zip(pattern, path_segments):
            if _is_param(expected):
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params

    def _shape(self) -> tuple:
        """Conflict key: two routes of one shape are indistinguishable."""
        return (self.method, tuple(
            "{}" if _is_param(part) else part for part in self.segments
        ))


@dataclass(frozen=True)
class RouteMatch:
    """A resolved route plus the path parameters it bound."""

    route: RouteSpec
    path_params: Mapping[str, str] = field(default_factory=dict)


@runtime_checkable
class Resource(Protocol):
    """Anything that contributes a group of routes to a router.

    A resource is the declarative unit of API registration: the hunt
    API registers one resource per noun (hunts, results, events,
    artifacts) instead of scattering ``add`` calls.
    """

    def routes(self) -> Iterable[RouteSpec]: ...


class Router:
    """An ordered, conflict-checked table of :class:`RouteSpec`.

    Parameters
    ----------
    prefix:
        Optional path prefix (e.g. ``"/v1"``) prepended to every
        registered pattern — the versioned-path mechanism.
    """

    def __init__(self, prefix: str = "") -> None:
        if prefix and not prefix.startswith("/"):
            raise ConfigurationError(
                f"router prefix must be absolute: {prefix!r}"
            )
        self.prefix = prefix.rstrip("/")
        #: (method, path) -> the match of a parameter-free route, built
        #: once at registration: the exact dict dispatch the endpoint
        #: pipeline always had, with nothing to allocate per request.
        self._exact: dict[tuple[str, str], RouteMatch] = {}
        #: Parameterized routes, in registration order.
        self._dynamic: list[RouteSpec] = []
        self._shapes: set[tuple] = set()
        self._by_name: dict[str, RouteSpec] = {}

    # -- Registration ---------------------------------------------------

    def add(self, method: str, pattern: str, handler: Handler, *,
            name: str = "",
            processing_delay_median: float | None = None,
            processing_delay_sigma: float | None = None) -> RouteSpec:
        """Register one route; returns the (prefixed) spec."""
        return self.add_route(RouteSpec(
            method=method, pattern=pattern, handler=handler, name=name,
            processing_delay_median=processing_delay_median,
            processing_delay_sigma=processing_delay_sigma,
        ))

    def add_route(self, spec: RouteSpec) -> RouteSpec:
        """Register an already-built spec (prefix applied here)."""
        if self.prefix:
            spec = RouteSpec(
                method=spec.method,
                pattern=self.prefix + spec.pattern,
                handler=spec.handler,
                name=spec.name,
                processing_delay_median=spec.processing_delay_median,
                processing_delay_sigma=spec.processing_delay_sigma,
            )
        shape = spec._shape()
        if shape in self._shapes:
            raise ConfigurationError(
                f"route {spec.method} {spec.pattern!r} conflicts with "
                "an already registered route of the same shape"
            )
        if spec.name in self._by_name:
            raise ConfigurationError(
                f"duplicate route name {spec.name!r}"
            )
        self._shapes.add(shape)
        self._by_name[spec.name] = spec
        if spec.has_params:
            self._dynamic.append(spec)
            # Most-literal-first, then registration order (sort is
            # stable), so /hunts/all beats /hunts/{hunt_id} regardless
            # of registration order.
            self._dynamic.sort(
                key=lambda route: -sum(
                    1 for part in route.segments if not _is_param(part)
                ),
            )
        else:
            # Shared by every request for the route, so read-only.
            self._exact[(spec.method, spec.pattern)] = RouteMatch(
                spec, MappingProxyType({}))
        return spec

    def add_resource(self, resource: Resource) -> tuple[RouteSpec, ...]:
        """Register every route a resource declares."""
        return tuple(self.add_route(spec)
                     for spec in resource.routes())

    # -- Introspection --------------------------------------------------

    def routes(self) -> tuple[RouteSpec, ...]:
        """Every registered route, exact first, deterministic order."""
        return tuple(sorted(
            (*(match.route for match in self._exact.values()),
             *self._dynamic),
            key=lambda spec: (spec.pattern, spec.method),
        ))

    def __len__(self) -> int:
        return len(self._exact) + len(self._dynamic)

    # -- Resolution -----------------------------------------------------

    def resolve(self, method: str, path: str) -> RouteMatch | None:
        """The matching route for a concrete request, or None.

        Exact patterns win outright (dict lookup, the historical
        dispatch); parameterized patterns are tried most-literal-first
        in registration order.
        """
        exact = self._exact.get((method, path))
        if exact is not None:
            return exact
        if not self._dynamic:
            return None
        segments = split_path(path)
        for spec in self._dynamic:
            if spec.method != method:
                continue
            params = spec.match(segments)
            if params is not None:
                return RouteMatch(route=spec, path_params=params)
        return None

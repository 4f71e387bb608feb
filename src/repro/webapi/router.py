"""Declarative request routing for the simulated services' API hosts.

* :class:`RouteSpec` — one declarative route: method, absolute path,
  handler, and optional per-route processing-delay overrides (writes
  cost more server-side work than reads).
* :class:`Router` — a conflict-checked table of routes, resolved by
  exact ``(method, path)`` dict lookup.

Registering a route whose ``(method, path)`` or name is already taken
raises :class:`~repro.errors.ConfigurationError` at construction time,
not at request time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = ["RouteSpec", "Router"]

#: A route handler: ``(request, account) -> body mapping | Future``.
#: Typed loosely here to avoid an import cycle with the endpoint
#: pipeline; :mod:`repro.webapi.endpoint` narrows it.
Handler = Callable[..., Any]


@dataclass(frozen=True)
class RouteSpec:
    """One declarative route of an API surface.

    ``pattern`` is the absolute path the route answers.  The optional
    processing-delay overrides replace the endpoint's defaults when
    this route is dispatched.
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


class Router:
    """A conflict-checked table of :class:`RouteSpec`."""

    def __init__(self) -> None:
        #: (method, path) -> route; resolving a request allocates
        #: nothing.
        self._exact: dict[tuple[str, str], RouteSpec] = {}
        self._names: set[str] = set()

    # -- Registration ---------------------------------------------------

    def add(self, method: str, pattern: str, handler: Handler, *,
            name: str = "",
            processing_delay_median: float | None = None,
            processing_delay_sigma: float | None = None) -> RouteSpec:
        """Register one route; returns its spec."""
        return self.add_route(RouteSpec(
            method=method, pattern=pattern, handler=handler, name=name,
            processing_delay_median=processing_delay_median,
            processing_delay_sigma=processing_delay_sigma,
        ))

    def add_route(self, spec: RouteSpec) -> RouteSpec:
        """Register an already-built spec."""
        key = (spec.method, spec.pattern)
        if key in self._exact:
            raise ConfigurationError(
                f"route {spec.method} {spec.pattern!r} is already "
                "registered"
            )
        if spec.name in self._names:
            raise ConfigurationError(
                f"duplicate route name {spec.name!r}"
            )
        self._names.add(spec.name)
        self._exact[key] = spec
        return spec

    # -- Introspection --------------------------------------------------

    def routes(self) -> tuple[RouteSpec, ...]:
        """Every registered route, in (pattern, method) order."""
        return tuple(sorted(self._exact.values(),
                            key=lambda spec: (spec.pattern, spec.method)))

    def __len__(self) -> int:
        return len(self._exact)

    # -- Resolution -----------------------------------------------------

    def resolve(self, method: str, path: str) -> RouteSpec | None:
        """The route registered for a concrete request, or None."""
        return self._exact.get((method, path))

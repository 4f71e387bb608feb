"""Service registry: build any of the four measured services by name.

:func:`build_service` is the single construction point used by the
campaign runner, the CLI, and the examples.  Service-specific parameter
objects can be passed through to override defaults (for ablations and
what-if experiments).

:data:`SERVICE_IMPORTS` names where each service class lives, and
:func:`service_class` imports only that one module, so a campaign loads
its own service and replication substrate, not all five.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # annotations only: see service_class
    from repro.net.network import Network
    from repro.net.topology import Topology
    from repro.services.base import OnlineService
    from repro.sim.event_loop import Simulator
    from repro.sim.random_source import RandomSource

__all__ = ["SERVICE_NAMES", "EXTENSION_SERVICE_NAMES",
           "SERVICE_IMPORTS", "service_class", "build_service"]

#: Service name -> ``"module:Class"`` of its model.  A new service
#: registers here (``examples/custom_service.py``).
SERVICE_IMPORTS: dict[str, str] = {
    "blogger": "repro.services.blogger:BloggerService",
    "googleplus": "repro.services.googleplus:GooglePlusService",
    "facebook_feed": "repro.services.facebook_feed:FacebookFeedService",
    "facebook_group":
        "repro.services.facebook_group:FacebookGroupService",
    "quorum_kv": "repro.services.quorum_kv:QuorumKvService",
}

#: The paper's four services, in its presentation order.
SERVICE_NAMES = ("googleplus", "blogger", "facebook_feed",
                 "facebook_group")

#: Additional measurable services (the storage-system extension).
EXTENSION_SERVICE_NAMES = ("quorum_kv",)


def service_class(name: str) -> type[OnlineService]:
    """The model class of the service ``name``, importing its module."""
    module, _, attribute = SERVICE_IMPORTS[name].partition(":")
    return getattr(importlib.import_module(module), attribute)


def build_service(name: str, sim: Simulator, topology: Topology,
                  network: Network, rng: RandomSource,
                  params: Any | None = None,
                  scenario: Any | None = None) -> OnlineService:
    """Instantiate the named service into an existing world.

    ``scenario`` (a :class:`repro.scenario.schema.ScenarioSpec`)
    builds the declared service model instead; a name that is neither
    a built-in service nor accompanied by a spec is resolved through
    the scenario registry, so loaded scenarios plug in everywhere a
    service name is accepted.
    """
    if scenario is None and name not in SERVICE_IMPORTS:
        from repro.scenario.registry import get_scenario

        try:
            scenario = get_scenario(name)
        except ConfigurationError:
            known = SERVICE_NAMES + EXTENSION_SERVICE_NAMES
            raise ConfigurationError(
                f"unknown service {name!r}; choose from {known} or "
                "a registered scenario name"
            ) from None
    if scenario is not None:
        from repro.scenario.registry import build_scenario_service

        return build_scenario_service(scenario, sim, topology,
                                      network, rng, params=params)
    model = service_class(name)
    if params is None:
        return model(sim, topology, network, rng)
    return model(sim, topology, network, rng, params=params)

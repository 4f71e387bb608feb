"""World assembly: one service plus the paper's measurement deployment.

A :class:`MeasurementWorld` wires together everything one campaign
needs: the simulator, the paper's EC2 geography, a jittered network
with fault injection, drifting host clocks, the chosen service, three
measurement agents (Oregon / Tokyo / Ireland), and the coordinator
(North Virginia) — §V's deployment, in one object.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.agents.agent import MeasurementAgent
from repro.errors import ConfigurationError
from repro.agents.coordinator import Coordinator
from repro.net.latency import JitterParams, LatencyModel
from repro.net.network import Network
from repro.net.partition import FaultInjector
from repro.net.topology import (
    IRELAND,
    OREGON,
    TOKYO,
    VIRGINIA,
    Region,
    paper_topology,
)
from repro.obs.context import ObsContext
from repro.services.profiles import build_service
from repro.sim.clock import make_host_clock
from repro.sim.event_loop import Simulator
from repro.sim.random_source import RandomSource

__all__ = ["MeasurementWorld", "AGENT_REGIONS"]

#: The paper's agent deployment: name -> region.
AGENT_REGIONS: dict[str, Region] = {
    "oregon": OREGON,
    "tokyo": TOKYO,
    "ireland": IRELAND,
}

COORDINATOR_HOST = "coordinator"


class MeasurementWorld:
    """Everything one measurement campaign runs inside."""

    def __init__(self, service_name: str, seed: int = 0,
                 jitter_sigma: float = 0.12,
                 max_clock_offset: float = 2.0,
                 max_drift_ppm: float = 40.0,
                 service_params: Any = None,
                 sync_samples: int = 8,
                 role_order: tuple[str, ...] | None = None,
                 scenario: Any = None,
                 spans: bool = False) -> None:
        """Assemble one measurement world.

        ``role_order`` permutes which location plays which *role* in
        the tests (Test 1's writer chain follows ``self.agents``
        order).  The paper ran "additional experiments where we
        rotated the location of each agent" to show that per-location
        asymmetries in its figures were artifacts of role order, not
        geography; pass e.g. ``("ireland", "oregon", "tokyo")`` to run
        the same rotation.

        ``scenario`` (a :class:`repro.scenario.schema.ScenarioSpec`)
        makes the world build the declared service model instead of
        looking ``service_name`` up in the built-in registry.

        ``spans`` makes ``self.obs`` keep every finished span; by
        default it keeps metrics only (``docs/obs.md``, "Cost model").
        """
        self.service_name = service_name
        self.sim = Simulator()
        self.rng = RandomSource(seed=seed)
        self.topology = paper_topology()
        self.faults = FaultInjector(rng=self.rng.child("faults"))
        # The observability context lives on the simulated clock, so
        # every metric timestamp and span boundary is a pure function
        # of (seed, config) — and rides the network object down the
        # stack, so clients and substrates need no new parameters.
        # The clock is a C-level attribute read of ``sim.now``: every
        # un-timed counter update and span boundary calls it.
        self.obs = ObsContext(now_fn=partial(getattr, self.sim, "now"),
                              spans=spans)
        self.network = Network(
            self.sim,
            LatencyModel(self.topology, self.rng.child("net"),
                         JitterParams(sigma=jitter_sigma)),
            faults=self.faults,
            obs=self.obs,
        )
        # Place probe hosts before anything attaches.
        for name, region in AGENT_REGIONS.items():
            self.topology.place_host(f"agent-{name}", region)
        self.topology.place_host(COORDINATOR_HOST, VIRGINIA)

        self.service = build_service(
            service_name, self.sim, self.topology, self.network,
            self.rng.child("service"), params=service_params,
            scenario=scenario,
        )

        ordered_names = self._validate_role_order(role_order)
        self.agents: list[MeasurementAgent] = []
        for name in ordered_names:
            host = f"agent-{name}"
            clock = make_host_clock(
                self.sim, self.rng, host,
                max_offset=max_clock_offset,
                max_drift_ppm=max_drift_ppm,
            )
            session = self.service.create_session(name, host)
            self.agents.append(MeasurementAgent(
                self.sim, name, host, clock, self.network, session
            ))

        coordinator_clock = make_host_clock(
            self.sim, self.rng, COORDINATOR_HOST,
            max_offset=max_clock_offset, max_drift_ppm=max_drift_ppm,
        )
        self.coordinator = Coordinator(
            self.sim, COORDINATOR_HOST, coordinator_clock,
            self.network, self.agents, sync_samples=sync_samples,
        )

    @staticmethod
    def _validate_role_order(
        role_order: tuple[str, ...] | None,
    ) -> tuple[str, ...]:
        if role_order is None:
            return tuple(AGENT_REGIONS)
        if sorted(role_order) != sorted(AGENT_REGIONS):
            raise ConfigurationError(
                f"role_order must be a permutation of "
                f"{tuple(AGENT_REGIONS)}, got {role_order!r}"
            )
        return tuple(role_order)

    @property
    def agent_names(self) -> tuple[str, ...]:
        return tuple(agent.name for agent in self.agents)

    def agent(self, name: str) -> MeasurementAgent:
        for agent in self.agents:
            if agent.name == name:
                return agent
        raise KeyError(name)

"""Parameterized service engines the scenario DSL instantiates.

A *builtin* scenario resolves to one of the hand-written service
classes in :mod:`repro.services`.  An *engine* scenario instead names
an archetype implemented here, and the DSL supplies everything the
hand-written classes hard-code: the name, the replica placement, and
the substrate parameters.  One engine class therefore covers a whole
family of services — the point of ROADMAP item 3.

:class:`GossipScenarioService` is the first engine: a gossip /
anti-entropy store (see :mod:`repro.replication.gossip`) with one
replica and one API edge per declared region, exposed through the same
black-box web API surface as every other service (bearer-token
accounts, rate limiting, newest-first pagination), so the unchanged
§IV methodology measures it.  Its POST route additionally honours an
``idempotency_key`` parameter — a retried write with the same key
replays the original response instead of applying twice — which is
what makes the retry policies of :mod:`repro.scenario.policies` safe
to measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.methodology.world import AGENT_REGIONS
from repro.net.network import Network
from repro.net.topology import Topology
from repro.replication.gossip import GossipGroup, GossipParams
from repro.scenario.schema import KNOWN_REGIONS, ScenarioSpec
from repro.services.base import OnlineService, SessionRoutes
from repro.sim.event_loop import Simulator
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account
from repro.webapi.http import ApiRequest
from repro.webapi.ratelimit import RateLimit

__all__ = ["GossipServiceParams", "GossipScenarioService",
           "EVENTS_PATH"]

EVENTS_PATH = "/scenario/events"

#: Replayed POST bodies retained per service (bounded memory).
_IDEMPOTENCY_CACHE_LIMIT = 4096


@dataclass(frozen=True)
class GossipServiceParams:
    """Service-level tunables of the gossip archetype."""

    store: GossipParams = field(default_factory=GossipParams)
    write_processing_median: float = 0.03
    read_processing_median: float = 0.02
    rate_limit: RateLimit = RateLimit(max_requests=30, window=1.0)


class GossipScenarioService(OnlineService):
    """A DSL-instantiated gossip store behind the standard web API."""

    _params: GossipServiceParams

    def __init__(self, spec: ScenarioSpec, sim: Simulator,
                 topology: Topology, network: Network,
                 rng: RandomSource,
                 params: GossipServiceParams | None = None) -> None:
        # The account-registry realm and metric labels carry the
        # scenario name, so set it before the base constructor reads it.
        self.name = spec.name
        super().__init__(sim, topology, network, rng,
                         params or GossipServiceParams())
        self._spec = spec
        # Default placement: one replica per agent region.
        self._regions = spec.service.regions or tuple(AGENT_REGIONS)
        self._idempotent: dict[str, dict] = {}
        node_hosts = []
        self._node_by_region: dict[str, str] = {}
        for region_name in self._regions:
            host = f"{spec.name}-node-{region_name}"
            self._place(host, KNOWN_REGIONS[region_name])
            node_hosts.append(host)
            self._node_by_region[region_name] = host
        self._group = GossipGroup(
            sim, network, rng.child("gossip"), self._params.store,
            node_hosts,
        )
        self._routes = {
            region_name: self._serve_host(
                SessionRoutes(api_host=f"{spec.name}-api-{region_name}",
                              post_path=EVENTS_PATH,
                              fetch_path=EVENTS_PATH),
                KNOWN_REGIONS[region_name], self._make_post_handler(node),
                self._make_list_handler(node),
            )
            for region_name, node in self._node_by_region.items()
        }

    # -- Route handlers ---------------------------------------------------

    def _make_post_handler(self, node: str):
        def handler(request: ApiRequest, account: Account):
            message_id = request.require_param("message_id")
            idempotency_key = request.param("idempotency_key")
            if idempotency_key is not None:
                cached = self._idempotent.get(idempotency_key)
                if cached is not None:
                    return dict(cached)
            self._group.write_at(node, message_id, account.user_id)
            body = {"id": message_id}
            if idempotency_key is not None:
                while len(self._idempotent) >= \
                        _IDEMPOTENCY_CACHE_LIMIT:
                    self._idempotent.pop(
                        next(iter(self._idempotent))
                    )
                self._idempotent[idempotency_key] = dict(body)
            return body
        return handler

    def _make_list_handler(self, node: str):
        def handler(request: ApiRequest, account: Account):
            return self._list_body(self._group.read_from(node)[::-1],
                                   request)
        return handler

    # -- Sessions ---------------------------------------------------------

    def session_routes(self, agent_host: str) -> SessionRoutes:
        region = self._region_name_of(agent_host)
        # Agents outside every replica region reach the first declared
        # edge (an anycast front door), so single-region scenarios
        # still serve all three vantage points.
        return (self._routes.get(region)
                or self._routes[self._regions[0]])

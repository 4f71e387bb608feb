"""A quorum-replicated storage service (the paper's future-work target).

The paper's conclusion proposes applying the methodology "to
large-scale storage systems"; this service makes that concrete: a
Dynamo-style key-value/event store with one replica per agent region
and configurable read/write quorum sizes, exposed through the same
black-box web API the other services use — so the unchanged §IV
methodology measures it.

The interesting knob is ``QuorumParams(read_quorum, write_quorum)``:

* ``R = W = 1`` — fastest, maximally weak: clients frequently read
  replicas that have not yet applied recent writes, producing
  read-your-writes, monotonic-reads, and content-divergence anomalies.
* ``R + W > N`` (e.g. ``R = W = 2`` with N = 3) — overlapping quorums:
  every read intersects every acknowledged write, eliminating the
  session anomalies at the cost of higher operation latency.

See ``benchmarks/test_quorum_knob.py`` for the resulting ablation
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.network import Network
from repro.net.topology import IRELAND, OREGON, TOKYO, Region, Topology
from repro.replication.quorum import QuorumParams, QuorumStore
from repro.services.base import OnlineService, SessionRoutes
from repro.sim.event_loop import Simulator
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account
from repro.webapi.http import ApiRequest
from repro.webapi.ratelimit import RateLimit

__all__ = ["QuorumKvParams", "QuorumKvService"]

EVENTS_PATH = "/kv/events"

#: One replica in each agent region (the Dynamo-style placement).
REPLICA_REGIONS: tuple[Region, ...] = (OREGON, TOKYO, IRELAND)


@dataclass(frozen=True)
class QuorumKvParams:
    """Service-level tunables for the quorum store."""

    quorum: QuorumParams = field(default_factory=QuorumParams)
    write_processing_median: float = 0.03
    read_processing_median: float = 0.02
    rate_limit: RateLimit = RateLimit(max_requests=30, window=1.0)


class QuorumKvService(OnlineService):
    """The quorum KV model: per-region replicas and front-ends."""

    name = "quorum_kv"
    _params: QuorumKvParams

    def __init__(self, sim: Simulator, topology: Topology,
                 network: Network, rng: RandomSource,
                 params: QuorumKvParams | None = None) -> None:
        super().__init__(sim, topology, network, rng,
                         params or QuorumKvParams())
        replica_hosts = []
        for index, region in enumerate(REPLICA_REGIONS):
            host = f"kv-replica-{index}"
            self._place(host, region)
            replica_hosts.append(host)
        frontend_hosts = []
        for region in REPLICA_REGIONS:
            host = f"kv-frontend-{region.name}"
            self._place(host, region)
            frontend_hosts.append(host)
        self._store = QuorumStore(
            sim, network, self._params.quorum,
            replica_hosts=replica_hosts,
            frontend_hosts=frontend_hosts,
            rng=rng.child("quorum"),
        )
        self._routes = {
            region.name: self._serve_host(
                SessionRoutes(api_host=f"kv-api-{region.name}",
                              post_path=EVENTS_PATH,
                              fetch_path=EVENTS_PATH),
                region, self._make_post_handler(frontend),
                self._make_list_handler(frontend),
            )
            for region, frontend in zip(REPLICA_REGIONS, frontend_hosts)
        }

    # -- Route handlers --------------------------------------------------

    def _make_post_handler(self, frontend: str):
        def handler(request: ApiRequest, account: Account):
            message_id = request.require_param("message_id")
            return self._reply(
                self._store.write(frontend, message_id, account.user_id),
                lambda published: {"id": message_id,
                                   "published": published})
        return handler

    def _make_list_handler(self, frontend: str):
        def handler(request: ApiRequest, account: Account):
            return self._reply(
                self._store.read(frontend),
                lambda merged: self._list_body(merged[::-1], request))
        return handler

    # -- Sessions -----------------------------------------------------------

    def session_routes(self, agent_host: str) -> SessionRoutes:
        region = self._region_name_of(agent_host)
        return self._require(self._routes, region, "quorum API host")

"""Facebook Group: a single shared group feed over the Graph API.

Paper usage (§V): "all users are associated with a single group and
issued all their write and read operations over that group", each agent
being a distinct test user.  Findings: no read-your-writes violations
and no order divergence; monotonic-writes violations in 93% of tests
caused by one-second-precision creation timestamps with a deterministic
reversed tie-break; monotonic reads once and writes-follow-reads twice;
15 content-divergence occurrences of which 9 came from a stretch where
the Tokyo agent could not observe the other agents' operations
(a transient fault or partition on its replica).

Model: a :class:`~repro.replication.group_store.GeoGroupStore` — a
primary in Virginia serving the Oregon and Ireland agents and a
follower in Tokyo serving the Tokyo agent, both ordering events with
:func:`~repro.replication.ordering.second_truncated_key`.  Each replica
fronts its own API endpoint.  API surface: ``POST /group/shared/feed``
and ``GET /group/shared/feed``.

The write processing delay is the knob behind the 93% figure: Test 1's
two consecutive writes land in the same wall-clock second whenever the
first write's full latency (network + processing) is under the second
boundary, and same-second writes are always observed reversed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.network import Network
from repro.net.topology import TOKYO, VIRGINIA, Topology
from repro.replication.group_store import GeoGroupStore, GroupStoreParams
from repro.services.base import OnlineService, SessionRoutes
from repro.sim.event_loop import Simulator
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account
from repro.webapi.http import ApiRequest
from repro.webapi.ratelimit import RateLimit

__all__ = ["FacebookGroupParams", "FacebookGroupService"]

FEED_PATH = "/group/shared/feed"


@dataclass(frozen=True)
class FacebookGroupParams:
    """Service-level tunables for Facebook Group."""

    store: GroupStoreParams = field(default_factory=GroupStoreParams)
    #: Median write processing delay; together with the agent-endpoint
    #: RTT and the store's commit delay this sets the gap between Test
    #: 1's two consecutive writes and hence the probability they share
    #: a wall-clock second.
    write_processing_median: float = 0.05
    read_processing_median: float = 0.06
    rate_limit: RateLimit = RateLimit(max_requests=20, window=1.0)


class FacebookGroupService(OnlineService):
    """The Facebook Group model: sticky replicas, 1s-truncated order."""

    name = "facebook_group"
    _params: FacebookGroupParams

    def __init__(self, sim: Simulator, topology: Topology,
                 network: Network, rng: RandomSource,
                 params: FacebookGroupParams | None = None) -> None:
        super().__init__(sim, topology, network, rng,
                         params or FacebookGroupParams())
        self._place("fbgroup-primary", VIRGINIA)
        self._place("fbgroup-follower", TOKYO)
        self._store = GeoGroupStore(
            sim, network, rng.child("fbgroup"), self._params.store,
            primary_host="fbgroup-primary",
            follower_host="fbgroup-follower",
        )
        # Each replica fronts its own API host, keyed by whether it is
        # the follower.
        self._routes = {
            to_follower: self._serve_host(
                SessionRoutes(api_host=api_host, post_path=FEED_PATH,
                              fetch_path=FEED_PATH),
                region, self._make_post_handler(replica),
                self._make_read_handler(replica),
            )
            for to_follower, replica, api_host, region in (
                (False, self._store.primary, "fbgroup-api-us", VIRGINIA),
                (True, self._store.follower, "fbgroup-api-tokyo", TOKYO),
            )
        }

    # -- Route handlers --------------------------------------------------

    def _make_post_handler(self, replica):
        def handler(request: ApiRequest, account: Account):
            message_id = request.require_param("message_id")
            return self._reply(
                replica.accept_write(message_id, account.user_id),
                lambda published: {"id": message_id,
                                   "published": published})
        return handler

    def _make_read_handler(self, replica):
        def handler(request: ApiRequest, account: Account):
            # The group feed lists the most recent events first,
            # paginated.
            body = self._list_body(replica.read()[::-1], request)
            # The Graph API exposes per-event creation timestamps with
            # one-second precision — the field the paper inspected to
            # uncover the same-second tie-breaking scheme (§V).
            if "created_time" in str(request.param("fields", "")):
                body["entries"] = [
                    {"id": message_id,
                     "created_time": self._created_time(replica,
                                                        message_id)}
                    for message_id in body["messages"]
                ]
            return body
        return handler

    @staticmethod
    def _created_time(replica, message_id: str) -> int:
        entry = replica.store.entry(message_id)
        return int(entry.origin_ts) if entry is not None else 0

    # -- Sessions -----------------------------------------------------------

    def session_routes(self, agent_host: str) -> SessionRoutes:
        # Tokyo reads the geo-local follower replica; everyone else
        # talks to the primary-colocated endpoint.
        to_follower = self._region_name_of(agent_host) == TOKYO.name
        return self._routes[to_follower]

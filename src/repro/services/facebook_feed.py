"""Facebook Feed: interest-ranked news-feed reads over the Graph API.

Paper usage (§V): "each user wrote to and reads from his own feed,
which combines writes to the user feed and from the feeds of all
friends"; each agent was a distinct test user, all friends of each
other.  Findings: the most anomalous service measured — read-your-writes
violations in 99% of tests, monotonic writes 89%, monotonic reads 46%,
order divergence near 100% at all locations, content divergence above
50% for all pairs — explained by the read semantics: the reply is "a
selection of writes based on ... the expected interest of these writes
for the user issuing the read".

Model: a single logical :class:`~repro.replication.ranking.RankedFeedStore`
(posts fan out to per-user feed indexes after an indexing lag; reads
rank by recency + per-read interest noise and apply selection churn)
behind one Graph-API endpoint.  API surface: ``POST /me/feed`` and
``GET /me/home`` (the home feed combines everyone's posts because all
test users are friends).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.network import Network
from repro.net.topology import VIRGINIA, Topology
from repro.replication.ranking import RankedFeedParams, RankedFeedStore
from repro.services.base import OnlineService, SessionRoutes
from repro.sim.event_loop import Simulator
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account
from repro.webapi.http import ApiRequest
from repro.webapi.ratelimit import RateLimit

__all__ = ["FacebookFeedParams", "FacebookFeedService"]

POST_PATH = "/me/feed"
HOME_PATH = "/me/home"


@dataclass(frozen=True)
class FacebookFeedParams:
    """Service-level tunables for Facebook Feed."""

    ranking: RankedFeedParams = field(default_factory=RankedFeedParams)
    write_processing_median: float = 0.10
    read_processing_median: float = 0.06
    rate_limit: RateLimit = RateLimit(max_requests=20, window=1.0)


class FacebookFeedService(OnlineService):
    """The Facebook Feed model: test users, ranked home feeds."""

    name = "facebook_feed"
    _params: FacebookFeedParams

    def __init__(self, sim: Simulator, topology: Topology,
                 network: Network, rng: RandomSource,
                 params: FacebookFeedParams | None = None) -> None:
        super().__init__(sim, topology, network, rng,
                         params or FacebookFeedParams())
        self._feed = RankedFeedStore(
            sim, rng.child("fbfeed"), self._params.ranking
        )
        # One edge endpoint; writes go to the wall, reads to the home
        # feed.
        self._routes = self._serve_host(
            SessionRoutes(api_host="fbfeed-api", post_path=POST_PATH,
                          fetch_path=HOME_PATH),
            VIRGINIA, self._handle_post, self._handle_home,
            rng.child("fbfeed-endpoint"),
        )

    # -- Route handlers --------------------------------------------------

    def _handle_post(self, request: ApiRequest, account: Account):
        message_id = request.require_param("message_id")
        origin_ts = self._feed.write(account.user_id, message_id)
        return {"id": message_id, "published": origin_ts}

    def _handle_home(self, request: ApiRequest, account: Account):
        # The ranked feed is already highest-interest (newest) first;
        # its feed_size bounds the result, but the cursor protocol is
        # still honoured for API parity.
        return self._list_body(self._feed.read(account.user_id), request)

    # -- Sessions -----------------------------------------------------------

    def session_routes(self, agent_host: str) -> SessionRoutes:
        return self._routes

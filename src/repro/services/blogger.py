"""Blogger: a strongly consistent blog-post API.

Paper usage (§V): "we used the API to post blog messages and to obtain
the most recent posts.  In this service, each agent was a different
user, and all agents wrote to a single blog."  The paper found no
anomalies of any type and concludes Blogger offers a form of strong
consistency.

Model: one primary (the blog's authoritative store) with two
geo-replicated backups updated synchronously before a write is
acknowledged; all reads are served by the primary.  The API surface is
``POST /blogs/shared/posts`` and ``GET /blogs/shared/posts``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.network import Network
from repro.net.topology import IRELAND, OREGON, VIRGINIA, Topology
from repro.replication.strong import PrimaryBackupGroup
from repro.services.base import OnlineService, SessionRoutes
from repro.sim.event_loop import Simulator
from repro.sim.future import Future
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account
from repro.webapi.endpoint import ServiceEndpoint
from repro.webapi.http import ApiRequest
from repro.webapi.router import Router
from repro.webapi.ratelimit import RateLimit, SlidingWindowRateLimiter

__all__ = ["BloggerParams", "BloggerService"]

POST_PATH = "/blogs/shared/posts"


@dataclass(frozen=True)
class BloggerParams:
    """Service-level tunables for Blogger."""

    #: Median server-side processing delay for writes (seconds).  On
    #: top of this the client waits for synchronous backup replication.
    write_processing_median: float = 0.17
    #: Median server-side processing delay for reads (seconds).
    read_processing_median: float = 0.04
    #: Per-token rate limit.
    rate_limit: RateLimit = RateLimit(max_requests=20, window=1.0)


class BloggerService(OnlineService):
    """The Blogger model: one blog, per-agent users, strong consistency."""

    name = "blogger"

    def __init__(self, sim: Simulator, topology: Topology,
                 network: Network, rng: RandomSource,
                 params: BloggerParams | None = None) -> None:
        super().__init__(sim, topology, network, rng)
        self._params = params or BloggerParams()
        self._place("blogger-primary", VIRGINIA)
        self._place("blogger-backup-us", OREGON)
        self._place("blogger-backup-eu", IRELAND)
        self._group = PrimaryBackupGroup(
            sim, network, "blogger-primary",
            ["blogger-backup-us", "blogger-backup-eu"],
        )
        # The API front-end lives with the primary; it must be placed
        # before the endpoint attaches to the network.
        self._place("blogger-api", VIRGINIA)
        self._endpoint_host = "blogger-api"
        router = Router()
        router.add(
            "POST", POST_PATH, self._handle_post,
            processing_delay_median=self._params.write_processing_median,
        )
        router.add(
            "GET", POST_PATH, self._handle_list,
            processing_delay_median=self._params.read_processing_median,
        )
        self._endpoint = ServiceEndpoint(
            sim, network, self._endpoint_host,
            accounts=self._accounts,
            rate_limiter=SlidingWindowRateLimiter(
                self._params.rate_limit, now_fn=lambda: sim.now
            ),
            rng=rng.child("blogger-endpoint"),
            router=router,
        )

    # -- Route handlers --------------------------------------------------

    def _handle_post(self, request: ApiRequest, account: Account):
        message_id = request.require_param("message_id")
        done = self._group.write(account.user_id, message_id)
        shaped: Future = Future(name="blogger.post")
        done.add_callback(
            lambda f: shaped.fail(f.exception) if f.failed
            else shaped.resolve({"id": message_id, "published": f.value})
        )
        return shaped

    def _handle_list(self, request: ApiRequest, account: Account):
        # Real blog APIs list the most recent posts first, paginated.
        return self._list_body(self._group.read()[::-1], request)

    # -- Sessions -----------------------------------------------------------

    def session_routes(self, agent_host: str) -> SessionRoutes:
        # One blog, one API front-end: every agent talks to the
        # primary-colocated endpoint.
        return SessionRoutes(api_host=self._endpoint_host,
                             post_path=POST_PATH,
                             fetch_path=POST_PATH)

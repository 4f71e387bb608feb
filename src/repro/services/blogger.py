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
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account
from repro.webapi.http import ApiRequest
from repro.webapi.ratelimit import RateLimit

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
        super().__init__(sim, topology, network, rng,
                         params or BloggerParams())
        self._place("blogger-primary", VIRGINIA)
        self._place("blogger-backup-us", OREGON)
        self._place("blogger-backup-eu", IRELAND)
        self._group = PrimaryBackupGroup(
            sim, network, "blogger-primary",
            ["blogger-backup-us", "blogger-backup-eu"],
        )
        # The API front-end lives with the primary.
        self._routes = self._serve_host(
            SessionRoutes(api_host="blogger-api", post_path=POST_PATH,
                          fetch_path=POST_PATH),
            VIRGINIA, self._handle_post, self._handle_list,
            rng.child("blogger-endpoint"),
        )

    # -- Route handlers --------------------------------------------------

    def _handle_post(self, request: ApiRequest, account: Account):
        message_id = request.require_param("message_id")
        return self._reply(
            self._group.write(account.user_id, message_id),
            lambda published: {"id": message_id, "published": published})

    def _handle_list(self, request: ApiRequest, account: Account):
        # Real blog APIs list the most recent posts first, paginated.
        return self._list_body(self._group.read()[::-1], request)

    # -- Sessions -----------------------------------------------------------

    def session_routes(self, agent_host: str) -> SessionRoutes:
        # One blog, one API front-end: every agent talks to the
        # primary-colocated endpoint.
        return self._routes

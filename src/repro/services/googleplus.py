"""Google+ moments: an eventually consistent shared-account API.

Paper usage (§V): "we used the API to post a new moment and to read the
most recent moments.  In this case, all agents shared the same account,
since there is no notion of a follower for moments."  Findings: all six
anomaly types occur; content divergence up to 85% of tests with
multi-second convergence; order divergence around 14% for pairs
involving Ireland and under 1% between Oregon and Tokyo; session
violations at moderate rates.  The paper infers that the Oregon and
Tokyo agents reach the *same datacenter* while Ireland reaches another.

Model: a two-datacenter :class:`~repro.replication.eventual.EventualGroup`
("us" serving Oregon and Tokyo, "eu" serving Ireland) with batched
anti-entropy, late-write repair, and load-balanced stale read backends.
Each datacenter fronts its own API endpoint; an agent talks to the
endpoint of its region's home datacenter.  API surface:
``POST /plusDomains/moments`` and ``GET /plusDomains/moments``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.network import Network
from repro.net.topology import IRELAND, OREGON, Topology
from repro.replication.eventual import EventualGroup, EventualParams
from repro.services.base import OnlineService, SessionRoutes
from repro.sim.event_loop import Simulator
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account
from repro.webapi.http import ApiRequest
from repro.webapi.ratelimit import RateLimit

__all__ = ["GooglePlusParams", "GooglePlusService"]

MOMENTS_PATH = "/plusDomains/moments"

#: Region-name -> home datacenter host.  The paper's inference: Oregon
#: and Tokyo share a DC, Ireland uses another.
DEFAULT_HOMES = {
    "oregon": "gplus-dc-us",
    "tokyo": "gplus-dc-us",
    "virginia": "gplus-dc-us",
    "ireland": "gplus-dc-eu",
}


@dataclass(frozen=True)
class GooglePlusParams:
    """Service-level tunables for Google+.

    The two datacenters get different replication parameters because
    the paper's order-divergence numbers are asymmetric: pairs
    involving Ireland diverge in ~14% of tests, Oregon-Tokyo in under
    1% — implying the tail-insert path essentially only occurs on the
    Ireland-facing datacenter.
    """

    replication_us: EventualParams = field(
        default_factory=lambda: EventualParams(tail_insert_prob=0.004)
    )
    replication_eu: EventualParams = field(
        default_factory=lambda: EventualParams(tail_insert_prob=0.12)
    )
    write_processing_median: float = 0.10
    read_processing_median: float = 0.05
    #: The shared account sees traffic from all agents at once, so the
    #: limit must accommodate three 300 ms read loops plus writes.
    rate_limit: RateLimit = RateLimit(max_requests=30, window=1.0)


class GooglePlusService(OnlineService):
    """The Google+ moments model: shared account, two datacenters."""

    name = "googleplus"
    _params: GooglePlusParams

    def __init__(self, sim: Simulator, topology: Topology,
                 network: Network, rng: RandomSource,
                 params: GooglePlusParams | None = None,
                 homes: dict[str, str] | None = None) -> None:
        super().__init__(sim, topology, network, rng,
                         params or GooglePlusParams())
        self._homes = dict(homes or DEFAULT_HOMES)
        self._place("gplus-dc-us", OREGON)
        self._place("gplus-dc-eu", IRELAND)
        # Host order is peer order, which fixes the shipping order.
        self._group = EventualGroup(sim, network, rng.child("gplus"), {
            "gplus-dc-us": self._params.replication_us,
            "gplus-dc-eu": self._params.replication_eu,
        })
        # One shared account: "all agents shared the same account".
        self._shared_account = self._accounts.create_account(
            "shared-moments-user"
        )
        # Each datacenter fronts its own API host.
        self._routes = {
            dc_host: self._serve_host(
                SessionRoutes(api_host=api_host, post_path=MOMENTS_PATH,
                              fetch_path=MOMENTS_PATH),
                self._topology.region_of(dc_host),
                self._make_post_handler(dc_host),
                self._make_list_handler(dc_host),
            )
            for dc_host, api_host in (("gplus-dc-us", "gplus-api-us"),
                                      ("gplus-dc-eu", "gplus-api-eu"))
        }

    # -- Route handlers --------------------------------------------------

    def _make_post_handler(self, dc_host: str):
        def handler(request: ApiRequest, account: Account):
            message_id = request.require_param("message_id")
            replica = self._group.replica(dc_host)
            # All agents share one account, but fanout/replication
            # pipelines are per producing client, so the writer
            # identity includes the client id.
            writer = (f"{account.user_id}"
                      f"#{request.param('client_id', 'unknown')}")
            origin_ts = replica.accept_write(message_id, writer)
            return {"id": message_id, "published": origin_ts}
        return handler

    def _make_list_handler(self, dc_host: str):
        def handler(request: ApiRequest, account: Account):
            # Moments are listed most recent first, paginated; the
            # replica walks its view no further back than the page.
            replica = self._group.replica(dc_host)
            return self._list_body(
                replica.read(self._page_need(request))[::-1], request)
        return handler

    # -- Sessions -----------------------------------------------------------

    def home_datacenter(self, agent_host: str) -> str:
        """The datacenter host serving an agent, by the agent's region."""
        region = self._region_name_of(agent_host)
        return self._require(self._homes, region, "home datacenter")

    def session_account(self, agent: str) -> Account:
        # "All agents shared the same account" — there is no notion of
        # a follower for moments.
        return self._shared_account

    def session_routes(self, agent_host: str) -> SessionRoutes:
        return self._routes[self.home_datacenter(agent_host)]

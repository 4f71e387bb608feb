"""Measure your own service model with the paper's methodology.

The methodology is black-box: anything exposing the two-operation
session API (post a message, fetch the sequence) can be probed.  This
example defines a new service — an eventually-consistent store with a
*sticky sessions + read-your-writes cache* design, a common industry
middle ground the paper did not measure — registers it, and runs both
test templates against it.

The point to observe: sticky caching removes read-your-writes and
monotonic-reads violations, but the service still diverges across
datacenters because writes propagate asynchronously.

Run:  python examples/custom_service.py
"""

from dataclasses import dataclass

from repro.analysis import prevalence_rows
from repro.methodology import (
    CampaignConfig,
    PAPER_PLANS,
    ServicePlan,
    run_campaign,
)
from repro.net.topology import IRELAND, OREGON
from repro.replication import EventualGroup, EventualParams
from repro.services import SERVICE_IMPORTS
from repro.services.base import OnlineService, SessionRoutes
from repro.webapi import RateLimit

__all__ = ["StickyCacheService", "main"]

POSTS_PATH = "/sticky/posts"


@dataclass(frozen=True)
class _StickyHost:
    """The API host's fixed medians and rate limit (``params`` unused)."""

    write_processing_median: float
    read_processing_median: float
    rate_limit: RateLimit


_HOST = _StickyHost(0.05, 0.05, RateLimit(max_requests=20, window=1.0))


class StickyCacheService(OnlineService):
    """Eventual replication + per-client write-through session cache.

    Writes go to the client's home datacenter *and* into a per-client
    server-side session cache; reads merge the (possibly stale)
    datacenter view with the client's own cached writes.  This is how
    many real services bolt read-your-writes onto an eventually
    consistent core.
    """

    name = "sticky_cache"

    def __init__(self, sim, topology, network, rng, params=None):
        super().__init__(sim, topology, network, rng, _HOST)
        self._place("sticky-dc-us", OREGON)
        self._place("sticky-dc-eu", IRELAND)
        datacenter = EventualParams(
            backend_lag_prob=0.15,      # very stale backends...
            stale_snapshot_prob=0.03,   # ...and snapshot regressions
        )
        self._group = EventualGroup(
            sim, network, rng.child("sticky"),
            {"sticky-dc-us": datacenter, "sticky-dc-eu": datacenter},
        )
        #: client -> ordered list of its own writes (the session cache).
        self._session_cache: dict[str, list[str]] = {}
        self._routes = self._serve_host(
            SessionRoutes(api_host="sticky-api", post_path=POSTS_PATH,
                          fetch_path=POSTS_PATH),
            OREGON, self._handle_post, self._handle_list,
            rng.child("sticky-endpoint"),
        )

    def _home_for(self, user_id):
        return ("sticky-dc-eu" if user_id == "ireland"
                else "sticky-dc-us")

    def _handle_post(self, request, account):
        message_id = request.require_param("message_id")
        replica = self._group.replica(self._home_for(account.user_id))
        replica.accept_write(message_id, account.user_id)
        self._session_cache.setdefault(account.user_id,
                                       []).append(message_id)
        return {"id": message_id}

    def _handle_list(self, request, account):
        replica = self._group.replica(self._home_for(account.user_id))
        view = list(replica.read())
        # Merge the session cache: replay own writes the stale backend
        # missed, in session order.
        for own in self._session_cache.get(account.user_id, []):
            if own not in view:
                view.append(own)
        return {"messages": list(reversed(view))}  # newest first

    def session_routes(self, agent_host):
        return self._routes


def main(num_tests: int = 30) -> None:
    # Register the custom service so the standard runner can build it:
    # the registry maps a name to "module:Class" and imports on demand.
    SERVICE_IMPORTS[StickyCacheService.name] = (
        f"{__name__}:{StickyCacheService.__name__}")
    PAPER_PLANS[StickyCacheService.name] = ServicePlan(
        test1=PAPER_PLANS["googleplus"].test1,
        test2=PAPER_PLANS["googleplus"].test2,
    )

    print("Measuring the custom sticky-cache service "
          f"({num_tests} tests per template)...\n")
    result = run_campaign(StickyCacheService.name,
                          CampaignConfig(num_tests=num_tests, seed=21))

    print(f"{'anomaly':24s}{'prevalence':>12s}")
    print("-" * 36)
    for row in prevalence_rows(result):
        print(f"{row.anomaly:24s}{row.percent:11.1f}%")

    print()
    print("Sticky caching gives the service read-your-writes for "
          "free, but eventual replication still shows up as content "
          "divergence between datacenters — consistent with the "
          "paper's observation that divergence is the unavoidable "
          "cost of single-replica write latency.")


if __name__ == "__main__":
    main()

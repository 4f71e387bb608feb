"""Common service machinery: the session API agents program against.

Every simulated service exposes the same two-operation surface the
paper's §III model requires — a *write* that inserts an event and a
*read* that returns the current sequence of events — behind
service-specific API paths.  :class:`ServiceSession` is the agent-side
handle: it owns an :class:`~repro.webapi.client.ApiClient` with the
agent's bearer token and translates API responses into message-id
sequences.  Each call hands the caller one future, settled by a single
callback on the RPC reply: the reply's failure (timeout, unreachable
host) as is, a non-2xx status as the typed error
:meth:`~repro.webapi.http.ApiResponse.raise_for_status` raises, a
success as the reshaped body.

Concrete services subclass :class:`OnlineService`, handing it their
params (the :class:`HostTunables` every host reads: the two processing
medians and the one rate limit all its hosts share), build their
replication substrate at construction, and serve each API host with
:meth:`OnlineService._serve_host` — the one place a host is placed,
routed (write, then read, each with its processing median) and
attached as a :class:`~repro.webapi.endpoint.ServiceEndpoint` behind
the service's rate limiter.  A handler whose substrate acks with a
future hands it to :meth:`OnlineService._reply` for the reply body.
Services implement :meth:`OnlineService.session_routes` (plus,
for shared-account services, :meth:`OnlineService.session_account`)
to route each agent to the right host (its home datacenter / edge).
Session construction itself — client wiring, token plumbing, the
service label on the API client's metrics — lives once in
:meth:`OnlineService.create_session`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, Sequence

from repro.errors import ConfigurationError, ServiceError
from repro.net.network import Network
from repro.net.topology import Region, Topology
from repro.sim.event_loop import Simulator
from repro.sim.future import Future
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account, AccountRegistry
from repro.webapi.client import ApiClient
from repro.webapi.endpoint import RouteHandler, ServiceEndpoint
from repro.webapi.http import ApiRequest, ApiResponse
from repro.webapi.pagination import (
    DEFAULT_PAGE_SIZE,
    newest_needed,
    paginate,
)
from repro.webapi.ratelimit import RateLimit, SlidingWindowRateLimiter
from repro.webapi.router import Router

__all__ = ["HostTunables", "SessionRoutes", "ServiceSession",
           "OnlineService"]


@dataclass(frozen=True)
class SessionRoutes:
    """Where one agent's session talks to: endpoint host + API paths.

    A value object so services describe their routing declaratively
    (one :meth:`OnlineService.session_routes` hook) instead of each
    re-implementing client construction with positional path
    arguments.
    """

    #: The endpoint host serving this agent (its home DC / edge).
    api_host: str
    #: Service-specific API route for writing.
    post_path: str
    #: Service-specific API route for reading.
    fetch_path: str


def _chronological(body: Mapping[str, Any]) -> tuple[str, ...]:
    """A list response's ids, oldest first (APIs list newest first)."""
    return tuple(reversed(body.get("messages", ())))


class ServiceSession:
    """One agent's authenticated handle to a service.

    Parameters
    ----------
    client:
        The API client bound to the agent host and endpoint host.
    account:
        The account this session acts as.
    routes:
        The :class:`SessionRoutes` naming the write and read paths.
    """

    def __init__(self, client: ApiClient, account: Account,
                 routes: SessionRoutes) -> None:
        self._client = client
        self.account = account
        self.routes = routes
        self._post_path = routes.post_path
        self._fetch_path = routes.fetch_path
        self.writes_issued = 0
        self.reads_issued = 0

    def post_message(self, message_id: str,
                     extra: dict[str, Any] | None = None) -> Future:
        """Write one event; resolves to the service's response body.

        The resolved value is the response body mapping (with at least
        ``{"id": message_id}``); a :class:`~repro.errors.ServiceError`
        failure carries rate-limit / auth problems.

        The request carries a ``client_id`` (the posting device /
        connection), which services with shared accounts — Google+
        moments in the paper's setup — use to distinguish producers:
        back-end fanout pipelines are per-producer, not per-account.
        ``extra`` merges additional body parameters (e.g. the
        ``idempotency_key`` the resilience policy layer attaches);
        services that do not understand them ignore them.
        """
        self.writes_issued += 1
        body = {
            "message_id": message_id,
            "client_id": self._client.client_host,
        }
        if extra:
            body.update(extra)
        return self._unwrap(self._client.post(self._post_path, body))

    def fetch_messages(self) -> Future:
        """Read the current sequence; resolves to a tuple of ids.

        Every service API returns its list **newest first** and
        paginated (the convention of real feed/blog APIs); the session
        normalizes the first page to chronological event order, which
        is the sequence model the anomaly definitions of §III are
        stated over.  The paper's agents performed the same
        normalization when parsing responses; the probe only ever
        needs the current test's (newest) messages, so one page
        suffices.
        """
        self.reads_issued += 1
        return self._settle(self._client.get(self._fetch_path),
                            _chronological, "fetch.messages")

    @staticmethod
    def _unwrap(response_future: Future) -> Future:
        """Map an ApiResponse future to a body future, raising on 4xx/5xx."""
        return ServiceSession._settle(response_future, dict, "unwrap")

    @staticmethod
    def _settle(reply: Future, shape: Callable[[Mapping[str, Any]], Any],
                name: str) -> Future:
        """The caller's future, settled by one callback on the RPC reply:
        its failure, a non-2xx status's typed error, or ``shape(body)``."""
        settled: Future = Future(name)

        def on_reply(done: Future) -> None:
            if done.failed:
                settled.fail(done.exception)
                return
            response = done.value
            assert isinstance(response, ApiResponse)
            try:
                response.raise_for_status()
            except Exception as exc:  # noqa: BLE001 - forwarded
                settled.fail(exc)
                return
            settled.resolve(shape(response.body))

        reply.add_callback(on_reply)
        return settled


class HostTunables(Protocol):
    """What serving a service's API hosts reads from its params."""

    #: Median processing delay of the write route (seconds).
    write_processing_median: float
    #: Median processing delay of the read route (seconds).
    read_processing_median: float
    #: Per-token limit, enforced by one limiter over all the hosts.
    rate_limit: RateLimit


class OnlineService(abc.ABC):
    """Base class for every simulated service.

    ``params`` are the service's tunables; the base reads the
    :class:`HostTunables` fields when serving hosts, and subclasses
    read their own fields from ``self._params``.
    """

    #: Registry name, e.g. "blogger"; set by subclasses.
    name: str = ""

    def __init__(self, sim: Simulator, topology: Topology,
                 network: Network, rng: RandomSource,
                 params: HostTunables) -> None:
        self._sim = sim
        self._topology = topology
        self._network = network
        self._rng = rng
        self._params = params
        self._accounts = AccountRegistry(self.name or type(self).__name__)
        #: API host -> its endpoint, in attach order.
        self._endpoints: dict[str, ServiceEndpoint] = {}
        #: Shared by every API host of the service.
        self._rate_limiter = SlidingWindowRateLimiter(
            params.rate_limit, now_fn=lambda: sim.now)

    @property
    def accounts(self) -> AccountRegistry:
        return self._accounts

    def create_session(self, agent: str, agent_host: str,
                       account: Account | None = None) -> ServiceSession:
        """Create an authenticated session for an agent.

        The one place sessions are assembled: resolves the account
        (per-agent by default, see :meth:`session_account`), asks the
        service where this agent's requests go
        (:meth:`session_routes`), and wires up the client — tagged
        with the service name so its request metrics carry a
        ``service`` label.  Pass ``account`` to act as a specific
        existing account (e.g. forensic probes reusing an agent's
        identity).
        """
        if account is None:
            account = self.session_account(agent)
        routes = self.session_routes(agent_host)
        client = ApiClient(
            self._network, agent_host, routes.api_host, account.token,
            service=self.name,
        )
        return ServiceSession(client, account, routes)

    def session_account(self, agent: str) -> Account:
        """The account a new session acts as (default: per-agent).

        Shared-account services (Google+ moments in the paper's setup)
        override this to hand every agent the same account.
        """
        return self._accounts.create_account(agent)

    @abc.abstractmethod
    def session_routes(self, agent_host: str) -> SessionRoutes:
        """Where an agent's requests go: endpoint host + API paths."""

    # -- Shared helpers for subclasses ------------------------------------

    @staticmethod
    def _list_body(newest_first: Sequence[str],
                   request: ApiRequest) -> dict[str, Any]:
        """A list response: the page of ``newest_first`` that the
        request's ``cursor`` / ``limit`` parameters ask for."""
        page = paginate(newest_first, request.param("cursor"),
                        request.param("limit", DEFAULT_PAGE_SIZE))
        return {"messages": list(page.items),
                "next_cursor": page.next_cursor}

    @staticmethod
    def _page_need(request: ApiRequest) -> int | None:
        """How many of the newest ids :meth:`_list_body` reads for
        ``request`` (:func:`~repro.webapi.pagination.newest_needed`;
        None: all of them)."""
        return newest_needed(request.param("cursor"),
                             request.param("limit", DEFAULT_PAGE_SIZE))

    def _serve_host(self, routes: SessionRoutes, region: Region,
                    on_post: RouteHandler, on_get: RouteHandler,
                    rng: RandomSource | None = None) -> SessionRoutes:
        """Serve one API host and return the routes a session uses.

        Places ``routes.api_host`` in ``region``, routes ``POST
        post_path`` to ``on_post`` and then ``GET fetch_path`` to
        ``on_get`` with the params' ``write_processing_median`` /
        ``read_processing_median``, and attaches the host's endpoint
        behind the service's rate limiter.  ``rng`` (default: the
        service RNG's ``endpoint.<api_host>`` child) draws the
        processing delays.
        """
        api_host = routes.api_host
        params = self._params
        self._place(api_host, region)
        router = Router()
        router.add("POST", routes.post_path, on_post,
                   processing_delay_median=params.write_processing_median)
        router.add("GET", routes.fetch_path, on_get,
                   processing_delay_median=params.read_processing_median)
        self._endpoints[api_host] = ServiceEndpoint(
            self._sim, self._network, api_host,
            accounts=self._accounts,
            rate_limiter=self._rate_limiter,
            rng=(rng if rng is not None
                 else self._rng.child(f"endpoint.{api_host}")),
            router=router,
        )
        return routes

    @staticmethod
    def _reply(ack: Future,
               shape: Callable[[Any], Mapping[str, Any]]) -> Future:
        """The reply to a substrate's future ack: a future settled with
        ``shape`` of its value, or with its failure or the
        :class:`ServiceError` ``shape`` raises (a malformed ``limit``),
        which the endpoint answers as it would a handler's."""
        reply: Future = Future("reply")

        def on_ack(done: Future) -> None:
            if done.failed:
                reply.fail(done.exception)
                return
            try:
                body = shape(done.value)
            except ServiceError as exc:
                reply.fail(exc)
                return
            reply.resolve(body)

        ack.add_callback(on_ack)
        return reply

    def _place(self, host: str, region: Region) -> None:
        """Place a service host, registering the region if needed."""
        self._topology.add_region(region)
        self._topology.place_host(host, region)

    def _region_name_of(self, host: str) -> str:
        return self._topology.region_of(host).name

    @staticmethod
    def _require(mapping: dict[str, Any], key: str, what: str) -> Any:
        try:
            return mapping[key]
        except KeyError:
            raise ConfigurationError(f"no {what} for {key!r}") from None

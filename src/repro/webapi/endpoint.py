"""Service endpoints: routing, auth, rate limiting, processing delay.

A :class:`ServiceEndpoint` is one API host of a service.  It attaches
itself to the simulated network as an RPC handler and, for every
incoming :class:`~repro.webapi.http.ApiRequest`:

1. authenticates the bearer token,
2. applies the per-token rate limit,
3. resolves the route on its :class:`~repro.webapi.router.Router` and
   dispatches the handler after a sampled *processing delay*
   (server-side work: persistence, replication waits, ranking), and
4. maps :class:`~repro.errors.ServiceError` to its HTTP representation
   — and any other exception a handler raises, or its future fails
   with, to a 500 carrying the error text — instead of letting it
   crash the exchange or escape into the event loop.

Steps 1–3 run on every request.  What is a pure function of the route
is not re-derived on every request: the handler, the effective delay
median and sigma (route override, else the endpoint default),
``log(median)``, the delay stream ``processing.{host}.{path}`` and the
reply future's label are resolved at the concrete ``(method, path)``'s
*first* request and looked up afterwards — so a path's stream appears
in the endpoint's ``rng`` with its first request, never at
construction, and never for a path whose delay is not sampled
(``median <= 0`` or no ``rng``).  Each request still takes one draw
on its path's stream, in arrival order.  The ``rng`` and the default
delay parameters are fixed at construction; the router is not — a
route registered while the endpoint is serving is dispatched with its
own parameters from its first request on.

Routes are declared on a :class:`~repro.webapi.router.Router` passed at
construction (the declarative surface every service and the campaign
service share).

Route handlers receive ``(request, account)`` and return either a body
mapping (wrapped into 200) or a :class:`~repro.sim.future.Future` of
one, for operations that finish later (e.g. a strongly-consistent write
waiting for backup acks).  For parameterized routes the bound path
parameters are merged into the request's params (path wins on
collision), so handlers read them with ``request.param("hunt_id")``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Mapping

from repro.errors import InvalidRequestError, ServiceError
from repro.net.network import Network
from repro.sim.event_loop import Simulator
from repro.sim.future import Future
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account, AccountRegistry
from repro.webapi.http import ApiRequest, ApiResponse, error_response, ok
from repro.webapi.ratelimit import SlidingWindowRateLimiter
from repro.webapi.router import Router, RouteSpec

__all__ = ["ServiceEndpoint", "EndpointStats"]

#: Route handlers return a body mapping or a Future resolving to one.
RouteHandler = Callable[[ApiRequest, Account], "Mapping[str, Any] | Future"]

#: What a request needs of its route, resolved once per concrete
#: ``(method, path)``: the route it was resolved from, the effective
#: delay median, the draw of one sampled delay (None: the delay is the
#: median itself) and the reply future's label.
_Dispatch = tuple[RouteSpec, float, "Callable[[], float] | None", str]


class EndpointStats:
    """Served-traffic counters for one endpoint host.

    Real API operators watch exactly these: request volume per route
    and the status-class mix (2xx/4xx/5xx), with 429s broken out since
    rate limiting shaped the paper's entire test cadence.

    Conservation law: every RPC the endpoint receives is one request
    and is answered exactly once, so once the event heap has drained
    ``requests_total == sum(responses_by_status.values())`` — whether
    the reply then reached the client or was lost on the way back.  A
    payload that is not an :class:`~repro.webapi.http.ApiRequest` has
    no method or path; it is counted under the route ``("?", "?")``.
    """

    def __init__(self) -> None:
        self.requests_total = 0
        #: (method, path) -> request count.
        self.requests_by_route: dict[tuple[str, str], int] = {}
        #: HTTP status -> response count.
        self.responses_by_status: dict[int, int] = {}

    @property
    def rate_limited(self) -> int:
        return self.responses_by_status.get(429, 0)

    def _record_request(self, method: str, path: str) -> None:
        self.requests_total += 1
        key = (method, path)
        self.requests_by_route[key] = (
            self.requests_by_route.get(key, 0) + 1
        )

    def _record_response(self, status: int) -> None:
        self.responses_by_status[status] = (
            self.responses_by_status.get(status, 0) + 1
        )


class ServiceEndpoint:
    """One API host of a simulated service."""

    def __init__(self, sim: Simulator, network: Network, host: str,
                 accounts: AccountRegistry,
                 rate_limiter: SlidingWindowRateLimiter | None = None,
                 rng: RandomSource | None = None,
                 processing_delay_median: float = 0.05,
                 processing_delay_sigma: float = 0.3,
                 router: Router | None = None) -> None:
        self._sim = sim
        self._network = network
        self.host = host
        self._accounts = accounts
        self._rate_limiter = rate_limiter
        self._rng = rng
        self._processing_delay_median = processing_delay_median
        self._processing_delay_sigma = processing_delay_sigma
        self._router = router if router is not None else Router()
        #: (method, concrete path) -> that path's :data:`_Dispatch`;
        #: like its ``rng``'s streams, one entry per path ever served.
        self._dispatch: dict[tuple[str, str], _Dispatch] = {}
        #: Served-traffic counters (requests, status mix, 429s).
        self.stats = EndpointStats()
        network.attach(host, rpc_handler=self._handle_rpc)

    @property
    def router(self) -> Router:
        """The route table this endpoint dispatches on."""
        return self._router

    # -- Request pipeline --------------------------------------------------

    def _handle_rpc(self, payload: Any, src: str) -> Any:
        if isinstance(payload, ApiRequest):
            self.stats._record_request(payload.method, payload.path)
            try:
                return self._process(payload)
            except ServiceError as exc:
                response = error_response(exc)
        else:
            self.stats._record_request("?", "?")
            response = ApiResponse(
                status=400, body={"error": "expected an ApiRequest"}
            )
        self.stats._record_response(response.status)
        return response

    def _process(self, request: ApiRequest) -> Future:
        account = self._accounts.authenticate(request.token)
        if self._rate_limiter is not None:
            self._rate_limiter.check(account.token)
        method, path = request.method, request.path
        match = self._router.resolve(method, path)
        if match is None:
            raise InvalidRequestError(f"no route for {method} {path}")
        dispatch = self._dispatch.get((method, path))
        if dispatch is None or dispatch[0] is not match.route:
            dispatch = self._dispatch[method, path] = (
                self._resolve_dispatch(match.route, method, path))
        route, median, draw, label = dispatch
        if match.path_params:
            # Path parameters join the query/body params (path wins),
            # so handlers read them uniformly via request.param().
            request = replace(request, params={
                **request.params, **match.path_params,
            })
        reply = Future(label)
        delay = median if draw is None else draw()
        if delay <= 0.0:
            self._run_deferred(reply, route.handler, request, account)
        else:
            self._sim.schedule_after(
                delay, self._run_deferred, reply, route.handler, request,
                account
            )
        return reply

    def _resolve_dispatch(self, route: RouteSpec, method: str,
                          path: str) -> "_Dispatch":
        """What every request for ``method path`` needs of its route."""
        median = (route.processing_delay_median
                  if route.processing_delay_median is not None
                  else self._processing_delay_median)
        sigma = (route.processing_delay_sigma
                 if route.processing_delay_sigma is not None
                 else self._processing_delay_sigma)
        draw = None
        if self._rng is not None and median > 0:
            # ``rng.lognormal(name, median, sigma)``, resolved once: the
            # path's own stream, one draw per request.
            stream = self._rng.stream(f"processing.{self.host}.{path}")
            draw = partial(stream.lognormvariate, math.log(median), sigma)
        return route, median, draw, f"{method} {path}"

    def _run_deferred(self, reply: Future, handler: RouteHandler,
                      request: ApiRequest, account: Account) -> None:
        """Run the handler — once the processing delay has passed, or
        at once when there is none — and answer with its outcome."""
        try:
            result = handler(request, account)
        except Exception as exc:  # noqa: BLE001 - answered, never raised
            self._settle(reply, _failure_response(exc))
            return
        if isinstance(result, Future):
            result.add_callback(partial(self._settle_from, reply))
        else:
            self._settle(reply, ok(result))

    def _settle_from(self, reply: Future, inner: Future) -> None:
        self._settle(reply, _failure_response(inner.exception)
                     if inner.failed else ok(inner.value))

    def _settle(self, reply: Future, response: ApiResponse) -> None:
        self.stats._record_response(response.status)
        reply.resolve(response)


def _failure_response(exc: BaseException) -> ApiResponse:
    """A :class:`ServiceError` as its HTTP status, anything else as 500."""
    if isinstance(exc, ServiceError):
        return error_response(exc)
    return ApiResponse(status=500, body={"error": str(exc)})

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
   instead of letting it crash the exchange.

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

from dataclasses import replace
from typing import Any, Callable, Mapping

from repro.errors import InvalidRequestError, ServiceError
from repro.net.network import Network
from repro.sim.event_loop import Simulator
from repro.sim.future import Future
from repro.sim.random_source import RandomSource
from repro.webapi.auth import Account, AccountRegistry
from repro.webapi.http import ApiRequest, ApiResponse, error_response, ok
from repro.webapi.ratelimit import SlidingWindowRateLimiter
from repro.webapi.router import Router

__all__ = ["ServiceEndpoint", "EndpointStats"]

#: Route handlers return a body mapping or a Future resolving to one.
RouteHandler = Callable[[ApiRequest, Account], "Mapping[str, Any] | Future"]


class EndpointStats:
    """Served-traffic counters for one endpoint host.

    Real API operators watch exactly these: request volume per route
    and the status-class mix (2xx/4xx/5xx), with 429s broken out since
    rate limiting shaped the paper's entire test cadence.
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

    def success_fraction(self) -> float:
        total = sum(self.responses_by_status.values())
        if total == 0:
            return 1.0
        ok = sum(count for status, count
                 in self.responses_by_status.items()
                 if 200 <= status < 300)
        return ok / total

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
        #: Served-traffic counters (requests, status mix, 429s).
        self.stats = EndpointStats()
        network.attach(host, rpc_handler=self._handle_rpc)

    @property
    def router(self) -> Router:
        """The route table this endpoint dispatches on."""
        return self._router

    # -- Request pipeline --------------------------------------------------

    def _handle_rpc(self, payload: Any, src: str) -> Any:
        if not isinstance(payload, ApiRequest):
            response = ApiResponse(
                status=400, body={"error": "expected an ApiRequest"}
            )
            self.stats._record_response(response.status)
            return response
        self.stats._record_request(payload.method, payload.path)
        try:
            result = self._process(payload)
        except ServiceError as exc:
            result = error_response(exc)
        return self._count_response(result)

    def _count_response(self, result: "ApiResponse | Future"):
        """Record the final status, whether immediate or deferred."""
        if isinstance(result, Future):
            result.add_callback(
                lambda f: self.stats._record_response(
                    f.value.status if not f.failed
                    and isinstance(f.value, ApiResponse) else 500
                )
            )
        elif isinstance(result, ApiResponse):
            self.stats._record_response(result.status)
        return result

    def _process(self, request: ApiRequest) -> "ApiResponse | Future":
        account = self._accounts.authenticate(request.token)
        if self._rate_limiter is not None:
            self._rate_limiter.check(account.token)
        match = self._router.resolve(request.method, request.path)
        if match is None:
            raise InvalidRequestError(
                f"no route for {request.method} {request.path}"
            )
        spec = match.route
        handler = spec.handler
        delay_median = (spec.processing_delay_median
                        if spec.processing_delay_median is not None
                        else self._processing_delay_median)
        delay_sigma = (spec.processing_delay_sigma
                       if spec.processing_delay_sigma is not None
                       else self._processing_delay_sigma)
        if match.path_params:
            # Path parameters join the query/body params (path wins),
            # so handlers read them uniformly via request.param().
            request = replace(request, params={
                **request.params, **match.path_params,
            })
        delay = self._sample_processing_delay(request.path, delay_median,
                                              delay_sigma)
        if delay <= 0.0:
            return self._invoke(handler, request, account)
        deferred: Future = Future(name=f"{request.method} {request.path}")
        self._sim.schedule_after(
            delay, self._run_deferred, deferred, handler, request, account
        )
        return deferred

    def _run_deferred(self, deferred: Future, handler: RouteHandler,
                      request: ApiRequest, account: Account) -> None:
        try:
            result = self._invoke(handler, request, account)
        except ServiceError as exc:
            deferred.resolve(error_response(exc))
            return
        if isinstance(result, Future):
            result.add_callback(
                lambda inner: deferred.resolve(
                    error_response(inner.exception)
                    if inner.failed and
                    isinstance(inner.exception, ServiceError)
                    else inner.value if not inner.failed
                    else ApiResponse(status=500,
                                     body={"error": str(inner.exception)})
                )
            )
        else:
            deferred.resolve(result)

    def _invoke(self, handler: RouteHandler, request: ApiRequest,
                account: Account) -> "ApiResponse | Future":
        result = handler(request, account)
        if isinstance(result, Future):
            wrapped: Future = Future(name="wrapped-handler")
            result.add_callback(
                lambda inner: wrapped.resolve(
                    error_response(inner.exception)
                    if inner.failed and
                    isinstance(inner.exception, ServiceError)
                    else ok(inner.value) if not inner.failed
                    else ApiResponse(status=500,
                                     body={"error": str(inner.exception)})
                )
            )
            return wrapped
        return ok(result)

    def _sample_processing_delay(self, path: str, median: float,
                                 sigma: float) -> float:
        if self._rng is None or median <= 0:
            return median
        return self._rng.lognormal(
            f"processing.{self.host}.{path}", median=median, sigma=sigma
        )

"""The API client agents use to talk to a service endpoint.

A thin wrapper over :meth:`repro.net.network.Network.rpc` that speaks
:class:`~repro.webapi.http.ApiRequest` / ``ApiResponse``, carries the
bearer token, and counts requests — the counts feed the campaign totals
the paper reports (total reads/writes per service, §V).

Accounting contract: ``requests_sent`` (and the
``api.requests_total`` counter) increments exactly once per **wire
request** — a 429-retried operation counts once per attempt, never
once per operation and never twice per attempt.  The agent's span
layer records the same attempts on its operation spans, so campaign
totals derived from counters and from spans must agree (asserted by
the retry-accounting regression test).

Counter handles are resolved once per client — ``api.requests_total``
per method, ``api.responses_total`` per status label — and a status's
series appears with the first response that carries it, exactly where
a per-response registry lookup would have created it.  ``Network.obs``
is read at construction and fixed from then on, and so is its
registry's clock, which times each request's latency.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.net.network import DEFAULT_RPC_TIMEOUT, Network
from repro.sim.future import Future
from repro.webapi.http import ApiRequest, ApiResponse

__all__ = ["ApiClient"]


class ApiClient:
    """A client bound to (agent host, service host, bearer token)."""

    def __init__(self, network: Network, client_host: str,
                 service_host: str, token: str,
                 timeout: float = DEFAULT_RPC_TIMEOUT,
                 service: str = "") -> None:
        self._network = network
        self.client_host = client_host
        self.service_host = service_host
        self.service = service
        self._token = token
        self._timeout = timeout
        self.requests_sent = 0
        self._obs = network.obs
        self._request_counters: dict[str, Any] = {}
        #: status label -> its ``api.responses_total`` counter,
        #: resolved at the first response with that status.
        self._response_counters: dict[str, Any] = {}
        self._latency = None
        if self._obs is not None:
            labels = {"service": service or "unknown",
                      "host": service_host}
            self._labels = labels
            #: The registry's clock, bound once.
            self._now = self._obs.metrics.now
            self._request_counters = {
                method: self._obs.metrics.counter(
                    "api.requests_total", method=method, **labels
                )
                for method in ("GET", "POST")
            }
            self._latency = self._obs.metrics.histogram(
                "api.request_seconds", **labels
            )

    def get(self, path: str,
            params: Mapping[str, Any] | None = None) -> Future:
        """Issue a GET; resolves to an :class:`ApiResponse`."""
        return self._request("GET", path, params)

    def post(self, path: str,
             params: Mapping[str, Any] | None = None) -> Future:
        """Issue a POST; resolves to an :class:`ApiResponse`."""
        return self._request("POST", path, params)

    def _request(self, method: str, path: str,
                 params: Mapping[str, Any] | None) -> Future:
        self.requests_sent += 1
        request = ApiRequest(
            method=method, path=path, params=dict(params or {}),
            token=self._token,
        )
        reply = self._network.rpc(
            self.client_host, self.service_host, request,
            timeout=self._timeout,
        )
        if self._obs is not None:
            self._count_request(method, reply)
        return reply

    def _count_request(self, method: str, reply: Future) -> None:
        counter = self._request_counters.get(method)
        if counter is None:
            counter = self._obs.metrics.counter(
                "api.requests_total", method=method, **self._labels
            )
            self._request_counters[method] = counter
        counter.inc()
        now = self._now
        started = now()

        def on_done(future: Future) -> None:
            finished = now()
            self._latency.observe(finished - started, at=finished)
            if future.failed:
                status = "unreachable"
            else:
                response = future.value
                status = (str(response.status)
                          if isinstance(response, ApiResponse)
                          else "invalid")
            counter = self._response_counters.get(status)
            if counter is None:
                counter = self._response_counters[status] = (
                    self._obs.metrics.counter(
                        "api.responses_total", status=status,
                        **self._labels))
            counter.inc(at=finished)

        reply.add_callback(on_done)

"""The serving shell: in-process transport and the stdlib HTTP front.

:class:`HuntServer` bundles a :class:`~repro.serve.service.
CampaignService`, an account registry, and the :class:`~repro.serve.
httpapi.HuntApi` dispatcher into one object with two faces:

* ``server.handle(method, path, params=..., token=...)`` — the
  in-process transport.  Byte-for-byte the same dispatch as HTTP
  (same router, same auth, same pagination), minus the socket; this
  is what tests and the parity gate drive.
* :func:`serve_http` — a real ``http.server`` front end translating
  HTTP requests into :class:`~repro.webapi.http.ApiRequest` values
  (query string + JSON body -> params, ``Authorization: Bearer`` ->
  token) and a background worker loop that runs scheduling passes
  while the listener serves.

This module is the one place in the serving stack that touches wall
clock and sockets; the one DET002 line waiver in :mod:`repro.serve`
sits at its rate limiter.  Nothing below :meth:`HuntServer.handle`
depends on either.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterator, Mapping
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ReproError
from repro.obs.events import ObsEvent
from repro.serve.httpapi import HuntApi
from repro.serve.service import CampaignService
from repro.webapi.auth import Account, AccountRegistry
from repro.webapi.http import ApiRequest, ApiResponse
from repro.webapi.ratelimit import RateLimit, SlidingWindowRateLimiter

__all__ = ["HuntServer", "serve_http", "follow_events"]

#: The service-registry realm hunt-API tokens are minted under.
SERVICE_REALM = "repro-serve"


class HuntServer:
    """The campaign service plus its API surface, ready to drive."""

    def __init__(self, root: str, *,
                 workers: int = 1,
                 rate_limit: RateLimit | None = None,
                 on_event: Callable[[ObsEvent], None] | None = None
                 ) -> None:
        self.service = CampaignService(root, workers=workers,
                                       on_event=on_event)
        self.accounts = AccountRegistry(SERVICE_REALM)
        limiter = None
        if rate_limit is not None:
            # Waived: host-side HTTP rate limiting uses the host clock
            # — this is the serving shell, not a simulation.
            limiter = SlidingWindowRateLimiter(
                rate_limit, now_fn=time.monotonic,  # repro-lint: disable=DET002
            )
        self.api = HuntApi(self.service, self.accounts,
                           rate_limiter=limiter)

    def issue_token(self, user_id: str = "operator") -> str:
        """Mint (or fetch) the bearer token for ``user_id``."""
        return self.accounts.create_account(user_id).token

    def handle(self, method: str, path: str,
               params: Mapping[str, Any] | None = None,
               token: str | None = None) -> ApiResponse:
        """The in-process transport (see :mod:`repro.api`)."""
        return self.api.dispatch(ApiRequest(
            method=method, path=path, params=dict(params or {}),
            token=token,
        ))

    def run_pending(self, **kwargs: Any):
        """One scheduling pass (see :meth:`CampaignService.run_pending`)."""
        return self.service.run_pending(**kwargs)


def follow_events(server: HuntServer, hunt_id: str, token: str,
                  after: int = -1,
                  poll: Callable[[], None] | None = None
                  ) -> Iterator[dict[str, Any]]:
    """Drain a hunt's event feed in follow-mode, via the API.

    Yields event records in seq order until the feed reports ``done``
    (hunt terminal, feed drained).  ``poll`` runs between empty pages
    — the hook where a caller drives scheduling passes or sleeps.
    """
    while True:
        response = server.handle(
            "GET", f"/v1/hunts/{hunt_id}/events",
            params={"after": after}, token=token,
        ).raise_for_status()
        for record in response.body["events"]:
            yield record
        after = response.body["last_seq"]
        if response.body["done"]:
            return
        if not response.body["events"] and poll is not None:
            poll()


# -- Stdlib HTTP front end ----------------------------------------------


def _make_handler(server: HuntServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format: str, *args: Any) -> None:
            pass  # quiet; telemetry flows through on_event

        def _token(self) -> str | None:
            header = self.headers.get("Authorization", "")
            if header.startswith("Bearer "):
                return header[len("Bearer "):]
            return None

        def _params_from_query(self) -> dict[str, Any]:
            query = urlsplit(self.path).query
            return dict(parse_qsl(query))

        def _reply(self, response: ApiResponse) -> None:
            payload = json.dumps(dict(response.body)).encode("utf-8")
            self.send_response(response.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            path = urlsplit(self.path).path
            self._reply(server.handle(
                "GET", path, params=self._params_from_query(),
                token=self._token(),
            ))

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            path = urlsplit(self.path).path
            params = self._params_from_query()
            try:
                length = int(self.headers.get("Content-Length", 0))
                if length < 0:
                    raise ValueError("negative Content-Length")
                body = json.loads(self.rfile.read(length)) if length \
                    else {}
                if not isinstance(body, dict):
                    raise ValueError("not a JSON object")
            except ValueError:
                # The body's extent is unknown or its content unusable:
                # answer, then drop the connection rather than parse
                # whatever follows as a request.
                self.close_connection = True
                self._reply(ApiResponse(
                    status=400,
                    body={"error": "request body is not a JSON object"},
                ))
                return
            params.update(body)
            self._reply(server.handle(
                "POST", path, params=params, token=self._token(),
            ))

    return Handler


def serve_http(server: HuntServer, host: str = "127.0.0.1",
               port: int = 8321, *,
               poll_interval: float = 0.5,
               ready: threading.Event | None = None) -> None:
    """Serve the hunt API over HTTP until interrupted.

    A worker thread loops scheduling passes (``run_pending`` then a
    ``poll_interval`` sleep) while the listener thread answers API
    requests — submissions made over HTTP are picked up by the next
    pass.  A pass that fails on a damaged hunt store prints
    ``serve: <error>`` to stderr and the loop keeps polling, so a
    repaired store is picked up.  Blocks the calling thread; Ctrl-C
    shuts both down.
    """
    httpd = ThreadingHTTPServer((host, port), _make_handler(server))
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            try:
                server.run_pending()
            except ReproError as exc:
                print(f"serve: {exc}", file=sys.stderr)
            stop.wait(poll_interval)

    worker = threading.Thread(target=work, name="hunt-worker",
                              daemon=True)
    worker.start()
    if ready is not None:
        ready.set()
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        httpd.shutdown()
        httpd.server_close()
        worker.join(timeout=5.0)

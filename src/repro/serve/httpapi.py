"""The hunt API: HTTP-shaped routes over the campaign service.

One :class:`HuntApi` is the complete versioned surface, declared as a
:class:`~repro.webapi.router.Resource` on the shared
:class:`~repro.webapi.router.Router` and dispatched through the same
auth / rate-limit / pagination primitives the five simulated services
use — the redesign's whole point is that there is exactly one web API
stack in this repository::

    POST /v1/hunts                      submit (repro.api.SubmitHuntRequest)
    GET  /v1/hunts                      list hunts (cursor-paginated)
    GET  /v1/hunts/{hunt_id}            lifecycle status
    POST /v1/hunts/{hunt_id}/pause      park remaining shards
    POST /v1/hunts/{hunt_id}/resume     re-queue a paused hunt
    POST /v1/hunts/{hunt_id}/cancel     abandon remaining shards
    GET  /v1/hunts/{hunt_id}/results    test records (cursor-paginated)
    GET  /v1/hunts/{hunt_id}/obs        merged obs snapshot of the
                                        completed shards (spec order)
    GET  /v1/hunts/{hunt_id}/events     JSONL event feed (seq cursor;
                                        follow-mode = poll ``after``)
    GET  /v1/hunts/{hunt_id}/artifacts  browse the artifact store
    GET  /v1/hunts/{hunt_id}/artifact   one artifact's content
                                        (``name=`` query param)

Requests and responses are the plain
:class:`~repro.webapi.http.ApiRequest` / ``ApiResponse`` pair, so the
in-process transport and the stdlib HTTP shell share this dispatcher
unchanged; :mod:`repro.api` types the four routes a program embeds.

Every request ends in exactly one recorded response
(``stats.requests_total == sum(stats.responses_by_status.values())``):
parameters are parsed at this boundary, so a malformed one is a 400,
and a damaged hunt store is a 500 naming the damage — never an
exception out of :meth:`HuntApi.dispatch`.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice
from typing import Any

from repro.errors import (
    ConfigurationError,
    FleetError,
    InvalidRequestError,
    NotFoundError,
    ServiceError,
)
from repro.serve.hunt import HuntSpec, int_field
from repro.serve.service import CampaignService
from repro.webapi.auth import Account, AccountRegistry
from repro.webapi.endpoint import EndpointStats
from repro.webapi.http import (
    ApiRequest,
    ApiResponse,
    error_response,
    ok,
)
from repro.webapi.pagination import (
    DEFAULT_PAGE_SIZE,
    Page,
    page_limit,
    paginate,
)
from repro.webapi.ratelimit import SlidingWindowRateLimiter
from repro.webapi.router import Router, RouteSpec

__all__ = ["HuntApi", "API_VERSION"]

API_VERSION = "v1"

#: Events returned per feed page (the follow-mode poll quantum).
EVENTS_PAGE_SIZE = 100


def _page(request: ApiRequest, keys: list[str]) -> Page:
    """The page of ``keys`` the request's ``cursor`` / ``limit`` ask for."""
    return paginate(
        keys, cursor=request.param("cursor"),
        limit=int_field(request.params, "limit", DEFAULT_PAGE_SIZE),
    )


class HuntApi:
    """Versioned hunt routes + the shared request pipeline.

    The class itself is the :class:`~repro.webapi.router.Resource`:
    :meth:`routes` declares every route once, and the constructor
    mounts them under ``/v1`` on a shared :class:`Router`.
    """

    def __init__(self, service: CampaignService,
                 accounts: AccountRegistry,
                 rate_limiter: SlidingWindowRateLimiter | None = None
                 ) -> None:
        self._service = service
        self._accounts = accounts
        self._rate_limiter = rate_limiter
        self.stats = EndpointStats()
        self.router = Router(prefix=f"/{API_VERSION}")
        self.router.add_resource(self)

    def routes(self) -> tuple[RouteSpec, ...]:
        return (
            RouteSpec("POST", "/hunts", self._submit,
                      name="hunts.submit"),
            RouteSpec("GET", "/hunts", self._list,
                      name="hunts.list"),
            RouteSpec("GET", "/hunts/{hunt_id}", self._status,
                      name="hunts.status"),
            RouteSpec("POST", "/hunts/{hunt_id}/pause", self._pause,
                      name="hunts.pause"),
            RouteSpec("POST", "/hunts/{hunt_id}/resume", self._resume,
                      name="hunts.resume"),
            RouteSpec("POST", "/hunts/{hunt_id}/cancel", self._cancel,
                      name="hunts.cancel"),
            RouteSpec("GET", "/hunts/{hunt_id}/results",
                      self._results, name="hunts.results"),
            RouteSpec("GET", "/hunts/{hunt_id}/obs", self._obs,
                      name="hunts.obs"),
            RouteSpec("GET", "/hunts/{hunt_id}/events", self._events,
                      name="hunts.events"),
            RouteSpec("GET", "/hunts/{hunt_id}/artifacts",
                      self._artifacts, name="hunts.artifacts"),
            RouteSpec("GET", "/hunts/{hunt_id}/artifact",
                      self._artifact, name="hunts.artifact"),
        )

    # -- Dispatch --------------------------------------------------------

    def dispatch(self, request: ApiRequest) -> ApiResponse:
        """Authenticate, rate-limit, route, and invoke — one call."""
        self.stats._record_request(request.method, request.path)
        try:
            account = self._accounts.authenticate(request.token)
            if self._rate_limiter is not None:
                self._rate_limiter.check(account.token)
            match = self.router.resolve(request.method, request.path)
            if match is None:
                raise NotFoundError(
                    f"no route for {request.method} {request.path}"
                )
            if match.path_params:
                request = replace(request, params={
                    **request.params, **match.path_params,
                })
            response = ok(match.route.handler(request, account))
        except ServiceError as exc:
            response = error_response(exc)
        except FleetError as exc:
            # A damaged hunt.json or a torn events.jsonl.
            response = ApiResponse(
                status=500, body={"error": f"FleetError: {exc}"})
        self.stats._record_response(response.status)
        return response

    # -- Handlers --------------------------------------------------------

    def _submit(self, request: ApiRequest,
                account: Account) -> dict[str, Any]:
        try:
            spec = HuntSpec.from_dict(request.params)
            state = self._service.submit(spec, owner=account.user_id)
        except ConfigurationError as exc:
            # Well-typed, but names an unknown service or test type
            # (or too few tests): still the sender's mistake.
            raise InvalidRequestError(str(exc)) from None
        return {"hunt_id": state.hunt_id, "status": state.status,
                "shards_total": state.shards_total}

    def _list(self, request: ApiRequest,
              account: Account) -> dict[str, Any]:
        states = self._service.hunts()
        page = _page(request, [state.hunt_id for state in states])
        by_id = {state.hunt_id: state for state in states}
        return {
            "hunts": [by_id[hunt_id].status_body()
                      for hunt_id in page.items],
            "next_cursor": page.next_cursor,
        }

    def _status(self, request: ApiRequest,
                account: Account) -> dict[str, Any]:
        return self._service.hunt(
            request.require_param("hunt_id")
        ).status_body()

    def _pause(self, request: ApiRequest,
               account: Account) -> dict[str, Any]:
        return self._service.pause(
            request.require_param("hunt_id")
        ).status_body()

    def _resume(self, request: ApiRequest,
                account: Account) -> dict[str, Any]:
        return self._service.resume(
            request.require_param("hunt_id")
        ).status_body()

    def _cancel(self, request: ApiRequest,
                account: Account) -> dict[str, Any]:
        return self._service.cancel(
            request.require_param("hunt_id")
        ).status_body()

    def _results(self, request: ApiRequest,
                 account: Account) -> dict[str, Any]:
        hunt_id = request.require_param("hunt_id")
        items = self._service.hunt_result_items(hunt_id)
        by_key = {item["key"]: item for item in items}
        page = _page(request, [item["key"] for item in items])
        return {"items": [by_key[key] for key in page.items],
                "next_cursor": page.next_cursor}

    def _obs(self, request: ApiRequest,
             account: Account) -> dict[str, Any]:
        return self._service.hunt_obs(
            request.require_param("hunt_id")
        )

    def _events(self, request: ApiRequest,
                account: Account) -> dict[str, Any]:
        """One page of the hunt's JSONL event feed.

        ``after`` is the last ``seq`` the caller has seen (-1 for the
        start); follow-mode is polling this endpoint with the returned
        ``last_seq``.  ``done`` tells the poller the feed will grow no
        further: it was closed before this empty page was read.
        """
        hunt_id = request.require_param("hunt_id")
        after = int_field(request.params, "after", -1)
        limit = page_limit(
            int_field(request.params, "limit", EVENTS_PAGE_SIZE))
        closed = self._service.feed_closed(hunt_id)
        events = list(islice(self._service.events(hunt_id, after=after),
                             limit))
        last_seq = events[-1]["seq"] if events else after
        return {"events": events, "last_seq": last_seq,
                "done": closed and not events}

    def _artifacts(self, request: ApiRequest,
                   account: Account) -> dict[str, Any]:
        hunt_id = request.require_param("hunt_id")
        page = _page(request, self._service.artifact_names(hunt_id))
        return {"artifacts": list(page.items),
                "next_cursor": page.next_cursor}

    def _artifact(self, request: ApiRequest,
                  account: Account) -> dict[str, Any]:
        hunt_id = request.require_param("hunt_id")
        name = request.require_param("name")
        content = self._service.artifact_bytes(hunt_id, name)
        return {"name": name,
                "content": content.decode("utf-8")}

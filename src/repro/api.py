"""Typed request/response pairs for embedding the campaign service.

The four hunt routes a program (rather than an operator) drives —
submit, poll status, page results, fetch the merged obs snapshot — as
frozen dataclasses over the same wire fields the HTTP layer
(:mod:`repro.serve.httpapi`) serves; the other seven ``/v1`` routes
have no typed mirror and are called as plain paths
(``docs/serve.md`` lists each route's dependant):

* :class:`SubmitHuntRequest` ``->`` ``POST /v1/hunts``
* :class:`HuntStatusRequest` ``->`` ``GET /v1/hunts/{hunt_id}``
* :class:`HuntResultsRequest` ``->`` ``GET /v1/hunts/{hunt_id}/results``
* :class:`HuntObsRequest` ``->`` ``GET /v1/hunts/{hunt_id}/obs``

The convenience functions (:func:`submit_hunt`, :func:`hunt_status`,
:func:`hunt_results`, :func:`hunt_obs`) run a request against any
*transport*: a callable ``(method, path, params, token) ->
ApiResponse``.  The in-process :class:`~repro.serve.server.HuntServer`
is such a transport; so is an HTTP client adapter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.serve.hunt import STATUS_FIELDS, HuntSpec, HuntState
from repro.webapi.http import ApiResponse

__all__ = [
    "SubmitHuntRequest",
    "SubmitHuntResponse",
    "HuntStatusRequest",
    "HuntStatusResponse",
    "HuntResultsRequest",
    "HuntResultsResponse",
    "HuntObsRequest",
    "HuntObsResponse",
    "submit_hunt",
    "hunt_status",
    "hunt_results",
    "hunt_obs",
    "hunt_status_body",
]

#: Any way of getting an ApiRequest-shaped call answered.
Transport = Callable[..., ApiResponse]


#: A :class:`HuntState` as its HTTP status-response body.
hunt_status_body = HuntState.status_body


@dataclass(frozen=True)
class SubmitHuntRequest:
    """Submit a new hunt.  Fields mirror ``POST /v1/hunts`` params."""

    services: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    num_tests: int = 100
    test_types: tuple[str, ...] = ("test1", "test2")
    #: Stream shards: per-test window verdicts land in the hunt's
    #: event feed as each test closes (results stay byte-identical).
    stream: bool = False

    def to_hunt_spec(self) -> HuntSpec:
        return HuntSpec(services=self.services, seeds=self.seeds,
                        num_tests=self.num_tests,
                        test_types=self.test_types,
                        stream=self.stream)

    def to_params(self) -> dict[str, Any]:
        return self.to_hunt_spec().to_dict()


@dataclass(frozen=True)
class SubmitHuntResponse:
    hunt_id: str
    status: str
    shards_total: int

    @classmethod
    def from_body(cls, body: Mapping[str, Any]) -> "SubmitHuntResponse":
        return cls(hunt_id=body["hunt_id"], status=body["status"],
                   shards_total=body["shards_total"])


@dataclass(frozen=True)
class HuntStatusRequest:
    """Fetch one hunt's lifecycle state: ``GET /v1/hunts/{hunt_id}``."""

    hunt_id: str


@dataclass(frozen=True)
class HuntStatusResponse:
    hunt_id: str
    status: str
    shards_total: int
    shards_done: int
    retries: int
    fleet_signature: str | None
    error: str | None

    @classmethod
    def from_body(cls, body: Mapping[str, Any]) -> "HuntStatusResponse":
        return cls(**{key: body[key] for key in STATUS_FIELDS})


@dataclass(frozen=True)
class HuntResultsRequest:
    """Page through a hunt's test records:
    ``GET /v1/hunts/{hunt_id}/results``."""

    hunt_id: str
    cursor: str | None = None
    limit: int = 25

    def to_params(self) -> dict[str, Any]:
        params: dict[str, Any] = {"limit": self.limit}
        if self.cursor is not None:
            params["cursor"] = self.cursor
        return params


@dataclass(frozen=True)
class HuntResultsResponse:
    """One page of result items plus the next-page cursor.

    Each item is ``{"key", "shard_id", "record"}`` where ``record`` is
    the canonical JSON-safe test-record encoding of :mod:`repro.io` —
    the same bytes the artifact store holds.
    """

    items: tuple[Mapping[str, Any], ...]
    next_cursor: str | None

    @property
    def is_last(self) -> bool:
        return self.next_cursor is None

    @classmethod
    def from_body(cls, body: Mapping[str, Any]) -> "HuntResultsResponse":
        return cls(items=tuple(body["items"]),
                   next_cursor=body.get("next_cursor"))


@dataclass(frozen=True)
class HuntObsRequest:
    """Fetch a hunt's merged obs snapshot:
    ``GET /v1/hunts/{hunt_id}/obs``."""

    hunt_id: str


@dataclass(frozen=True)
class HuntObsResponse:
    """The merged telemetry of a hunt's completed shards.

    ``snapshot`` is the :func:`repro.obs.merge_obs_snapshots` merge in
    spec shard order — byte-identical to running
    ``repro-consistency obs`` over the hunt's artifact directory.
    ``shards`` lists what was merged; ``missing`` lists completed
    shards whose obs export was absent or damaged (telemetry
    degrades, it never fails the query).
    """

    hunt_id: str
    shards: tuple[str, ...]
    missing: tuple[str, ...]
    snapshot: Mapping[str, Any]

    @classmethod
    def from_body(cls, body: Mapping[str, Any]) -> "HuntObsResponse":
        return cls(hunt_id=body["hunt_id"],
                   shards=tuple(body["shards"]),
                   missing=tuple(body["missing"]),
                   snapshot=body["snapshot"])


# -- Transport-generic helpers ------------------------------------------


def submit_hunt(transport: Transport, request: SubmitHuntRequest,
                token: str | None = None) -> SubmitHuntResponse:
    response = transport("POST", "/v1/hunts",
                         params=request.to_params(), token=token)
    return SubmitHuntResponse.from_body(
        response.raise_for_status().body
    )


def hunt_status(transport: Transport, request: HuntStatusRequest,
                token: str | None = None) -> HuntStatusResponse:
    response = transport("GET", f"/v1/hunts/{request.hunt_id}",
                         token=token)
    return HuntStatusResponse.from_body(
        response.raise_for_status().body
    )


def hunt_results(transport: Transport, request: HuntResultsRequest,
                 token: str | None = None) -> HuntResultsResponse:
    response = transport(
        "GET", f"/v1/hunts/{request.hunt_id}/results",
        params=request.to_params(), token=token,
    )
    return HuntResultsResponse.from_body(
        response.raise_for_status().body
    )


def hunt_obs(transport: Transport, request: HuntObsRequest,
             token: str | None = None) -> HuntObsResponse:
    response = transport("GET", f"/v1/hunts/{request.hunt_id}/obs",
                         token=token)
    return HuntObsResponse.from_body(
        response.raise_for_status().body
    )

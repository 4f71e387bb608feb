"""The hunt model: long-running campaign jobs of the serving layer.

A *hunt* is one fleet campaign submitted to the campaign service: a
GRR-style collection job that fans a :class:`~repro.fleet.spec.
FleetSpec` out over the service's worker pool and collects the shard
artifacts as they land.  The model splits cleanly in two:

* :class:`HuntSpec` — *what to run*.  Deliberately restricted to
  JSON-safe scalars that mirror the public
  :class:`repro.api.SubmitHuntRequest` one-to-one, so a hunt persisted
  to disk, one travelling over HTTP, and one built in-process are the
  same value.  :meth:`HuntSpec.fleet_spec` lowers it into the exact
  :class:`~repro.fleet.spec.FleetSpec` a direct ``run_fleet`` call
  would build — the root of the byte-identical parity contract.
* :class:`HuntState` — *where it got to*.  The persisted lifecycle
  record: status, shard progress, retry count, and (once done) the
  merged golden signature.

Lifecycle::

    queued ──> running ──> done
      │          │  ^
      │          v  │
      └──────> paused        (pause parks remaining shards; resume
    any ────> cancelled       re-queues them; completed shards are
    running ─> failed         never re-run — checkpoint/resume)

Transitions are validated by :func:`check_transition`; everything the
scheduler does to a hunt goes through :meth:`HuntState.advance`, so an
illegal hop (e.g. resuming a cancelled hunt) fails loudly at the API
boundary instead of corrupting the store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.errors import ConfigurationError, InvalidRequestError
from repro.fleet.spec import FleetSpec
from repro.methodology.config import CampaignConfig

__all__ = [
    "HuntSpec",
    "HuntState",
    "HUNT_STATUSES",
    "TERMINAL_STATUSES",
    "STATUS_FIELDS",
    "check_transition",
    "int_field",
]

#: Every status a hunt can be in, in lifecycle order.
HUNT_STATUSES = ("queued", "running", "paused", "done", "cancelled",
                 "failed")

#: Statuses a hunt never leaves.
TERMINAL_STATUSES = frozenset({"done", "cancelled", "failed"})

#: The wire fields of one hunt's status, in response order.
STATUS_FIELDS = ("hunt_id", "status", "shards_total", "shards_done",
                 "retries", "fleet_signature", "error")

#: status -> statuses it may advance to.
_TRANSITIONS: dict[str, frozenset[str]] = {
    "queued": frozenset({"running", "paused", "cancelled"}),
    "running": frozenset({"paused", "done", "cancelled", "failed"}),
    "paused": frozenset({"queued", "running", "cancelled"}),
    "done": frozenset(),
    "cancelled": frozenset(),
    "failed": frozenset(),
}


def check_transition(current: str, target: str) -> None:
    """Raise unless ``current -> target`` is a legal lifecycle hop."""
    if target not in _TRANSITIONS.get(current, frozenset()):
        raise InvalidRequestError(
            f"illegal hunt transition {current!r} -> {target!r}"
        )


def int_field(data: Mapping[str, Any], name: str, default: int) -> int:
    """An integer request field (a query string delivers it as text)."""
    value = data.get(name, default)
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvalidRequestError(
        f"{name!r} must be an integer, got {value!r}")


def _tuple_field(data: Mapping[str, Any], name: str, kind: type,
                 default: tuple) -> tuple:
    value = data.get(name, default)
    if not isinstance(value, (list, tuple)) or \
            not all(type(item) is kind for item in value):
        raise InvalidRequestError(
            f"{name!r} must be a list of {kind.__name__} values")
    return tuple(value)


@dataclass(frozen=True)
class HuntSpec:
    """What one hunt runs: a JSON-safe fleet matrix description.

    The fields mirror :class:`repro.api.SubmitHuntRequest` exactly;
    anything richer (scenario objects, service-parameter grids) stays
    out of the serving surface on purpose — the service rebuilds the
    :class:`~repro.fleet.spec.FleetSpec` deterministically from these
    scalars, which is what keeps a hunt's artifact store bindable to
    the same ``spec_hash`` a direct fleet run produces.
    """

    services: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    num_tests: int = 100
    test_types: tuple[str, ...] = ("test1", "test2")
    #: Emit a per-test event (anomalies + divergence-window verdicts)
    #: into the hunt's event feed as each test closes.  Reporting
    #: only: the fleet spec, artifact store, and merged signature are
    #: byte-identical either way.
    stream: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "services", tuple(self.services))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "test_types",
                           tuple(self.test_types))
        if not self.services:
            raise ConfigurationError("hunt needs at least one service")
        if self.num_tests < 1:
            raise ConfigurationError("num_tests must be >= 1")

    def fleet_spec(self) -> FleetSpec:
        """The exact spec a direct ``run_fleet`` call would use."""
        return FleetSpec(
            services=self.services,
            base_config=CampaignConfig(
                num_tests=self.num_tests,
                test_types=self.test_types,
            ),
            seeds=self.seeds,
        )

    @property
    def total_shards(self) -> int:
        return self.fleet_spec().total_shards

    def to_dict(self) -> dict[str, Any]:
        return {
            "services": list(self.services),
            "seeds": list(self.seeds),
            "num_tests": self.num_tests,
            "test_types": list(self.test_types),
            "stream": self.stream,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HuntSpec":
        """Parse request parameters or a stored spec.

        A value of the wrong type is the sender's mistake
        (:class:`~repro.errors.InvalidRequestError`, HTTP 400); what
        the values *mean* — an unknown service or test type — is
        checked when the spec is lowered (``ConfigurationError``).
        """
        if "services" not in data:
            raise InvalidRequestError("hunt spec needs a 'services' list")
        stream = data.get("stream", False)
        if isinstance(stream, str):  # a query string's spelling
            stream = {"true": True, "false": False}.get(stream.lower())
        if not isinstance(stream, bool):
            raise InvalidRequestError("'stream' must be true or false")
        return cls(
            services=_tuple_field(data, "services", str, ()),
            seeds=_tuple_field(data, "seeds", int, (0,)),
            num_tests=int_field(data, "num_tests", 100),
            test_types=_tuple_field(data, "test_types", str,
                                    ("test1", "test2")),
            stream=stream,
        )


@dataclass(frozen=True)
class HuntState:
    """One hunt's persisted lifecycle record."""

    hunt_id: str
    spec: HuntSpec
    status: str = "queued"
    #: Submission order across the service (the FIFO dispatch key).
    seq: int = 0
    shards_total: int = 0
    shards_done: int = 0
    #: Worker crash/timeout retries spent so far.
    retries: int = 0
    #: The merged golden signature, set when the hunt reaches "done".
    fleet_signature: str | None = None
    #: Failure detail, set when the hunt reaches "failed".
    error: str | None = None
    #: Owner token's user id (who submitted).
    owner: str = ""

    def __post_init__(self) -> None:
        if self.status not in HUNT_STATUSES:
            raise ConfigurationError(
                f"unknown hunt status {self.status!r}"
            )

    @property
    def is_terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def advance(self, target: str, **changes: Any) -> "HuntState":
        """A copy in ``target`` status (legal transitions only)."""
        check_transition(self.status, target)
        return replace(self, status=target, **changes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "hunt_id": self.hunt_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "seq": self.seq,
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "retries": self.retries,
            "fleet_signature": self.fleet_signature,
            "error": self.error,
            "owner": self.owner,
        }

    def status_body(self) -> dict[str, Any]:
        """The wire fields of this hunt's status (the shape shared by
        :class:`repro.api.HuntStatusResponse` and every status-bearing
        HTTP response)."""
        full = self.to_dict()
        return {key: full[key] for key in STATUS_FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HuntState":
        return cls(
            hunt_id=data["hunt_id"],
            spec=HuntSpec.from_dict(data["spec"]),
            status=data["status"],
            seq=int(data.get("seq", 0)),
            shards_total=int(data.get("shards_total", 0)),
            shards_done=int(data.get("shards_done", 0)),
            retries=int(data.get("retries", 0)),
            fleet_signature=data.get("fleet_signature"),
            error=data.get("error"),
            owner=data.get("owner", ""),
        )

"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError`,
so callers can catch a single base class at an API boundary.  The
sub-hierarchy mirrors the package layout: simulation-kernel failures,
network failures, service-level (web API) failures, and configuration
mistakes each have their own branch.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "ProcessError",
    "FutureError",
    "NetworkError",
    "HostUnreachableError",
    "ServiceError",
    "RateLimitExceededError",
    "AuthenticationError",
    "InvalidRequestError",
    "NotFoundError",
    "ConfigurationError",
    "AnalysisError",
    "FleetError",
    "CalibrationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class DeadlockError(SimulationError):
    """The simulation was asked to advance but no events are pending.

    Raised by :meth:`repro.sim.Simulator.run_until` when the event heap
    drains before the requested time is reached and ``strict`` is set,
    which almost always indicates a process waiting on a future that can
    never be resolved.
    """


class ProcessError(SimulationError):
    """A simulated process failed or was misused.

    The original exception raised inside the process generator, if any,
    is attached as ``__cause__``.
    """


class FutureError(SimulationError):
    """A future was resolved twice or awaited after failing."""


class NetworkError(ReproError):
    """Base class for errors in the simulated wide-area network."""


class HostUnreachableError(NetworkError):
    """A message was sent to a host that is not attached to the network."""


class ServiceError(ReproError):
    """Base class for errors surfaced by the simulated service APIs.

    These model application-level HTTP failures (4xx/5xx) rather than
    transport failures; see :class:`NetworkError` for the latter.
    """

    #: HTTP-like status code associated with the failure.
    status_code = 500


class RateLimitExceededError(ServiceError):
    """The client exceeded the service's request rate limit (HTTP 429)."""

    status_code = 429

    def __init__(self, message: str = "rate limit exceeded",
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        #: Seconds the client should wait before retrying, when the
        #: service communicates one (mirrors the ``Retry-After`` header).
        self.retry_after = retry_after


class AuthenticationError(ServiceError):
    """The request carried a missing or invalid access token (HTTP 401)."""

    status_code = 401


class InvalidRequestError(ServiceError):
    """The request was malformed or referenced an unknown object (HTTP 400)."""

    status_code = 400


class NotFoundError(ServiceError):
    """The request referenced an object that does not exist (HTTP 404).

    Distinct from :class:`InvalidRequestError` because the request
    itself is well-formed.
    """

    status_code = 404


class ConfigurationError(ReproError):
    """A configuration object failed validation."""


class AnalysisError(ReproError):
    """The analysis pipeline was fed inconsistent or incomplete data."""


class FleetError(ReproError):
    """A fleet campaign execution failed.

    Raised by :mod:`repro.fleet` when a shard exhausts its retry
    budget, a shard's campaign raises (worker failures are determin-
    istic, so retrying an in-campaign exception cannot succeed), or an
    artifact store belongs to a different :class:`~repro.fleet.spec.
    FleetSpec` than the one being executed.
    """


class CalibrationError(ReproError):
    """A calibration search was misused.

    Raised by :mod:`repro.calibrate` for invalid parameter spaces
    (unknown dotted paths, paths naming a nested table, values of the
    wrong type, empty axes) and objectives with no targets to fit.  A
    rung store bound to a different search fails as the fleet store
    it is, with :class:`FleetError`.
    """

"""Minimal HTTP-like request/response types for the service façades.

The paper probes services strictly through their public web APIs, so
our simulated services expose the same shape: requests with a method,
path, query/body parameters, and a bearer token; responses with a
status code and a JSON-like body.  Keeping this layer explicit (rather
than calling replica methods directly) preserves the black-box property
of the methodology — agents see only what a real API client would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ServiceError

__all__ = ["ApiRequest", "ApiResponse", "ok", "error_response"]


@dataclass(slots=True)
class ApiRequest:
    """One API call as it travels over the simulated network."""

    method: str
    path: str
    params: Mapping[str, Any] = field(default_factory=dict)
    token: str | None = None

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST", "DELETE"):
            raise ServiceError(f"unsupported method {self.method!r}")

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def require_param(self, name: str) -> Any:
        try:
            return self.params[name]
        except KeyError:
            raise _missing_param(name) from None


def _missing_param(name: str) -> ServiceError:
    from repro.errors import InvalidRequestError

    return InvalidRequestError(f"missing required parameter {name!r}")


@dataclass(slots=True)
class ApiResponse:
    """A status code plus JSON-like body."""

    status: int
    body: Mapping[str, Any] = field(default_factory=dict)

    @property
    def is_success(self) -> bool:
        return 200 <= self.status < 300

    def raise_for_status(self) -> "ApiResponse":
        """Raise the matching :class:`ServiceError` on non-2xx."""
        if self.is_success:
            return self
        from repro.errors import (
            AuthenticationError,
            InvalidRequestError,
            NotFoundError,
            RateLimitExceededError,
        )

        message = str(self.body.get("error", f"HTTP {self.status}"))
        if self.status == 401:
            raise AuthenticationError(message)
        if self.status == 404:
            raise NotFoundError(message)
        if self.status == 429:
            raise RateLimitExceededError(
                message, retry_after=self.body.get("retry_after")
            )
        if self.status == 400:
            raise InvalidRequestError(message)
        raise ServiceError(message)


def ok(body: Mapping[str, Any] | None = None) -> ApiResponse:
    """A 200 response."""
    return ApiResponse(200, body or {})


def error_response(exc: ServiceError) -> ApiResponse:
    """Convert a :class:`ServiceError` into its HTTP representation."""
    body: dict[str, Any] = {"error": str(exc)}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        body["retry_after"] = retry_after
    return ApiResponse(status=exc.status_code, body=body)

"""Server-side request rate limiting.

Every service the paper measured imposes API rate limits, and those
limits shaped the methodology: the 300 ms read period, Test 2's switch
to a 1 s period after the initial burst, and the forced cool-down
between successive tests all exist "due to rate limits" (§V).  The
simulated services therefore enforce limits server-side with a classic
sliding window per token, returning HTTP 429 with a ``retry_after``
hint when exceeded — and the agent configurations in
:mod:`repro.methodology.config` are chosen to stay just inside them,
exactly as the paper's were.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, RateLimitExceededError

__all__ = ["RateLimit", "SlidingWindowRateLimiter"]


@dataclass(frozen=True)
class RateLimit:
    """Allow at most ``max_requests`` per ``window`` seconds per token."""

    max_requests: int
    window: float

    def __post_init__(self) -> None:
        if self.max_requests < 1:
            raise ConfigurationError("max_requests must be >= 1")
        if self.window <= 0:
            raise ConfigurationError("window must be positive")


class SlidingWindowRateLimiter:
    """Tracks request timestamps per token and enforces a RateLimit."""

    def __init__(self, limit: RateLimit,
                 now_fn: Callable[[], float]) -> None:
        self._limit = limit
        self._now_fn = now_fn
        self._history: dict[str, deque[float]] = {}

    def check(self, token: str) -> None:
        """Record one request; raise 429 if the token is over limit."""
        now = self._now_fn()
        history = self._history.get(token)
        if history is None:
            history = self._history[token] = deque()
        cutoff = now - self._limit.window
        while history and history[0] <= cutoff:
            history.popleft()
        if len(history) >= self._limit.max_requests:
            retry_after = history[0] + self._limit.window - now
            raise RateLimitExceededError(
                f"rate limit of {self._limit.max_requests} requests per "
                f"{self._limit.window:g}s exceeded",
                retry_after=max(retry_after, 0.0),
            )
        history.append(now)

    def remaining(self, token: str) -> int:
        """Requests the token may still issue in the current window."""
        now = self._now_fn()
        history = self._history.get(token, deque())
        cutoff = now - self._limit.window
        live = sum(1 for t in history if t > cutoff)
        return max(self._limit.max_requests - live, 0)

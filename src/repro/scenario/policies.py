"""Client-side resilience policies (the scenario DSL's second
archetype).

Real clients of weakly consistent services rarely issue naked
requests: SDKs retry throttled calls with exponential backoff, trip
circuit breakers after repeated failures, and attach idempotency keys
so a retried write is applied at most once.  Each of those policies
*changes what the probe observes* — a retried read lands later (and
may see more), a broken circuit drops operations a naked client would
have issued, an idempotency key collapses duplicate writes — so the
paper's anomaly rates are a function of the client policy as much as
of the service.

:class:`ResilientSession` wraps any
:class:`~repro.services.base.ServiceSession`-shaped object (the same
duck type the masking layer wraps) and applies a declarative
:class:`PolicySpec`:

* **Retry with backoff** — failed operations are retried up to
  ``retry_attempts`` times.  Rate-limit rejections honour the
  service's ``retry_after`` hint; other retryable failures (5xx,
  unreachable hosts) wait ``backoff_base * backoff_factor**attempt``
  seconds, capped at ``backoff_max``.
* **Circuit breaker** — after ``breaker_threshold`` consecutive
  failures the session fails fast with :class:`CircuitOpenError` for
  ``breaker_cooldown`` seconds, then lets one probe operation through
  (half-open): a success closes the circuit, another failure re-opens
  it immediately.
* **Idempotency keys** — writes carry a per-message idempotency key,
  so a service that deduplicates on it applies a retried write at most
  once and replays the original response.

All delays run on the simulated clock, so a campaign with policies
stays a pure function of (seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    ConfigurationError,
    HostUnreachableError,
    NetworkError,
    RateLimitExceededError,
    ServiceError,
)
from repro.sim.future import Future

__all__ = [
    "PolicySpec",
    "CircuitOpenError",
    "ResilientSession",
    "apply_policy",
]


class CircuitOpenError(ServiceError):
    """The client's circuit breaker is open; the call was not sent."""

    status_code = 503


@dataclass(frozen=True)
class PolicySpec:
    """Declarative client resilience policy for one scenario."""

    #: Retries after the first attempt (0 = no retries).
    retry_attempts: int = 0
    #: First retry delay in seconds; grows by ``backoff_factor`` per
    #: attempt, capped at ``backoff_max``.
    backoff_base: float = 0.2
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    #: Consecutive failures that trip the breaker (0 = disabled).
    breaker_threshold: int = 0
    #: Seconds the breaker stays open before the half-open probe.
    breaker_cooldown: float = 10.0
    #: Attach idempotency keys to writes.
    idempotency_keys: bool = False

    def __post_init__(self) -> None:
        if self.retry_attempts < 0:
            raise ConfigurationError(
                "policy.retry_attempts must be >= 0"
            )
        if self.backoff_base <= 0:
            raise ConfigurationError(
                "policy.backoff_base must be positive"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                "policy.backoff_factor must be >= 1"
            )
        if self.backoff_max < self.backoff_base:
            raise ConfigurationError(
                "policy.backoff_max must be >= policy.backoff_base"
            )
        if self.breaker_threshold < 0:
            raise ConfigurationError(
                "policy.breaker_threshold must be >= 0"
            )
        if self.breaker_cooldown <= 0:
            raise ConfigurationError(
                "policy.breaker_cooldown must be positive"
            )


class ResilientSession:
    """A resilience-policy wrapper around a service session.

    Mirrors the session surface the agents program against
    (``post_message`` / ``fetch_messages``); everything else is
    delegated to the wrapped session.
    """

    def __init__(self, session, sim, spec: PolicySpec) -> None:
        self._session = session
        self._sim = sim
        self._spec = spec
        self._consecutive_failures = 0
        self._open_until = float("-inf")
        #: Telemetry counters (retries attempted, calls failed fast).
        self.retries = 0
        self.fast_failures = 0

    def __getattr__(self, name):
        return getattr(self._session, name)

    # -- Session surface --------------------------------------------------

    def post_message(self, message_id: str) -> Future:
        if self._spec.idempotency_keys:
            extra = {"idempotency_key": f"idem-{message_id}"}

            def attempt() -> Future:
                return self._session.post_message(message_id,
                                                  extra=extra)
        else:
            def attempt() -> Future:
                return self._session.post_message(message_id)
        return self._execute(attempt, f"policy.post.{message_id}")

    def fetch_messages(self) -> Future:
        return self._execute(self._session.fetch_messages,
                             "policy.fetch")

    # -- Policy machinery -------------------------------------------------

    def _execute(self, attempt_fn: Callable[[], Future],
                 name: str) -> Future:
        result: Future = Future(name=name)
        self._attempt(result, attempt_fn, 0)
        return result

    def _attempt(self, result: Future,
                 attempt_fn: Callable[[], Future],
                 attempt: int) -> None:
        if self._sim.now < self._open_until:
            self.fast_failures += 1
            result.fail(CircuitOpenError(
                "circuit breaker open; call not sent"
            ))
            return
        raw = attempt_fn()

        def on_done(future: Future) -> None:
            if not future.failed:
                self._consecutive_failures = 0
                result.resolve(future.value)
                return
            exc = future.exception
            self._record_failure()
            if (attempt < self._spec.retry_attempts
                    and self._retryable(exc)):
                self.retries += 1
                self._sim.schedule_after(
                    self._backoff_delay(exc, attempt),
                    self._attempt, result, attempt_fn, attempt + 1,
                )
            else:
                result.fail(exc)

        raw.add_callback(on_done)

    def _record_failure(self) -> None:
        threshold = self._spec.breaker_threshold
        if threshold == 0:
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= threshold:
            self._open_until = (self._sim.now
                                + self._spec.breaker_cooldown)
            # Leave the counter one short of the threshold: the
            # half-open probe's failure re-trips immediately, while a
            # success resets to zero.
            self._consecutive_failures = threshold - 1

    @staticmethod
    def _retryable(exc: BaseException) -> bool:
        if isinstance(exc, CircuitOpenError):
            return False
        if isinstance(exc, RateLimitExceededError):
            return True
        if isinstance(exc, ServiceError):
            return exc.status_code >= 500
        return isinstance(exc, (HostUnreachableError, NetworkError))

    def _backoff_delay(self, exc: BaseException,
                       attempt: int) -> float:
        if isinstance(exc, RateLimitExceededError) and \
                exc.retry_after is not None:
            return exc.retry_after
        return min(
            self._spec.backoff_base
            * self._spec.backoff_factor ** attempt,
            self._spec.backoff_max,
        )


def apply_policy(world, spec: PolicySpec) -> list[ResilientSession]:
    """Wrap every agent session of ``world`` in the policy layer.

    The policy wrapper goes directly around the raw session, so a
    campaign that also enables masking stacks masking *on top* of the
    resilient session (retries happen below the guarantee cache, as
    they would in a real SDK).
    """
    wrapped = []
    for agent in world.agents:
        session = ResilientSession(agent.session, world.sim, spec)
        agent.session = session
        wrapped.append(session)
    return wrapped

"""Futures: single-assignment result cells for the simulation kernel.

A :class:`Future` is how simulated components hand results across time.
A process that issues a web-API request immediately receives a future;
the network resolves it when the (simulated) response arrives, at which
point every process waiting on it is rescheduled.

Futures here are deliberately much simpler than :mod:`asyncio`'s — there
is no cancellation token, no executor, and callbacks run synchronously
at resolution time (which is always inside the simulator's event loop,
so "synchronously" still means "at one well-defined virtual instant").
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import FutureError

__all__ = ["Future", "AllOf", "AnyOf", "Quorum"]


_PENDING = "pending"
_RESOLVED = "resolved"
_FAILED = "failed"


class Future:
    """A single-assignment container resolved at some virtual time.

    Parameters
    ----------
    name:
        Optional label shown in ``repr`` and deadlock diagnostics.
    """

    __slots__ = ("_state", "_value", "_exception", "_callbacks", "name")

    def __init__(self, name: str = "") -> None:
        self._state = _PENDING
        self._value: Any = None
        self._exception: BaseException | None = None
        #: Allocated by the first ``add_callback`` on a pending future;
        #: most futures are awaited by one process or by nobody.
        self._callbacks: list[Callable[["Future"], None]] | None = None
        self.name = name

    # -- State inspection ----------------------------------------------

    @property
    def done(self) -> bool:
        """True once the future is resolved or failed."""
        return self._state != _PENDING

    @property
    def failed(self) -> bool:
        """True if the future completed with an exception."""
        return self._state == _FAILED

    @property
    def value(self) -> Any:
        """The result; raises if the future failed or is still pending."""
        if self._state == _PENDING:
            raise FutureError(f"future {self.name!r} is still pending")
        if self._state == _FAILED:
            assert self._exception is not None
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or None."""
        return self._exception

    # -- Completion ------------------------------------------------------

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        if self._state != _PENDING:
            raise FutureError(f"future {self.name!r} resolved twice")
        self._state = _RESOLVED
        self._value = value
        if self._callbacks is not None:
            self._fire_callbacks()

    def fail(self, exception: BaseException) -> None:
        """Complete the future with an exception."""
        if self._state != _PENDING:
            raise FutureError(f"future {self.name!r} resolved twice")
        self._state = _FAILED
        self._exception = exception
        if self._callbacks is not None:
            self._fire_callbacks()

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` when done (immediately if already done)."""
        if self._state != _PENDING:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def _fire_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<Future{label} {self._state}>"


class AllOf(Future):
    """A future that resolves when *all* component futures are done.

    Resolves with the list of component values in input order.  If any
    component fails, this future fails with the first failure.
    """

    __slots__ = ("_pending_count", "_components")

    def __init__(self, futures: Iterable[Future],
                 name: str = "all-of") -> None:
        super().__init__(name=name)
        self._components = list(futures)
        self._pending_count = len(self._components)
        if self._pending_count == 0:
            self.resolve([])
            return
        for future in self._components:
            future.add_callback(self._on_component_done)

    def _on_component_done(self, future: Future) -> None:
        if self.done:
            return
        if future.failed:
            assert future.exception is not None
            self.fail(future.exception)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.resolve([f.value for f in self._components])


class AnyOf(Future):
    """A future that resolves when *any* component future resolves.

    Resolves with ``(index, value)`` of the first component done.  Fails
    only if every component fails (with the last failure).
    """

    __slots__ = ("_failure_count", "_components")

    def __init__(self, futures: Iterable[Future],
                 name: str = "any-of") -> None:
        super().__init__(name=name)
        self._components = list(futures)
        self._failure_count = 0
        if not self._components:
            raise FutureError("AnyOf requires at least one future")
        for index, future in enumerate(self._components):
            future.add_callback(
                lambda done, index=index: self._on_component_done(index, done)
            )

    def _on_component_done(self, index: int, future: Future) -> None:
        if self.done:
            return
        if future.failed:
            self._failure_count += 1
            if self._failure_count == len(self._components):
                assert future.exception is not None
                self.fail(future.exception)
            return
        self.resolve((index, future.value))


class Quorum(Future):
    """A future that resolves when *k* of the components resolve.

    Resolves with the list of the first ``k`` successful values, in
    completion order.  Fails only when so many components have failed
    that ``k`` successes are no longer possible.  The building block
    of quorum-replicated operations: ``Quorum(acks, k=w)`` is a write
    that returns after W replica acknowledgements.
    """

    __slots__ = ("_needed", "_values", "_failures", "_total")

    def __init__(self, futures: Iterable[Future], k: int,
                 name: str = "quorum") -> None:
        super().__init__(name=name)
        components = list(futures)
        if k < 1:
            raise FutureError("quorum size k must be >= 1")
        if k > len(components):
            raise FutureError(
                f"quorum of {k} impossible with "
                f"{len(components)} components"
            )
        self._needed = k
        self._total = len(components)
        self._values: list[Any] = []
        self._failures = 0
        for future in components:
            future.add_callback(self._on_component_done)

    def _on_component_done(self, future: Future) -> None:
        if self.done:
            return
        if future.failed:
            self._failures += 1
            if self._total - self._failures < self._needed:
                assert future.exception is not None
                self.fail(future.exception)
            return
        self._values.append(future.value)
        if len(self._values) == self._needed:
            self.resolve(list(self._values))

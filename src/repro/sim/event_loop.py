"""The discrete-event simulation kernel.

:class:`Simulator` owns a virtual clock and a priority queue of pending
events.  Everything else in the library — network message delivery,
replication lag, agent read loops, rate-limit windows — is expressed as
callbacks scheduled on this queue.  Time only advances when the kernel
pops an event, so a simulated 30-day measurement campaign executes in
however long the callbacks themselves take.

The contract, in one place:

* A pending event is one heap entry ``(time, seq, callback, args)``;
  ``seq`` counts scheduling calls, so events due at the same virtual
  time fire in FIFO order of scheduling and a run is deterministic for
  a fixed seed.
* Every event enters through :meth:`Simulator.schedule_at`
  (``schedule_after`` delegates to it), which returns nothing.  An
  event cannot be cancelled and costs no handle object: a callback
  that may have become moot checks its own state when it fires (the
  network's RPC deadlines keep one armed event per timeout value).
* ``step``, ``run`` and ``run_until`` are one drain loop under
  different bounds; ``next_event_time`` reads the heap's head.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable

from repro.errors import DeadlockError, SimulationError

__all__ = ["Simulator"]


class Simulator:
    """A deterministic discrete-event simulator with a virtual clock.

    The clock is the plain attribute :attr:`now`, written only by the
    drain loop (to each event's time as it fires) and by
    :meth:`run_until` (to its target); everything else reads it.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule_after(1.5, fired.append, "hello")
    >>> sim.run()
    >>> sim.now, fired
    (1.5, ['hello'])
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current virtual time in seconds (the simulation ground
        #: truth).  A plain attribute, so a read costs no call frame;
        #: only the drain loop and :meth:`run_until` write it.
        self.now = float(start_time)
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._scheduled = 0
        self._running = False

    # -- Clock -----------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far, the one firing now
        included: every scheduled entry is pending or was popped."""
        return self._scheduled - len(self._heap)

    @property
    def pending_events(self) -> int:
        """Number of queued events."""
        return len(self._heap)

    # -- Scheduling --------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute virtual ``time``.

        Scheduling in the past is an error: discrete-event simulations
        that silently clamp past events hide causality bugs.  (``not >=``
        so that NaN, which would break the heap order silently, fails
        the same check.)
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f}, "
                f"before current time t={self.now:.6f}"
            )
        self._scheduled = seq = self._scheduled + 1
        heappush(self._heap, (time, seq, callback, args))

    def schedule_after(self, delay: float, callback: Callable[..., None],
                       *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if not delay >= 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.schedule_at(self.now + delay, callback, *args)

    # -- Execution --------------------------------------------------------

    def _drain(self, until: float, budget: float) -> float:
        """Fire events due by ``until``, at most ``budget``; return the rest."""
        heap, pop = self._heap, heappop
        while heap:
            time, _, callback, args = heap[0]
            if time > until or not budget:
                return budget
            pop(heap)
            budget -= 1
            self.now = time
            callback(*args)
        return budget

    def step(self) -> bool:
        """Execute the next pending event; return False if none remain."""
        return not self._drain(inf, 1)

    def run(self, max_events: int | None = None) -> None:
        """Run until the event queue is empty (or ``max_events`` fire)."""
        self._guard_reentrancy()
        if max_events is not None and max_events < 0:
            raise SimulationError(f"negative event budget {max_events!r}")
        self._running = True
        try:
            self._drain(inf, inf if max_events is None else max_events)
        finally:
            self._running = False

    def run_until(self, time: float, strict: bool = False) -> None:
        """Advance virtual time to ``time``, executing due events.

        With ``strict=True``, raises :class:`DeadlockError` if the queue
        drains before ``time`` — useful when the caller knows activity
        should persist (e.g. a read loop that must still be running).
        """
        self._guard_reentrancy()
        if not time >= self.now:
            raise SimulationError(
                f"cannot run backwards to t={time:.6f} "
                f"from t={self.now:.6f}"
            )
        self._running = True
        try:
            self._drain(time, inf)
            if strict and not self._heap:
                raise DeadlockError(
                    f"event queue drained at t={self.now:.6f} "
                    f"before reaching t={time:.6f}"
                )
            self.now = max(self.now, time)
        finally:
            self._running = False

    def next_event_time(self) -> float | None:
        """Time of the earliest pending event, or ``None`` if idle.

        The public peek used by epoch-barrier drivers (the sharded
        world engine) to skip empty epochs: the next barrier is placed
        just past the earliest event across every shard's simulator
        instead of grinding through quiet quanta one by one.
        """
        return self._heap[0][0] if self._heap else None

    def _guard_reentrancy(self) -> None:
        if self._running:
            raise SimulationError(
                "re-entrant simulator execution: run()/run_until() called "
                "from inside an event callback"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self.now:.6f} pending={self.pending_events} "
                f"processed={self.events_processed}>")

"""Generator-based processes on top of the discrete-event kernel.

A *process* is a Python generator that expresses a simulated activity
(an agent's read loop, a replica's anti-entropy cycle, the coordinator's
test schedule) as straight-line code with ``yield`` points:

* ``yield seconds`` (a non-negative number) — sleep for that long.
* ``yield future`` — suspend until the :class:`~repro.sim.future.Future`
  resolves; the ``yield`` expression evaluates to the future's value,
  or re-raises the future's exception inside the generator so processes
  can use ordinary ``try/except``.
* ``yield other_process`` — suspend until the other process finishes;
  evaluates to its return value.

A process's own return value (via ``return`` in the generator) resolves
its :attr:`Process.completion` future, so processes compose.

The two yields that make up nearly every switch — a non-negative
``float`` / ``int`` delay and a plain ``Future`` — are recognised by
exact type and rescheduled inline; a ``Process``, a subclass, a
negative delay or anything else takes ``_dispatch``.  Either way the
resumption is an ordinary event through ``Simulator.schedule_at``.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def worker():
...     yield 2.0
...     return "done"
>>> proc = Process(sim, worker(), name="worker")
>>> sim.run()
>>> proc.completion.value
'done'
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import ProcessError, SimulationError
from repro.sim.event_loop import Simulator
from repro.sim.future import _PENDING, Future

__all__ = ["Process", "spawn"]

#: Type alias for the generator signature processes must follow.
ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """Drives a generator coroutine over a :class:`Simulator`.

    Parameters
    ----------
    sim:
        The simulator supplying virtual time.
    generator:
        The activity to run; see module docstring for yield protocol.
    name:
        Label used in error messages and diagnostics.
    start_delay:
        Virtual seconds to wait before the first step of the generator.
    """

    def __init__(self, sim: Simulator, generator: ProcessGenerator,
                 name: str = "process", start_delay: float = 0.0) -> None:
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"process {name!r} needs a generator, got "
                f"{type(generator).__name__} (did you forget to call "
                f"the generator function?)"
            )
        self._sim = sim
        self._generator = generator
        self.name = name
        #: Resolves with the generator's return value (or fails with the
        #: exception that escaped it).
        self.completion: Future = Future(name=f"{name}.completion")
        self._interrupted = False
        sim.schedule_after(start_delay, self._advance, None, None)

    # -- Public state ----------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the generator has not finished or failed."""
        return not self.completion.done

    def interrupt(self) -> None:
        """Stop the process at its next resumption point.

        The generator is closed (``GeneratorExit`` is raised at the
        current yield), and :attr:`completion` resolves to ``None``.
        Interrupting a finished process is a no-op.
        """
        if not self.alive:
            return
        self._interrupted = True
        self._generator.close()
        self.completion.resolve(None)

    # -- Driving the generator ---------------------------------------------

    def _advance(self, value: Any, exception: BaseException | None) -> None:
        """Resume the generator with ``value`` or throw ``exception``."""
        if self._interrupted or self.completion._state != _PENDING:
            return
        try:
            if exception is None:
                yielded = self._generator.send(value)
            else:
                yielded = self._generator.throw(exception)
        except StopIteration as stop:
            self.completion.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - reported via future
            failure = ProcessError(f"process {self.name!r} failed: {exc!r}")
            failure.__cause__ = exc
            self.completion.fail(failure)
            return
        kind = type(yielded)
        if kind is Future:
            yielded.add_callback(self._on_future_done)
        elif (kind is float or kind is int) and yielded >= 0:
            sim = self._sim
            sim.schedule_at(sim.now + yielded, self._advance, None, None)
        else:
            self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        """The rest of the yield protocol, and its two errors."""
        if isinstance(yielded, Process):
            yielded = yielded.completion
        if isinstance(yielded, Future):
            yielded.add_callback(self._on_future_done)
        elif not isinstance(yielded, (int, float)):
            self._advance(None, SimulationError(
                f"process {self.name!r} yielded unsupported value "
                f"{yielded!r}; expected a delay, Future, or Process"))
        elif not yielded >= 0:  # negative, or NaN
            self._advance(None, SimulationError(
                f"process {self.name!r} yielded negative "
                f"delay {yielded!r}"))
        else:
            self._sim.schedule_after(float(yielded), self._advance, None, None)

    def _on_future_done(self, future: Future) -> None:
        # A settled future holds (value, None) or (None, exception):
        # exactly the pair ``_advance`` takes.
        sim = self._sim
        sim.schedule_at(sim.now, self._advance, future._value,
                        future._exception)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "finished"
        return f"<Process {self.name!r} {state}>"


def spawn(sim: Simulator, generator_fn: Callable[..., ProcessGenerator],
          *args: Any, name: str | None = None,
          start_delay: float = 0.0, **kwargs: Any) -> Process:
    """Create and start a process from a generator function.

    ``spawn(sim, agent_loop, api, name="agent-1")`` reads better at call
    sites than constructing the generator by hand.
    """
    generator = generator_fn(*args, **kwargs)
    return Process(
        sim, generator,
        name=name or getattr(generator_fn, "__name__", "process"),
        start_delay=start_delay,
    )

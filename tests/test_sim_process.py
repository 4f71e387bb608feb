"""Unit tests for generator-based simulated processes."""

import pytest

from repro.errors import ProcessError, SimulationError
from repro.sim import Future, Process, Simulator, spawn


class TestBasicExecution:
    def test_process_sleeps_for_yielded_delay(self):
        sim = Simulator()
        timestamps = []

        def worker():
            timestamps.append(sim.now)
            yield 2.0
            timestamps.append(sim.now)
            yield 3.0
            timestamps.append(sim.now)

        spawn(sim, worker)
        sim.run()
        assert timestamps == [0.0, 2.0, 5.0]

    def test_return_value_resolves_completion(self):
        sim = Simulator()

        def worker():
            yield 1.0
            return "result"

        proc = spawn(sim, worker)
        sim.run()
        assert proc.completion.value == "result"
        assert not proc.alive

    def test_start_delay_defers_first_step(self):
        sim = Simulator()
        started_at = []

        def worker():
            started_at.append(sim.now)
            yield 0.0

        spawn(sim, worker, start_delay=4.0)
        sim.run()
        assert started_at == [4.0]

    def test_non_generator_raises(self):
        sim = Simulator()
        with pytest.raises(ProcessError, match="generator"):
            Process(sim, lambda: None, name="bad")  # type: ignore[arg-type]

    def test_spawn_passes_arguments(self):
        sim = Simulator()

        def worker(a, b, scale=1):
            yield 0.0
            return (a + b) * scale

        proc = spawn(sim, worker, 2, 3, scale=10)
        sim.run()
        assert proc.completion.value == 50


class TestFutureInteraction:
    def test_yielding_future_suspends_until_resolved(self):
        sim = Simulator()
        gate = Future()
        result = []

        def waiter():
            value = yield gate
            result.append((sim.now, value))

        spawn(sim, waiter)
        sim.schedule_after(5.0, gate.resolve, "opened")
        sim.run()
        assert result == [(5.0, "opened")]

    def test_failed_future_raises_inside_generator(self):
        sim = Simulator()
        gate = Future()
        caught = []

        def waiter():
            try:
                yield gate
            except RuntimeError as exc:
                caught.append(str(exc))

        spawn(sim, waiter)
        sim.schedule_after(1.0, gate.fail, RuntimeError("broken"))
        sim.run()
        assert caught == ["broken"]

    def test_yielding_already_done_future_continues_promptly(self):
        sim = Simulator()
        done = Future()
        done.resolve("ready")
        values = []

        def waiter():
            values.append((yield done))

        spawn(sim, waiter)
        sim.run()
        assert values == ["ready"]


class TestComposition:
    def test_yielding_process_waits_for_its_return(self):
        sim = Simulator()

        def child():
            yield 3.0
            return "child-result"

        def parent():
            value = yield spawn(sim, child)
            return (sim.now, value)

        proc = spawn(sim, parent)
        sim.run()
        assert proc.completion.value == (3.0, "child-result")


class TestFailureAndInterrupt:
    def test_exception_fails_completion_with_cause(self):
        sim = Simulator()

        def worker():
            yield 1.0
            raise ValueError("inner")

        proc = spawn(sim, worker)
        sim.run()
        assert proc.completion.failed
        exc = proc.completion.exception
        assert isinstance(exc, ProcessError)
        assert isinstance(exc.__cause__, ValueError)

    def test_yielding_garbage_fails_process(self):
        sim = Simulator()

        def worker():
            yield "not a delay"

        proc = spawn(sim, worker)
        sim.run()
        assert proc.completion.failed

    def test_negative_delay_fails_process(self):
        sim = Simulator()

        def worker():
            yield -1.0

        proc = spawn(sim, worker)
        sim.run()
        assert proc.completion.failed

    def test_nan_delay_fails_process_with_the_same_error(self):
        sim = Simulator()

        def worker():
            yield float("nan")

        proc = spawn(sim, worker)
        sim.run()
        assert proc.completion.failed
        assert isinstance(proc.completion.exception.__cause__,
                          SimulationError)
        assert sim.now == 0.0 and sim.pending_events == 0

    def test_interrupt_stops_process(self):
        sim = Simulator()
        steps = []

        def worker():
            while True:
                steps.append(sim.now)
                yield 1.0

        proc = spawn(sim, worker)
        sim.run_until(2.5)
        proc.interrupt()
        sim.run()
        assert not proc.alive
        assert proc.completion.value is None
        assert steps == [0.0, 1.0, 2.0]

    def test_interrupt_finished_process_is_noop(self):
        sim = Simulator()

        def worker():
            yield 0.0
            return "ok"

        proc = spawn(sim, worker)
        sim.run()
        proc.interrupt()
        assert proc.completion.value == "ok"

    def test_generator_cleanup_runs_on_interrupt(self):
        sim = Simulator()
        cleaned = []

        def worker():
            try:
                while True:
                    yield 1.0
            finally:
                cleaned.append(True)

        proc = spawn(sim, worker)
        sim.run_until(0.5)
        proc.interrupt()
        assert cleaned == [True]

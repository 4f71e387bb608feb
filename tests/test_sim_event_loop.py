"""Unit tests for the discrete-event simulator kernel."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import RandomSource, Simulator


class TestScheduling:
    def test_starts_at_configured_time(self):
        assert Simulator().now == 0.0
        assert Simulator(start_time=100.0).now == 100.0

    def test_schedule_after_fires_at_right_time(self):
        sim = Simulator()
        fired_at = []
        sim.schedule_after(2.5, lambda: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [2.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=10.0)
        fired_at = []
        sim.schedule_at(12.0, lambda: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [12.0]

    def test_callback_args_are_passed(self):
        sim = Simulator()
        seen = []
        sim.schedule_after(1.0, seen.append, "payload")
        sim.run()
        assert seen == ["payload"]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_after(3.0, order.append, "c")
        sim.schedule_after(1.0, order.append, "a")
        sim.schedule_after(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for label in ("first", "second", "third"):
            sim.schedule_after(1.0, order.append, label)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-0.1, lambda: None)

    def test_nan_time_is_rejected_at_every_entry_point(self):
        # Regression: ``nan < now`` is false, so a NaN entry used to be
        # pushed, break the heap order and set ``now`` to NaN.
        sim = Simulator(start_time=1.0)
        nan = float("nan")
        with pytest.raises(SimulationError):
            sim.schedule_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_after(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(nan)
        assert sim.pending_events == 0 and sim.now == 1.0

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        fired_at = []

        def chain(depth):
            fired_at.append(sim.now)
            if depth > 0:
                sim.schedule_after(1.0, chain, depth - 1)

        sim.schedule_after(1.0, chain, 2)
        sim.run()
        assert fired_at == [1.0, 2.0, 3.0]


class TestRunUntil:
    def test_advances_clock_even_with_no_events(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_does_not_execute_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_after(10.0, fired.append, "late")
        sim.schedule_after(1.0, fired.append, "early")
        sim.run_until(5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["early", "late"]

    def test_boundary_event_is_executed(self):
        sim = Simulator()
        fired = []
        sim.schedule_after(5.0, fired.append, "edge")
        sim.run_until(5.0)
        assert fired == ["edge"]

    def test_running_backwards_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.run_until(9.0)

    def test_strict_mode_detects_deadlock(self):
        sim = Simulator()
        sim.schedule_after(1.0, lambda: None)
        with pytest.raises(DeadlockError):
            sim.run_until(10.0, strict=True)

    def test_strict_mode_passes_when_events_persist(self):
        sim = Simulator()

        def heartbeat():
            sim.schedule_after(1.0, heartbeat)

        heartbeat()
        sim.run_until(10.0, strict=True)
        assert sim.now == 10.0


class TestAccounting:
    def test_events_processed_counts_only_fired(self):
        sim = Simulator()
        sim.schedule_after(1.0, lambda: None)
        sim.schedule_after(2.0, lambda: None)
        sim.run_until(1.5)
        assert sim.events_processed == 1 and sim.pending_events == 1

    def test_events_processed_includes_the_event_firing_now(self):
        sim = Simulator()
        seen = []
        for _ in range(3):
            sim.schedule_after(1.0, lambda: seen.append(sim.events_processed))
        sim.run()
        assert seen == [1, 2, 3]

    def test_max_events_bounds_run(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule_after(1.0, lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_zero_budget_fires_nothing_and_negative_is_an_error(self):
        sim = Simulator()
        sim.schedule_after(1.0, lambda: None)
        sim.run(max_events=0)  # regression: fired one event
        assert sim.events_processed == 0 and sim.now == 0.0
        with pytest.raises(SimulationError):
            sim.run(max_events=-1)
        sim.run()
        assert sim.events_processed == 1

    def test_reentrant_run_raises(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule_after(1.0, reenter)
        sim.run()
        assert len(errors) == 1


class ModelSimulator:
    """Reference model: a list, stably ordered by (time, insertion)."""

    def __init__(self):
        self.now, self.events_processed = 0.0, 0
        self.pending, self.inserted = [], 0

    def schedule_at(self, time, callback, *args):
        self.inserted += 1
        self.pending.append((time, self.inserted, callback, args))

    def schedule_after(self, delay, callback, *args):
        self.schedule_at(self.now + delay, callback, *args)

    def live(self):
        return sorted(self.pending, key=lambda entry: entry[:2])

    def next_event_time(self):
        return self.live()[0][0] if self.live() else None

    def step(self):
        if not self.live():
            return False
        entry = self.live()[0]
        self.pending.remove(entry)
        self.now, self.events_processed = entry[0], self.events_processed + 1
        entry[2](*entry[3])
        return True

    def run(self):
        while self.step():
            pass

    def run_until(self, time):
        while self.live() and self.live()[0][0] <= time:
            self.step()
        self.now = max(self.now, time)


def run_program(sim, seed):
    """A seeded random program against the ``Simulator`` interface.

    Events are named by planting order, so the two implementations
    may break same-instant ties by whatever sequence they keep.
    """
    rng = RandomSource(seed).stream("program")
    planted, fired = 0, []

    def observe(label):
        fired.append((label, sim.now, sim.events_processed,
                      sim.next_event_time()))

    def plant():
        nonlocal planted
        delay = rng.choice((0.0, 0.0, 0.25, 0.5, 1.0))  # ties are common
        if rng.random() < 0.5:
            sim.schedule_after(delay, fire, planted)
        else:
            sim.schedule_at(sim.now + delay, fire, planted)
        planted += 1

    def fire(label):
        observe(label)
        for _ in range(rng.randrange(3)):
            if planted < 80:
                plant()

    for _ in range(rng.randrange(1, 8)):
        plant()
    observe("planted")
    sim.run_until(rng.choice((0.0, 0.25, 1.0)))
    observe("run_until")
    observe(f"step {sim.step()}")
    sim.run()
    observe("run")
    return fired


class TestAgainstReferenceModel:
    def test_same_fire_order_clock_count_and_peek(self):
        for seed in range(200):
            sim = Simulator()
            assert run_program(sim, seed) == \
                run_program(ModelSimulator(), seed), seed
            assert sim.pending_events == 0

    def test_programs_cover_ties_cancels_and_nested_scheduling(self):
        # The property above is only as good as its programs.
        runs = [run_program(ModelSimulator(), seed) for seed in range(200)]
        assert max(len(run) for run in runs) > 40
        assert any(a[1] == b[1] for run in runs
                   for a, b in zip(run[1:], run[2:]))

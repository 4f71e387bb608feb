"""Unit tests for futures and their combinators."""

import pytest

from repro.errors import FutureError
from repro.sim import AllOf, AnyOf, Future


class TestFuture:
    def test_starts_pending(self):
        future = Future()
        assert not future.done
        assert not future.failed

    def test_resolve_sets_value(self):
        future = Future()
        future.resolve(42)
        assert future.done
        assert future.value == 42

    def test_value_before_resolution_raises(self):
        with pytest.raises(FutureError):
            Future(name="pending").value

    def test_double_resolve_raises(self):
        future = Future()
        future.resolve(1)
        with pytest.raises(FutureError):
            future.resolve(2)

    def test_fail_then_resolve_raises(self):
        future = Future()
        future.fail(ValueError("boom"))
        with pytest.raises(FutureError):
            future.resolve(1)

    def test_failed_value_reraises_original(self):
        future = Future()
        future.fail(ValueError("boom"))
        assert future.failed
        with pytest.raises(ValueError, match="boom"):
            future.value

    def test_callback_fires_on_resolution(self):
        future = Future()
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        assert seen == []
        future.resolve("done")
        assert seen == ["done"]

    def test_callback_on_done_future_fires_immediately(self):
        future = Future()
        future.resolve("done")
        seen = []
        future.add_callback(lambda f: seen.append(f.value))
        assert seen == ["done"]

    def test_callbacks_fire_in_registration_order(self):
        future = Future()
        order = []
        future.add_callback(lambda f: order.append(1))
        future.add_callback(lambda f: order.append(2))
        future.resolve(None)
        assert order == [1, 2]


class TestAllOf:
    def test_resolves_with_values_in_input_order(self):
        a, b = Future(), Future()
        combined = AllOf([a, b])
        b.resolve("b")
        assert not combined.done
        a.resolve("a")
        assert combined.value == ["a", "b"]

    def test_empty_input_resolves_immediately(self):
        assert AllOf([]).value == []

    def test_fails_on_first_component_failure(self):
        a, b = Future(), Future()
        combined = AllOf([a, b])
        a.fail(RuntimeError("dead"))
        assert combined.failed
        b.resolve("late")  # must not disturb the failed combinator

    def test_already_resolved_components(self):
        a = Future()
        a.resolve(1)
        assert AllOf([a]).value == [1]


class TestAnyOf:
    def test_resolves_with_first_winner(self):
        a, b = Future(), Future()
        combined = AnyOf([a, b])
        b.resolve("fast")
        assert combined.value == (1, "fast")
        a.resolve("slow")  # late resolution is ignored

    def test_tolerates_failures_until_one_succeeds(self):
        a, b = Future(), Future()
        combined = AnyOf([a, b])
        a.fail(RuntimeError("down"))
        assert not combined.done
        b.resolve("up")
        assert combined.value == (1, "up")

    def test_fails_only_when_all_fail(self):
        a, b = Future(), Future()
        combined = AnyOf([a, b])
        a.fail(RuntimeError("one"))
        b.fail(RuntimeError("two"))
        assert combined.failed

    def test_empty_input_raises(self):
        with pytest.raises(FutureError):
            AnyOf([])

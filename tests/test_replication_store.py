"""Unit tests for the versioned store and ordering policies."""

import pytest

from repro.errors import ConfigurationError
from repro.replication import (
    VersionedStore,
    second_truncated_key,
    timestamp_key,
)
from repro.sim import Simulator


def ts_key(origin_ts, message_id):
    return timestamp_key(origin_ts, 0, message_id)


class TestOrderingPolicies:
    def test_timestamp_key_orders_by_time_then_id(self):
        assert timestamp_key(1.0, 9, "A") < timestamp_key(2.0, 0, "B")
        assert timestamp_key(1.0, 0, "A") < timestamp_key(1.0, 0, "B")

    def test_second_truncated_reverses_same_second(self):
        # Two writes 0.4s apart within one second: later sorts first.
        first = second_truncated_key(10.1, 1, "M1")
        second = second_truncated_key(10.5, 2, "M2")
        assert second < first

    def test_second_truncated_preserves_cross_second_order(self):
        first = second_truncated_key(10.9, 1, "M1")
        second = second_truncated_key(11.1, 2, "M2")
        assert first < second


class TestVersionedStore:
    def make_store(self, sim=None, retention=600.0):
        sim = sim or Simulator()
        return sim, VersionedStore(now_fn=lambda: sim.now,
                                   retention=retention)

    def test_retention_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            VersionedStore(now_fn=lambda: sim.now, retention=0.0)

    def test_insert_and_view_now(self):
        _sim, store = self.make_store()
        store.insert("M1", "a", 1.0, sort_key=ts_key(1.0, "M1"))
        store.insert("M2", "b", 2.0, sort_key=ts_key(2.0, "M2"))
        assert store.view_now() == ("M1", "M2")
        assert len(store) == 2

    def test_insert_is_idempotent(self):
        _sim, store = self.make_store()
        entry1 = store.insert("M1", "a", 1.0, sort_key=ts_key(1.0, "M1"))
        # Duplicate delivery.
        entry2 = store.insert("M1", "a", 5.0, sort_key=ts_key(5.0, "M1"))
        assert entry1 is entry2
        assert len(store) == 1

    def test_sort_key_controls_order(self):
        _sim, store = self.make_store()
        store.insert("M1", "a", 10.4, sort_key=second_truncated_key(
            10.4, 1, "M1"))
        store.insert("M2", "a", 10.8, sort_key=second_truncated_key(
            10.8, 2, "M2"))
        assert store.view_now() == ("M2", "M1")  # reversed same-second

    def test_view_at_replays_history(self):
        sim, store = self.make_store()
        store.insert("M1", "a", 0.0, sort_key=ts_key(0.0, "M1"))
        sim.run_until(5.0)
        store.insert("M2", "b", 5.0, sort_key=ts_key(5.0, "M2"))
        assert store.view_at(0.0) == ("M1",)
        assert store.view_at(4.9) == ("M1",)
        assert store.view_at(5.0) == ("M1", "M2")
        assert store.view_at(-1.0) == ()

    def test_reorder_records_new_version(self):
        sim, store = self.make_store()
        store.insert("M1", "a", 10.0, sort_key=(10.0, "M1"))
        sim.run_until(1.0)
        store.insert("M2", "b", 5.0, sort_key=(11.0, "M2"))  # late write
        assert store.view_now() == ("M1", "M2")
        sim.run_until(2.0)
        store.reorder("M2", (5.0, "M2"))  # repair to canonical position
        assert store.view_now() == ("M2", "M1")
        assert store.view_at(1.5) == ("M1", "M2")  # history preserved

    def test_reorder_missing_or_same_key_is_noop(self):
        _sim, store = self.make_store()
        store.insert("M1", "a", 1.0, sort_key=(1.0, "M1"))
        versions_before = store.version_count
        store.reorder("ghost", (0.0,))
        store.reorder("M1", (1.0, "M1"))
        assert store.version_count == versions_before

    def test_same_instant_mutations_collapse(self):
        _sim, store = self.make_store()
        store.insert("M1", "a", 0.0, sort_key=ts_key(0.0, "M1"))
        store.insert("M2", "b", 0.0, sort_key=ts_key(0.0, "M2"))
        assert store.version_count == 1
        assert store.view_now() == ("M1", "M2")

    def test_retention_prunes_old_entries(self):
        sim, store = self.make_store(retention=10.0)
        store.insert("old", "a", 0.0, sort_key=ts_key(0.0, "old"))
        sim.run_until(100.0)
        store.insert("new", "b", 100.0, sort_key=ts_key(100.0, "new"))
        assert not store.contains("old")
        assert store.view_now() == ("new",)

    def test_entries_sorted_by_key(self):
        _sim, store = self.make_store()
        store.insert("M2", "b", 2.0, sort_key=ts_key(2.0, "M2"))
        store.insert("M1", "a", 1.0, sort_key=ts_key(1.0, "M1"))
        assert [e.message_id for e in store.entries()] == ["M1", "M2"]

    def test_entry_lookup(self):
        _sim, store = self.make_store()
        store.insert("M1", "a", 1.0, sort_key=ts_key(1.0, "M1"))
        assert store.entry("M1").author == "a"
        assert store.entry("nope") is None

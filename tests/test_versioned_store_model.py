"""Model-based test: the maintained order equals the rebuilt one.

``VersionedStore`` keeps its entries sorted incrementally and prunes
through an age heap.  The model below is the store it replaced — a
dict re-sorted and re-scanned on every mutation — and every
observable (current view, past views, entries, sizes) must agree
after every step of a random insert / duplicate / reorder / clock
schedule that crosses the retention horizon.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import VersionedStore, timestamp_key

RETENTION = 10.0


class ResortingStore:
    """Sort everything, scan everything, on every mutation."""

    def __init__(self, now_fn):
        self.now_fn = now_fn
        self.entries = {}  # message_id -> [sort_key, origin_ts, seq]
        self.next_seq = 0
        self.version_times = []
        self.versions = []

    def insert(self, message_id, origin_ts, sort_key):
        if message_id not in self.entries:
            seq = self.next_seq
            self.next_seq += 1
            self.entries[message_id] = [sort_key, origin_ts, seq]
            self.record_version()

    def reorder(self, message_id, sort_key):
        entry = self.entries.get(message_id)
        if entry is not None and entry[0] != sort_key:
            entry[0] = sort_key
            self.record_version()

    def ordered(self):
        # Stable sort over arrival order: seq breaks sort_key ties.
        return sorted(self.entries, key=lambda mid: self.entries[mid][0])

    def record_version(self):
        now = self.now_fn()
        horizon = now - RETENTION
        cut = bisect.bisect_right(self.version_times, horizon) - 1
        if cut > 0:
            del self.version_times[:cut]
            del self.versions[:cut]
        self.entries = {mid: entry for mid, entry in self.entries.items()
                        if entry[1] >= horizon}
        if self.version_times and self.version_times[-1] == now:
            self.versions[-1] = tuple(self.ordered())
        else:
            self.version_times.append(now)
            self.versions.append(tuple(self.ordered()))

    def view_at(self, when):
        index = bisect.bisect_right(self.version_times, when) - 1
        return self.versions[index] if index >= 0 else ()


#: Few ids, so the same id is inserted twice (live: idempotent;
#: after pruning: a new entry with a new seq).
ids = st.sampled_from([f"M{n}" for n in range(5)])
#: "ts" = the canonical ``timestamp_key`` of the write.  One-element
#: keys from a tiny set collide constantly, so arrival order has to
#: break ties — also after a reorder moves an old entry among newer
#: ones; 1.0 and 2.0 sort before every timestamp key, 500.0 after.
keys = st.sampled_from(["ts", (1.0,), (2.0,), (500.0,)])
steps = st.one_of(
    # A write's age when it reaches this replica: fresh, replicated
    # late, about to expire, already past the horizon on arrival.
    st.tuples(st.just("insert"), ids,
              st.sampled_from([0.0, 0.5, 4.0, 9.9, 12.0]), keys),
    st.tuples(st.just("reorder"), ids, keys.filter(lambda k: k != "ts")),
    # 0 keeps the next mutation in the same instant (one version).
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.5, 3.0, 11.0])),
)


@settings(deadline=None)
@given(schedule=st.lists(steps, min_size=1, max_size=60))
def test_maintained_order_equals_resorting_model(schedule):
    clock = [100.0]
    store = VersionedStore(now_fn=lambda: clock[0], retention=RETENTION)
    model = ResortingStore(now_fn=lambda: clock[0])
    instants = {clock[0]}
    for step in schedule:
        if step[0] == "advance":
            clock[0] += step[1]
            instants.add(clock[0])
        elif step[0] == "insert":
            _, message_id, age, sort_key = step
            if sort_key == "ts":
                sort_key = timestamp_key(clock[0] - age, 0, message_id)
            store.insert(message_id, "author", clock[0] - age,
                         sort_key=sort_key)
            model.insert(message_id, clock[0] - age, sort_key)
        else:
            _, message_id, sort_key = step
            store.reorder(message_id, sort_key)
            model.reorder(message_id, sort_key)

        ordered = model.ordered()
        assert store.view_now() == (model.versions[-1]
                                    if model.versions else ())
        assert [entry.message_id for entry in store.entries()] == ordered
        assert [(entry.sort_key, entry.origin_ts, entry.seq)
                for entry in store.entries()] == [
                    tuple(model.entries[mid]) for mid in ordered]
        assert len(store) == len(model.entries)
        assert store.version_count == len(model.versions)
        for mid in ordered:
            assert store.contains(mid)
            assert store.entry(mid) is store.entries()[ordered.index(mid)]
        # Every instant anything happened at, just before it, between
        # instants, before the beginning and after the end.
        for when in instants:
            for probe in (when, when - 1e-9, when + 0.25):
                assert store.view_at(probe) == model.view_at(probe)
        assert store.view_at(0.0) == ()

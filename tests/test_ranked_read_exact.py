"""The ranked feed's two-phase read is *exactly* the exhaustive scan.

``RankedFeedStore.read`` stops scoring once no remaining post can
reach the reply.  The exhaustive scan it replaced lives here, as the
oracle: a standalone model (own post list, own index times, no noise
memo, every post scored on every read) driven from the same seed.
Equal replies prove the selection; equal ``index.*`` / ``drop.*``
stream states after every read prove the draw-order contract every
campaign signature depends on.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import RankedFeedParams, RankedFeedStore
from repro.replication.store import DoublingPrune
from repro.sim import RandomSource, Simulator
from repro.sim.random_source import GAUSS_MAX_SIGMAS

USERS = ("ann", "bob", "cyd")


class ExhaustiveFeed:
    """The pre-top-k read: score every retained post, sort, cut."""

    def __init__(self, sim, rng, params):
        self.sim = sim
        self.rng = rng
        self.params = params
        self.posts = []  # (origin_ts, message_id, author)
        self.visible_at = {}
        self.index_floor = {}

    def write(self, author, message_id):
        now = self.sim.now
        self.posts.append((now, message_id, author))
        horizon = now - self.params.retention
        self.posts = sorted(post for post in self.posts
                            if post[0] >= horizon)

    def index_time(self, message_id, reader, author, origin_ts):
        key = (message_id, reader)
        if key not in self.visible_at:
            when = origin_ts + self.rng.lognormal(
                f"index.{reader}",
                median=self.params.index_lag_median,
                sigma=self.params.index_lag_sigma,
            )
            floor_key = (reader, author)
            when = max(when,
                       self.index_floor.get(floor_key, float("-inf")))
            self.index_floor[floor_key] = when
            self.visible_at[key] = when
        return self.visible_at[key]

    def read(self, reader):
        params = self.params
        now = self.sim.now
        scored = []
        for origin_ts, message_id, author in self.posts:
            if self.index_time(message_id, reader, author,
                               origin_ts) > now:
                continue
            if self.rng.bernoulli(f"drop.{reader}", params.drop_prob):
                continue
            noise = 0.0
            if params.noise_sd != 0:
                epoch = int(now / params.noise_period)
                noise = self.rng.ephemeral(
                    f"interest.{reader}.{message_id}.{epoch}"
                ).gauss(0.0, params.noise_sd)
            score = -params.recency_weight * (now - origin_ts) + noise
            scored.append((score, message_id))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return tuple(mid for _score, mid in scored[:params.feed_size])


feed_params = st.builds(
    RankedFeedParams,
    # 1 and "larger than any store the schedule builds" included.
    feed_size=st.sampled_from([1, 2, 3, 10, 100]),
    index_lag_median=st.sampled_from([0.01, 0.6]),
    # 0 = pure recency; 0.15 = the calibrated value, prunes most of
    # the store; 50 >> any inter-post gap, prunes almost nothing.
    noise_sd=st.sampled_from([0.0, 0.15, 1.0, 50.0]),
    noise_period=st.sampled_from([0.5, 2.0]),
    drop_prob=st.sampled_from([0.0, 0.004, 0.5, 1.0]),
    # <= 0: newest is *not* best, the stop rule may not assume it.
    recency_weight=st.sampled_from([-1.0, 0.0, 0.01, 1.0]),
    # 5 s: posts cross the retention horizon inside one schedule.
    retention=st.sampled_from([5.0, 600.0]),
)

#: Seconds to let pass after an operation: 0 (same-instant posts have
#: equal base scores), well under ``noise_sd`` (reordering is
#: routine), around one noise epoch, and past the short retention.
GAPS = [0.0, 0.01, 0.05, 0.3, 1.0, 2.5, 7.0]

#: A schedule is a list of bursts: some posts close together, then
#: some reads; every operation is followed by its own gap, so reads
#: also land between, with and long after the posts they rank.
bursts = st.tuples(
    st.lists(st.tuples(st.sampled_from(USERS),
                       st.sampled_from(GAPS[:4])),
             min_size=1, max_size=8),
    st.lists(st.tuples(st.sampled_from(USERS), st.sampled_from(GAPS)),
             min_size=1, max_size=5),
)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32), params=feed_params,
       schedule=st.lists(bursts, min_size=1, max_size=6))
def test_two_phase_read_equals_exhaustive_scan(seed, params, schedule):
    sim, oracle_sim = Simulator(), Simulator()
    rng, oracle_rng = RandomSource(seed), RandomSource(seed)
    shipped = RankedFeedStore(sim, rng, params)
    oracle = ExhaustiveFeed(oracle_sim, oracle_rng, params)

    def let_pass(gap):
        sim.run_until(sim.now + gap)
        oracle_sim.run_until(oracle_sim.now + gap)

    written = 0
    for writes, reads in schedule:
        for author, gap in writes:
            written += 1
            shipped.write(author, f"M{written}")
            oracle.write(author, f"M{written}")
            let_pass(gap)
        for reader, gap in reads:
            assert shipped.read(reader) == oracle.read(reader)
            for user in USERS:
                for name in (f"index.{user}", f"drop.{user}"):
                    assert (rng.stream(name).getstate()
                            == oracle_rng.stream(name).getstate()), name
            let_pass(gap)


class TestGaussBound:
    """``GAUSS_MAX_SIGMAS`` is a property of the generator."""

    def test_constant_covers_the_box_muller_maximum(self):
        assert GAUSS_MAX_SIGMAS >= math.sqrt(-2 * math.log(2 ** -53))

    def test_a_million_draws_stay_inside(self):
        rng = RandomSource(20160628)
        worst = max(
            abs(draw.gauss(0.0, 1.0))
            for draw in (rng.ephemeral(f"g{i}") for i in range(2000))
            for _ in range(500)
        )
        assert 4.0 < worst <= GAUSS_MAX_SIGMAS

    def test_the_extreme_uniforms_attain_it(self):
        # gauss() draws u1 (the angle) then u2 (the radius) from
        # self.random(); 1 - 2**-53 is the largest float random()
        # returns and angle 0 puts the whole radius on the cosine.
        stdlib_random = type(RandomSource(0).ephemeral("any"))

        class Cornered(stdlib_random):
            uniforms = iter([0.0, 1.0 - 2.0 ** -53])

            def random(self):
                return next(self.uniforms)

        z = Cornered().gauss(0.0, 1.0)
        assert z == math.sqrt(-2 * math.log(2 ** -53))
        assert z <= GAUSS_MAX_SIGMAS


class CountingSource(RandomSource):
    """Counts name-seeded generator constructions and index-time
    draws (``ephemeral`` and ``lognormal``, public seams)."""

    constructions = 0
    index_draws = 0

    def ephemeral(self, name):
        self.constructions += 1
        return super().ephemeral(name)

    def lognormal(self, name, median, sigma):
        self.index_draws += 1
        return super().lognormal(name, median, sigma)


def test_noise_memo_survives_16384_pairs_within_an_epoch():
    # The old memo emptied itself (current epoch included) when it
    # passed 16,384 keys, so the reads after that re-seeded every
    # (reader, post) pair they had just had.
    sim = Simulator()
    rng = CountingSource(5)
    store = RankedFeedStore(sim, rng, RankedFeedParams(
        feed_size=400, index_lag_median=1e-6, index_lag_sigma=0.0,
        noise_sd=50.0, noise_period=1000.0, drop_prob=0.0,
    ))
    readers = [f"reader{n}" for n in range(50)]
    for n in range(340):
        store.write("ann", f"M{n}")
    sim.run_until(1.0)
    first = [store.read(reader) for reader in readers]
    assert all(len(reply) == 340 for reply in first)
    assert rng.constructions == 50 * 340  # 17,000 pairs, one epoch
    assert [store.read(reader) for reader in readers] == first
    assert rng.constructions == 50 * 340  # every pair still memoized
    # ...and the memo is bounded by epochs, not by a size: the next
    # epoch's first read retires this one's values.
    sim.run_until(1001.0)
    store.write("ann", "late")  # retention has emptied the store
    sim.run_until(1002.0)
    assert store.read("reader0") == ("late",)
    assert sum(len(memo) for memo in store._noise_cache.values()) == 1


class ScanCountingDict(dict):
    """A dict that counts full traversals (``items()`` calls)."""

    scans = 0

    def items(self):
        self.scans += 1
        return super().items()


class TestAmortisedPrune:
    def test_same_keys_deleted_and_no_scan_until_doubled(self):
        table = ScanCountingDict((n, float(n)) for n in range(100))
        prune = DoublingPrune(100)
        prune(table, lambda value: value < 40.0)
        assert table.scans == 1 and sorted(table) == list(range(40, 100))
        # 60 survived: the next scan waits for max(floor, 120) keys.
        for n in range(100, 159):
            table[n] = float(n)
            prune(table, lambda value: value < 40.0)
        assert table.scans == 1
        table[159] = 159.0
        prune(table, lambda value: value < 150.0)
        assert table.scans == 2 and sorted(table) == list(range(150, 160))

    def test_ranked_store_9001st_index_sample_does_not_scan(self):
        # 9,000 live (post, reader) pairs inside one retention window.
        # The old index-time table rescanned all of them on every new
        # sample once past 8,192.  Now a new post costs the reader
        # that reads it one index draw and one item of its own state:
        # no other reader's state is walked, and the store is not.
        sim = Simulator()
        rng = CountingSource(9)
        store = RankedFeedStore(sim, rng, RankedFeedParams())
        for n in range(100):
            store.write("ann", f"M{n}")
        sim.run_until(5.0)
        for n in range(90):
            store.read(f"reader{n}")
        assert held(store) == 9_000 and rng.index_draws == 9_000
        store.write("ann", "M100")
        sim.run_until(10.0)
        lookups = []
        entry = store.store.entry

        def counted_entry(message_id):
            lookups.append(message_id)
            return entry(message_id)

        def no_scan():
            raise AssertionError("a read scanned the store")

        store.store.entry = counted_entry
        store.store.entries = no_scan
        store.read("reader0")
        assert rng.index_draws == 9_001
        assert held(store, "reader0") == 101 and held(store) == 9_001
        # Membership checks: the front of reader0's indexed list, and
        # the new post as it is promoted.
        assert len(lookups) <= 2


def held(store, *readers):
    """Indexed plus pending entries of ``readers`` (default: all)."""
    return sum(len(store._readers[reader].indexed)
               + len(store._readers[reader].pending)
               for reader in readers or store._readers)


def replay_against_oracle(seed, params, steps):
    """Run ``steps`` on both stores; check as the property test does.

    A step is ``("write", author, message_id)``, ``("read", reader)``
    or ``("wait", seconds)``.  Returns the shipped store.
    """
    sim, oracle_sim = Simulator(), Simulator()
    rng, oracle_rng = RandomSource(seed), RandomSource(seed)
    shipped = RankedFeedStore(sim, rng, params)
    oracle = ExhaustiveFeed(oracle_sim, oracle_rng, params)
    for step in steps:
        if step[0] == "write":
            shipped.write(*step[1:])
            oracle.write(*step[1:])
        elif step[0] == "read":
            assert shipped.read(step[1]) == oracle.read(step[1])
            for user in USERS:
                for name in (f"index.{user}", f"drop.{user}"):
                    assert (rng.stream(name).getstate()
                            == oracle_rng.stream(name).getstate()), name
        else:
            sim.run_until(sim.now + step[1])
            oracle_sim.run_until(oracle_sim.now + step[1])
    return shipped


#: Draw-order-sensitive settings: index lags spread around the gaps
#: between reads, half the indexed posts dropped, and no noise, so
#: same-instant posts rank by message id.
CHURN = RankedFeedParams(index_lag_median=0.2, index_lag_sigma=1.0,
                         noise_sd=0.0, drop_prob=0.5, feed_size=100)

#: Reads every 0.1 s for a second: which post got which index time,
#: and which drop draw, shows in the replies.
POLL = [("wait", 0.1), ("read", "bob"), ("read", "ann")] * 10


class TestOracleEdgeCases:
    """Schedules the property test reaches only by chance."""

    def test_same_instant_write_sorting_before_a_sampled_post(self):
        # "M10" < "M9": the post written after bob's read sorts ahead
        # of one bob has already sampled, and both are ann's, so the
        # author floor follows sampling order, not store order.  M1,
        # written at the same instant, sorts before M10.
        for seed in range(40):
            replay_against_oracle(seed, CHURN, [
                ("wait", 1.0), ("write", "ann", "M9"), ("read", "bob"),
                ("write", "ann", "M10"), ("write", "cyd", "M1"),
                ("read", "bob"), *POLL,
            ])

    def test_write_at_the_instant_of_a_read(self):
        for seed in range(40):
            replay_against_oracle(seed, CHURN, [
                ("write", "ann", "M1"), ("wait", 1.0),
                ("read", "bob"), ("write", "cyd", "M2"),
                ("read", "bob"), ("write", "bob", "M3"),
                ("read", "cyd"), ("wait", 0.0), ("read", "bob"),
                *POLL, ("read", "cyd"),
            ])

    def test_pending_post_pruned_before_its_index_time(self):
        # Index lag ~10 s, retention 5 s: M1 is sampled at 0.1 s and
        # pruned by M2's write at 6.1 s, before its index time.  cyd
        # reads in between; bob next reads at 11.1 s, past M1's index
        # time and before M2's.
        params = RankedFeedParams(index_lag_median=10.0,
                                  index_lag_sigma=0.01, noise_sd=0.0,
                                  drop_prob=0.5, retention=5.0)
        for seed in range(20):
            shipped = replay_against_oracle(seed, params, [
                ("write", "ann", "M1"), ("wait", 0.1), ("read", "bob"),
                ("read", "cyd"), ("wait", 6.0), ("write", "cyd", "M2"),
                ("read", "cyd"), ("wait", 5.0), ("read", "bob"),
                ("read", "cyd"),
            ])
            for reader in ("bob", "cyd"):
                feed = shipped._readers[reader]
                assert feed.indexed == []
                assert [entry.message_id
                        for _when, _seq, entry in feed.pending] == ["M2"]


def test_duplicate_message_id_is_sampled_and_returned_once():
    # The store ignores a duplicate id; the oracle would not, so this
    # case is checked directly.
    sim = Simulator()
    rng = CountingSource(3)
    feed = RankedFeedStore(sim, rng, RankedFeedParams(
        index_lag_median=0.01, drop_prob=0.0))
    feed.write("ann", "M1")
    feed.write("bob", "M1")
    sim.run_until(1.0)
    assert feed.read("cyd") == ("M1",)
    assert rng.index_draws == 1
    feed.write("ann", "M1")  # after cyd has sampled it
    sim.run_until(2.0)
    assert feed.read("cyd") == ("M1",)
    assert rng.index_draws == 1
    assert held(feed, "cyd") == 1


def test_reader_state_stays_inside_the_retention_window():
    # Posts cross a 5 s horizon while three readers poll; "dan" only
    # writes.  After each read the reader's indexed and pending
    # entries are all live, and so is every entry of the insert log.
    sim = Simulator()
    feed = RankedFeedStore(sim, RandomSource(11), RankedFeedParams(
        retention=5.0, index_lag_sigma=1.5))
    authors = USERS + ("dan",)

    def live(entry):
        return feed.store.entry(entry.message_id) is entry

    for n in range(400):
        feed.write(authors[n % len(authors)], f"M{n}")
        sim.run_until(sim.now + 0.05 * (n % 7))
        reader = USERS[n % len(USERS)]
        feed.read(reader)
        state = feed._readers[reader]
        assert all(live(entry) for entry in state.indexed)
        assert all(live(entry) for _when, _seq, entry in state.pending)
        assert all(live(entry) for entry in feed._log)
        assert held(feed, reader) <= len(feed.store)
    assert sim.now > 10 * feed._params.retention
    assert len(feed.store) < 400
    assert set(feed._readers) == set(USERS)
    assert {reader for reader, _author in feed._index_floor} == set(USERS)

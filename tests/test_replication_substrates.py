"""Integration tests for the four replication substrates."""

import pytest

from repro.errors import ConfigurationError
from repro.net import (
    IRELAND,
    OREGON,
    TOKYO,
    VIRGINIA,
    FaultInjector,
    JitterParams,
    LatencyModel,
    Network,
    paper_topology,
)
from repro.replication import (
    EventualGroup,
    EventualParams,
    GeoGroupStore,
    GroupStoreParams,
    PrimaryBackupGroup,
    RankedFeedParams,
    RankedFeedStore,
)
from repro.sim import RandomSource, Simulator


def make_world(seed=1, faults=None):
    sim = Simulator()
    topo = paper_topology()
    for host, region in (
        ("dc-us", OREGON),
        ("dc-eu", IRELAND),
        ("primary", VIRGINIA),
        ("backup-1", OREGON),
        ("backup-2", IRELAND),
        ("follower", TOKYO),
    ):
        topo.place_host(host, region)
    rng = RandomSource(seed=seed)
    net = Network(sim, LatencyModel(topo, rng.child("net"),
                                    JitterParams(sigma=0.1)),
                  faults=faults)
    return sim, net, rng


class TestPrimaryBackup:
    def test_write_acks_after_all_backups_apply(self):
        sim, net, _rng = make_world()
        group = PrimaryBackupGroup(sim, net, "primary",
                                   ["backup-1", "backup-2"])
        done = group.write("alice", "M1")
        acked_at = []
        done.add_callback(lambda f: acked_at.append(sim.now))
        sim.run_until(5.0)
        assert done.done and not done.failed
        # The ack cannot beat the slowest backup RTT (~136ms to Oregon,
        # ~172ms to Ireland from Virginia).
        assert acked_at[0] >= 0.150
        assert group.read() == ("M1",)
        assert group.read_backup("backup-1") == ("M1",)
        assert group.read_backup("backup-2") == ("M1",)

    def test_reads_are_totally_ordered(self):
        sim, net, _rng = make_world()
        group = PrimaryBackupGroup(sim, net, "primary", ["backup-1"])
        group.write("alice", "M1")
        sim.run_until(1.0)
        group.write("bob", "M2")
        sim.run_until(2.0)
        assert group.read() == ("M1", "M2")

    def test_primary_cannot_be_backup(self):
        sim, net, _rng = make_world()
        with pytest.raises(ConfigurationError):
            PrimaryBackupGroup(sim, net, "primary", ["primary"])

    def test_no_backups_acks_immediately(self):
        sim, net, _rng = make_world()
        group = PrimaryBackupGroup(sim, net, "primary", [])
        done = group.write("alice", "M1")
        sim.run_until(0.001)
        assert done.value == pytest.approx(0.0)


class TestEventualGroup:
    def make_group(self, seed=2, faults=None, **overrides):
        sim, net, rng = make_world(seed=seed, faults=faults)
        params = EventualParams(**overrides)
        group = EventualGroup(sim, net, rng.child("gplus"),
                              {"dc-us": params, "dc-eu": params})
        group.set_home("oregon", "dc-us")
        group.set_home("tokyo", "dc-us")
        group.set_home("ireland", "dc-eu")
        return sim, group

    def test_local_write_visible_at_home_dc(self):
        sim, group = self.make_group(backend_lag_prob=0.0)
        group.write("oregon", "M1")
        assert group.read("oregon") == ("M1",)

    def test_remote_write_arrives_after_replication_delay(self):
        sim, group = self.make_group(backend_lag_prob=0.0)
        group.write("oregon", "M1")
        assert group.read("ireland") == ()
        sim.run_until(30.0)
        assert group.read("ireland") == ("M1",)

    def test_same_dc_clients_share_order(self):
        sim, group = self.make_group(backend_lag_prob=0.0)
        group.write("oregon", "M1")
        sim.run_until(0.1)
        group.write("tokyo", "M2")
        sim.run_until(0.2)
        assert group.read("oregon") == group.read("tokyo") == ("M1", "M2")

    def test_late_write_appears_at_tail_then_repairs(self):
        sim, group = self.make_group(
            backend_lag_prob=0.0,
            tail_insert_prob=1.0,     # force the slow path
            repair_delay_mean=30.0,
        )
        # M1 written in EU at t=0; M2 written in US at t=0.05 (after
        # M1's origin but before M1's replica arrives).  M1 reaches the
        # US late and must first appear after M2 (tail), then move
        # before it once repaired.
        group.write("ireland", "M1")
        sim.run_until(0.05)
        group.write("oregon", "M2")
        # Wait until M1 is ingested in the US but (almost surely) not
        # yet repaired.
        deadline = 60.0
        while sim.now < deadline:
            sim.run_until(sim.now + 0.5)
            if "M1" in group.read("oregon"):
                break
        view = group.read("oregon")
        assert view == ("M2", "M1"), "late write should appear at tail"
        sim.run_until(sim.now + 400.0)
        assert group.read("oregon") == ("M1", "M2"), (
            "repair should restore canonical timestamp order"
        )

    def test_partition_blocks_replication_until_heal(self):
        faults = FaultInjector()
        faults.partition_pair("dc-us", "dc-eu", 0.0, 50.0)
        sim, group = self.make_group(faults=faults, backend_lag_prob=0.0)
        group.write("oregon", "M1")
        sim.run_until(49.0)
        assert group.read("ireland") == ()
        # Heal: anti-entropy keeps re-offering unsent writes... local
        # outbox was flushed during the partition, so this write was
        # lost from the EU's perspective until the next write batches.
        group.write("oregon", "M2")
        sim.run_until(120.0)
        assert "M2" in group.read("ireland")

    def test_stale_backends_can_miss_recent_writes(self):
        sim, group = self.make_group(
            seed=7,
            backend_lag_prob=1.0,            # every backend lags
            backend_lag_median=5.0,
            backend_lag_sigma=0.1,
        )
        group.write("oregon", "M1")
        assert group.read("oregon") == ()    # nothing visible yet
        sim.run_until(30.0)
        assert group.read("oregon") == ("M1",)

    def test_unrouted_client_rejected(self):
        sim, group = self.make_group()
        with pytest.raises(ConfigurationError):
            group.read("mars")

    def test_needs_at_least_one_dc(self):
        sim, net, rng = make_world()
        with pytest.raises(ConfigurationError):
            EventualGroup(sim, net, rng, {})

    def test_per_author_chunks_replicate_everything(self):
        # Each author's chunk draws its own straggler fate; however the
        # chunks overtake each other, every write reaches the peer.
        sim, group = self.make_group(seed=5)
        messages = []
        for index, author in enumerate(
            ("alice", "bob", "carol", "dave", "erin")
        ):
            message_id = f"W{index}"
            group.replica("dc-us").accept_write(message_id, author)
            messages.append(message_id)
        sim.run_until(60.0)
        remote = group.replica("dc-eu").store
        for message_id in messages:
            assert remote.contains(message_id)


class TestGeoGroupStore:
    def make_store(self, seed=3, faults=None, **overrides):
        sim, net, rng = make_world(seed=seed, faults=faults)
        params = GroupStoreParams(**overrides)
        store = GeoGroupStore(sim, net, rng.child("group"), params,
                              primary_host="primary",
                              follower_host="follower")
        store.route("oregon", to_follower=False)
        store.route("ireland", to_follower=False)
        store.route("tokyo", to_follower=True)
        return sim, store

    def test_write_visible_locally_once_acked(self):
        sim, store = self.make_store(stale_read_prob=0.0)
        ack = store.write("tokyo", "M1")
        assert store.read("tokyo") == ()  # not yet committed
        sim.run_until(5.0)
        assert ack.done and not ack.failed
        assert store.read("tokyo") == ("M1",)

    def test_commit_visibility_is_simultaneous_at_both_replicas(self):
        sim, store = self.make_store(stale_read_prob=0.0,
                                     lag_spike_prob=0.0,
                                     commit_delay=0.3)
        store.write("oregon", "M1")
        # Just before the commit instant: visible nowhere.
        sim.run_until(0.29)
        assert store.read("oregon") == ()
        assert store.read("tokyo") == ()
        # Just after: visible everywhere.
        sim.run_until(0.41)
        assert store.read("oregon") == ("M1",)
        assert store.read("tokyo") == ("M1",)

    def test_replication_converges_quickly(self):
        sim, store = self.make_store(stale_read_prob=0.0,
                                     lag_spike_prob=0.0)
        store.write("oregon", "M1")
        sim.run_until(5.0)
        assert store.read("tokyo") == ("M1",)

    def test_same_second_writes_observed_reversed_everywhere(self):
        sim, store = self.make_store(stale_read_prob=0.0,
                                     lag_spike_prob=0.0)
        sim.run_until(10.1)
        store.write("oregon", "M1")
        sim.run_until(10.5)          # same wall-clock second
        store.write("oregon", "M2")
        sim.run_until(15.0)
        assert store.read("oregon") == ("M2", "M1")
        assert store.read("tokyo") == ("M2", "M1")  # consistent reversal

    def test_cross_second_writes_keep_order(self):
        sim, store = self.make_store(stale_read_prob=0.0,
                                     lag_spike_prob=0.0)
        sim.run_until(10.2)
        store.write("oregon", "M1")
        sim.run_until(11.4)          # next second
        store.write("oregon", "M2")
        sim.run_until(15.0)
        assert store.read("oregon") == ("M1", "M2")

    def test_partition_diverges_then_antientropy_heals(self):
        faults = FaultInjector()
        faults.partition_pair("primary", "follower", 5.0, 60.0)
        sim, store = self.make_store(faults=faults, stale_read_prob=0.0,
                                     lag_spike_prob=0.0)
        sim.run_until(10.0)
        store.write("tokyo", "MT")
        store.write("oregon", "MO")
        sim.run_until(30.0)
        # Mid-partition: each side sees only its own write.
        assert store.read("tokyo") == ("MT",)
        assert store.read("oregon") == ("MO",)
        sim.run_until(120.0)
        # After heal, anti-entropy merges both sides into one order.
        assert set(store.read("tokyo")) == {"MT", "MO"}
        assert store.read("tokyo") == store.read("oregon")

    def test_unrouted_client_rejected(self):
        sim, store = self.make_store()
        with pytest.raises(ConfigurationError):
            store.read("mars")


class TestRankedFeed:
    def make_feed(self, seed=4, **overrides):
        sim = Simulator()
        rng = RandomSource(seed=seed)
        params = RankedFeedParams(**overrides)
        return sim, RankedFeedStore(sim, rng.child("feed"), params)

    def test_index_floor_is_per_author(self):
        # One FIFO floor per (reader, author): a post is never indexed
        # before its author's earlier post, and other authors' posts
        # are not held back by it.
        sim, feed = self.make_feed(drop_prob=0.0, noise_sd=0.0)
        feed.write("ann", "M1")
        feed.write("bob", "M2")
        feed.write("ann", "M3")
        feed.read("reader")
        assert set(feed._index_floor) == {("reader", "ann"),
                                          ("reader", "bob")}
        # Lags are positive, so at t=0 every post is still pending.
        index_time = {entry.message_id: when for when, _seq, entry
                      in feed._readers["reader"].pending}
        assert index_time["M3"] >= index_time["M1"]

    def test_post_eventually_visible_to_reader(self):
        sim, feed = self.make_feed(drop_prob=0.0)
        feed.write("alice", "M1")
        sim.run_until(60.0)
        assert feed.read("alice") == ("M1",)

    def test_indexing_lag_hides_fresh_posts(self):
        sim, feed = self.make_feed(
            drop_prob=0.0, index_lag_median=5.0, index_lag_sigma=0.01
        )
        feed.write("alice", "M1")
        assert feed.read("alice") == ()  # own post not indexed yet
        sim.run_until(30.0)
        assert feed.read("alice") == ("M1",)

    def test_feed_size_caps_results(self):
        sim, feed = self.make_feed(drop_prob=0.0, feed_size=3,
                                   index_lag_median=0.001,
                                   index_lag_sigma=0.01)
        for i in range(6):
            feed.write("alice", f"M{i}")
        sim.run_until(10.0)
        assert len(feed.read("bob")) == 3

    def test_ranking_noise_reorders_across_epochs(self):
        sim, feed = self.make_feed(drop_prob=0.0, noise_sd=10.0,
                                   index_lag_median=0.001,
                                   index_lag_sigma=0.01,
                                   noise_period=1.0)
        for i in range(4):
            feed.write("alice", f"M{i}")
        orders = set()
        for _ in range(30):
            sim.run_until(sim.now + 1.1)  # cross an epoch boundary
            orders.add(feed.read("bob"))
        assert len(orders) > 1, "high noise must produce varying orders"

    def test_order_is_stable_within_a_noise_epoch(self):
        sim, feed = self.make_feed(drop_prob=0.0, noise_sd=10.0,
                                   index_lag_median=0.001,
                                   index_lag_sigma=0.01,
                                   noise_period=100.0)
        for i in range(4):
            feed.write("alice", f"M{i}")
        sim.run_until(10.0)
        first = feed.read("bob")
        sim.run_until(10.5)  # same epoch
        assert feed.read("bob") == first

    def test_zero_noise_orders_by_recency(self):
        sim, feed = self.make_feed(drop_prob=0.0, noise_sd=0.0,
                                   index_lag_median=0.001,
                                   index_lag_sigma=0.01)
        feed.write("alice", "M1")
        sim.run_until(2.0)
        feed.write("alice", "M2")
        sim.run_until(10.0)
        assert feed.read("bob") == ("M2", "M1")  # newest first

    def test_selection_churn_drops_posts(self):
        sim, feed = self.make_feed(drop_prob=0.5, noise_sd=0.0,
                                   index_lag_median=0.001,
                                   index_lag_sigma=0.01)
        feed.write("alice", "M1")
        sim.run_until(10.0)
        results = [feed.read("bob") for _ in range(60)]
        assert any(r == () for r in results)
        assert any(r == ("M1",) for r in results)

    def test_different_readers_get_different_selections(self):
        sim, feed = self.make_feed(drop_prob=0.3, noise_sd=5.0,
                                   index_lag_median=0.2,
                                   index_lag_sigma=1.0)
        for i in range(5):
            feed.write("alice", f"M{i}")
        sim.run_until(0.5)
        views = {feed.read(reader) for reader in
                 ("bob", "carol", "dave", "erin")}
        assert len(views) > 1

"""Long-campaign resource bounds: retention must keep state flat.

The paper's campaigns ran for a month per service.  Our simulated
equivalents must not accumulate state linearly with campaign length:
every store prunes by retention horizon, and the per-test records the
runner keeps are compact.  These tests run longer-than-usual campaigns
and check the service-side state directly.
"""

import gc
import io
import tracemalloc
import types

from repro.io import TraceEventWriter, iter_trace_events
from repro.methodology import CampaignConfig, MeasurementWorld, run_campaign
from repro.methodology import PAPER_PLANS, TestRecord
from repro.methodology.test1 import run_test1
from repro.sim import spawn
from repro.stream import OpIngest, StreamEngine
from repro.stream.ingest import feed_events
from tests.helpers import make_trace, read, write


def run_many_test1(world, count, plan):
    for index in range(count):
        process = spawn(world.sim, run_test1, world, f"m{index}",
                        plan)
        while not process.completion.done:
            world.sim.run_until(world.sim.now + 60.0)
        world.sim.run_until(world.sim.now + 15.0)


class TestStoreRetention:
    def test_blogger_store_stays_bounded(self):
        world = MeasurementWorld("blogger", seed=3)
        plan = PAPER_PLANS["blogger"].test1
        run_many_test1(world, 6, plan)
        early_size = len(world.service._group.store)
        run_many_test1(world, 6, plan)
        later_size = len(world.service._group.store)
        # 6 writes per test; without the measured cap this would grow
        # by 36 — retention is 600s and the virtual time here is short,
        # so the store grows but the version history must not explode.
        assert later_size <= early_size + 6 * 6
        assert world.service._group.store.version_count < 200

    def test_googleplus_retention_prunes_old_tests(self):
        world = MeasurementWorld("googleplus", seed=3)
        plan = PAPER_PLANS["googleplus"].test1
        run_many_test1(world, 3, plan)
        replica = world.service._group.replica("gplus-dc-us")
        # Advance beyond the retention horizon; a fresh write triggers
        # pruning of everything older.
        world.sim.run_until(world.sim.now + 700.0)
        replica.accept_write("fresh", "probe")
        assert len(replica.store) <= 3
        assert not any(
            mid.startswith("m0.") for mid in replica.store.view_now()
        )


class TestRecordCompactness:
    def test_records_do_not_retain_traces_by_default(self):
        result = run_campaign("blogger", CampaignConfig(
            num_tests=4, seed=3,
        ))
        assert all(record.trace is None for record in result.records)

    def test_observation_counts_stay_proportionate(self):
        # Even the most anomalous service yields bounded observation
        # lists per record (one per read at worst).
        result = run_campaign("facebook_feed", CampaignConfig(
            num_tests=4, seed=3,
        ))
        for record in result.records:
            total_reads = sum(record.reads_per_agent.values())
            for observations in record.report.observations.values():
                # Divergence anomalies: <= one per pair; session
                # anomalies: bounded by reads x writers.
                assert len(observations) <= max(total_reads * 6, 3)


def retained_bytes(service: str, config: CampaignConfig,
                   **options) -> int:
    """Traced heap a finished campaign's result still holds, after
    ``gc.collect()``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_campaign(service, config, **options)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.records
    return retained


class TestTelemetryOnDemand:
    def test_a_default_campaign_retains_a_third_of_a_traced_one(self):
        """Spans are stored only for a caller that exports them: with
        them, a 10-tests/type Blogger campaign retains ~0.63 MiB;
        without them ~0.06 MiB.  The bound is a third."""
        config = CampaignConfig(num_tests=10, seed=5)
        # Warm imports and module-level caches outside the measurement.
        run_campaign("blogger", CampaignConfig(num_tests=1, seed=5))
        default = retained_bytes("blogger", config)
        traced = retained_bytes("blogger", config, spans=True)
        assert default <= traced / 3


def reachable_records(root) -> int:
    """Distinct ``TestRecord`` objects the garbage collector can reach
    from ``root`` through data (not through classes or modules)."""
    seen, stack, records = set(), [root], 0
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(
                item, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(item))
        records += isinstance(item, TestRecord)
        stack.extend(gc.get_referents(item))
    return records


class TestFollowModeRetention:
    def test_feed_events_consumer_keeps_only_the_horizon(self):
        """``stream --follow`` keeps no record past the eviction
        horizon: every closed record must leave with it."""
        sink = io.StringIO()
        writer = TraceEventWriter(sink)
        for index in range(200):
            trace = make_trace([
                write("oregon", f"m{index}", at=1.0),
                read("oregon", [], at=2.0),
            ], test_id=f"follow-{index}")
            writer.test_opened(trace)
            for op in trace.operations:
                writer.operation(trace, op)
            writer.test_closed(trace)
        ingest = OpIngest(StreamEngine(horizon=4))
        events = iter_trace_events(sink.getvalue().splitlines())
        for _ in feed_events(events, ingest):
            pass
        assert ingest.engine.tests_closed == 200
        assert reachable_records(ingest) <= 4

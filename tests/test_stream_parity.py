"""Feed parity (the repro.stream anchor).

Every predicate, window and metric has one implementation, so there
are no two code paths to compare.  What needs proving is that the
three ways operations *reach* that implementation deliver the same
stream:

* **sorted replay** — ``analyze_trace`` sorts the finished trace into
  canonical order and runs the consumers to completion;
* **the live sequencer** — :class:`OpIngest` receives operations in
  true-time order while the test runs and restores canonical order
  with its watermark buffer;
* **archived events** — ``feed_events`` drives a fresh ``OpIngest``
  from the trace-event JSONL a :class:`TraceEventWriter` wrote.

All three must distill record-for-record identical results.  Driven
two ways: seeded adversarial synthetic traces (concurrent zero-gap
ops, skewed clocks, partial and reordered observations) that no
service plan exercises, and real simulator campaigns — including
masked sessions and the Facebook-group partition nemesis — with and
without all five relation metrics.  (That the one implementation is
*right* is the oracle's job: ``tests/test_checker_oracle.py``.)
"""

import io as stdio

import pytest

from repro.io import TraceEventWriter, iter_trace_events
from repro.methodology import CampaignConfig, run_campaign
from repro.methodology.runner import analyze_trace
from repro.relations import metric_names, resolve_metrics
from repro.sim.random_source import RandomSource
from repro.stream import OpIngest, StreamEngine, record_mismatches
from repro.stream.ingest import feed_events, replay_trace
from tests.helpers import make_trace, read, write

AGENTS = ("oregon", "tokyo", "ireland")
ALL_METRICS = metric_names()


def random_trace(seed: int):
    """One adversarial trace drawn from a seeded stream.

    Ops get small random gaps (often zero → heavy time ties), each
    agent a random clock delta, reads observe a random-order sample of
    the issued message ids (omitting freely), and about half the
    traces carry explicit WFR triggers.  Reads may be zero-duration
    (stressing the writes-first tie-break); writes always take
    positive time, as every real trace's do — a zero-duration write
    is the tie canonical stream order *defines*
    (:mod:`repro.core.stream`), pinned by example in
    ``test_checker_oracle.py``.
    """
    rng = RandomSource(seed=seed).stream("parity.trace")
    deltas = {agent: rng.uniform(-0.5, 0.5) for agent in AGENTS}
    operations = []
    issued: list[str] = []
    triggers: dict[str, frozenset[str]] = {}
    clock = {agent: rng.uniform(0.0, 0.2) for agent in AGENTS}
    for index in range(rng.randrange(12, 40)):
        agent = AGENTS[rng.randrange(0, len(AGENTS))]
        at = clock[agent]
        if issued and rng.random() < 0.55:
            latency = rng.choice((0.0, 0.0, 0.01, 0.05, 0.2))
            count = rng.randrange(0, len(issued) + 1)
            observed = rng.sample(issued, count)
            operations.append(
                read(agent, tuple(observed), at, response=at + latency)
            )
        else:
            latency = rng.choice((0.01, 0.05, 0.2))
            mid = f"m{index}"
            operations.append(
                write(agent, mid, at, response=at + latency)
            )
            if issued and rng.random() < 0.5:
                triggers[mid] = frozenset(
                    issued[rng.randrange(0, len(issued))]
                    for _ in range(rng.randrange(1, 3))
                )
            issued.append(mid)
        clock[agent] = at + latency + rng.choice((0.0, 0.01, 0.3))
    return make_trace(
        operations,
        agents=AGENTS,
        test_id=f"rand-{seed}",
        clock_deltas=deltas,
        wfr_triggers=triggers if seed % 2 else {},
    )


class Tee:
    """Forward the observer protocol to several observers, in order."""

    def __init__(self, *observers):
        self.observers = observers

    def test_opened(self, trace):
        for observer in self.observers:
            observer.test_opened(trace)

    def operation(self, trace, op):
        for observer in self.observers:
            observer.operation(trace, op)

    def test_closed(self, trace):
        for observer in self.observers:
            observer.test_closed(trace)


def archived_records(payload: str, specs=()) -> list:
    """Records a fresh ingest distills from trace-event JSONL."""
    records = []
    ingest = OpIngest(
        StreamEngine(horizon=1, metrics=specs),
        on_record=lambda meta, record: records.append(record))
    for _ in feed_events(iter_trace_events(payload.splitlines()),
                         ingest):
        pass
    assert ingest.engine.open_tests == 0 and ingest.state_size() == 0
    return records


def trace_feed_mismatches(trace, metrics=()) -> list[str]:
    """Diffs between one finished trace's record via the three feeds.

    The live feed gets the operations in recording order — each
    agent's own clock is monotonic there, which is all the sequencer
    assumes.
    """
    specs = resolve_metrics(metrics)
    sink = stdio.StringIO()
    records = []
    ingest = OpIngest(
        StreamEngine(horizon=1, metrics=specs),
        on_record=lambda meta, record: records.append(record))
    live = Tee(TraceEventWriter(sink), ingest)
    live.test_opened(trace)
    for op in trace.operations:
        live.operation(trace, op)
    live.test_closed(trace)
    expected = analyze_trace(trace, metrics=specs)
    (online,) = records
    (archived,) = archived_records(sink.getvalue(), specs)
    return [
        f"{feed}: {mismatch}"
        for feed, record in (("live", online), ("archived", archived))
        for mismatch in record_mismatches(expected, record)
    ]


def campaign_feed_mismatches(service, config) -> tuple[list, list[str]]:
    """Run one campaign analyzed live; diff it against the other feeds.

    Returns the campaign's records (traces kept) and every mismatch
    between them, ``analyze_trace`` of the kept trace, and the replay
    of the trace-event file written during the run.
    """
    specs = resolve_metrics(config.metrics)
    sink = stdio.StringIO()
    records = []
    ingest = OpIngest(
        StreamEngine(horizon=1, metrics=specs), keep_traces=True,
        on_record=lambda meta, record: records.append(record))
    result = run_campaign(
        service, config,
        observer=Tee(TraceEventWriter(sink), ingest))
    assert ingest.engine.open_tests == 0 and ingest.state_size() == 0
    archived = archived_records(sink.getvalue(), specs)
    assert len(archived) == len(records) == len(result.records) > 0
    mismatches = []
    for live, replayed in zip(records, archived):
        expected = analyze_trace(live.trace, metrics=specs)
        for feed, record in (("live", live), ("archived", replayed)):
            mismatches.extend(
                f"{live.test_id} {feed}: {mismatch}"
                for mismatch in record_mismatches(expected, record))
    return records, mismatches


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(30))
    def test_streaming_equals_batch(self, seed):
        """Sorted replay == live sequencer == archived events."""
        assert trace_feed_mismatches(random_trace(seed)) == []

    def test_random_traces_are_not_trivially_clean(self):
        """The fuzz corpus actually exercises the anomaly paths."""
        seen = set()
        for seed in range(30):
            record = analyze_trace(random_trace(seed))
            seen.update(kind for kind, obs
                        in record.report.observations.items() if obs)
        assert {"read_your_writes", "monotonic_writes",
                "monotonic_reads", "content_divergence",
                "order_divergence"} <= seen


def campaign_parity(service, **overrides):
    """Feed parity of a small campaign, with and without metrics."""
    for metrics in ((), ALL_METRICS):
        records, mismatches = campaign_feed_mismatches(
            service, CampaignConfig(num_tests=3, seed=29,
                                    metrics=metrics, **overrides))
        assert mismatches == []
    return records


class TestCampaignParity:
    @pytest.mark.parametrize("service", ["blogger", "googleplus"])
    def test_paper_services(self, service):
        campaign_parity(service)

    def test_masked_sessions(self):
        """Client-side masking rewrites observations; parity holds."""
        campaign_parity("facebook_feed", mask_sessions=True)

    def test_partition_nemesis_reads(self):
        """Facebook-group test2 runs under the partition nemesis, so
        partition-era reads produce real divergence windows."""
        records = campaign_parity("facebook_group",
                                  test_types=("test2",))
        assert any(record.report.has("content_divergence")
                   or record.report.has("order_divergence")
                   for record in records), \
            "nemesis campaign produced no divergence"


class TestLiveIngestParity:
    def test_campaign_records_identical_online(self):
        """A campaign analyzed live by OpIngest (watermark sequencer,
        per-op observe) equals the default analyzer record-for-record."""
        config = CampaignConfig(num_tests=4, seed=17)
        live = []
        ingest = OpIngest(
            on_record=lambda meta, record: live.append(record))
        batch = run_campaign("googleplus", config, observer=ingest)
        assert len(live) == len(batch.records)
        for expected, actual in zip(batch.records, live):
            assert record_mismatches(expected, actual) == []
        # Everything closed and drained: no open tests, no buffered
        # ops waiting on the watermark.
        assert ingest.engine.open_tests == 0
        assert ingest.state_size() == 0

    @pytest.mark.parametrize("service", ["blogger", "googleplus",
                                         "facebook_feed",
                                         "facebook_group"])
    def test_live_close_equals_a_fresh_batch_engine(self, service):
        """What a streaming fleet shard reports per test — the record
        and ``state_size()`` of a fresh horizon-1 engine run over the
        finished trace — is what a live ingest's engine reports at the
        same test close, all five metrics on."""
        specs = resolve_metrics(ALL_METRICS)
        live = []
        ingest = OpIngest(
            StreamEngine(horizon=1, metrics=specs),
            on_record=lambda meta, record: live.append(
                (record, ingest.engine.state_size())))
        batch = []

        def analyzer(trace, keep_trace):
            engine = StreamEngine(horizon=1, metrics=specs)
            record = replay_trace(trace, engine)
            batch.append((record, engine.state_size()))
            return record

        run_campaign(service, CampaignConfig(num_tests=3, seed=31,
                                             metrics=ALL_METRICS),
                     observer=ingest, analyzer=analyzer)
        assert len(live) == len(batch) == 6
        for (expected, expected_size), (record, size) in zip(batch,
                                                             live):
            assert record_mismatches(expected, record) == []
            assert size == expected_size, record.test_id

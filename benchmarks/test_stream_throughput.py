"""Streaming engine cost model: throughput and bounded memory.

Not a paper figure — the contributor-facing benchmark behind
``repro.stream``'s two claims:

* **Throughput**: both sides are the *same* engine fed by sorted
  replay — ``analyze_trace`` builds a fresh ``StreamEngine`` per
  trace, the streaming side keeps one engine with obs export on
  across all of them — so ``stream_over_batch`` does not compare two
  implementations: it measures engine construction per trace against
  obs export per closed test.  The printed ops/sec pair is the number
  to watch; the hard assertion only rules out a pathological gap.
* **Bounded memory**: engine state is per-*open*-test and
  horizon-capped records, so the peak stays flat as the stream grows.
  That is asserted **hard**: the same test shapes replayed 10x longer
  must not move the peak ``state_size()`` at all.
* **Work follows view changes**: ``reads``, ``distinct_views`` and
  ``predicate_evaluations`` are exact counts from an untimed pass with
  the two divergence predicates wrapped by counters — the checked-in
  baseline pins "a view is examined once" by count, not by a noisy
  timing band.
"""

import time

from repro.methodology import CampaignConfig, run_campaign
from repro.methodology.runner import analyze_trace
from repro.obs import ObsContext
from repro.stream import (
    StreamEngine,
    TestMeta,
    replay_trace,
    stream_order,
)
from tests.helpers import make_trace, read, write
from tests.test_stream_parity import random_trace
from tests.test_view_sharing import count_engine_predicates

from benchmarks.conftest import BENCH_SEED


def kept_traces():
    num_tests = 15
    result = run_campaign("blogger", CampaignConfig(
        num_tests=num_tests, seed=BENCH_SEED, keep_traces=True,
    ))
    return [record.trace for record in result.records]


def predicate_evaluations(traces, monkeypatch) -> int:
    """Divergence-predicate calls of one engine pass over ``traces``."""
    with monkeypatch.context() as patch:
        calls = count_engine_predicates(patch)
        engine = StreamEngine(horizon=1)
        for trace in traces:
            replay_trace(trace, engine)
    return len(calls)


def test_streaming_vs_batch_throughput(benchmark, bench_json_writer,
                                       monkeypatch):
    traces = kept_traces()
    total_ops = sum(len(t.operations) for t in traces)

    t0 = time.perf_counter()
    for trace in traces:
        analyze_trace(trace)
    batch_s = time.perf_counter() - t0

    def stream_all():
        # Obs on: the measured path must absorb the instrumentation
        # cost (the acceptance contract caps the overhead).
        engine = StreamEngine(horizon=1, obs=ObsContext())
        for trace in traces:
            replay_trace(trace, engine)
        return engine

    t0 = time.perf_counter()
    engine = benchmark.pedantic(stream_all, rounds=1, iterations=1)
    stream_s = time.perf_counter() - t0

    batch_rate = total_ops / batch_s
    stream_rate = total_ops / stream_s
    print(f"\nStreaming throughput ({len(traces)} traces, "
          f"{total_ops} ops):")
    print(f"  batch analyze_trace   {batch_rate:10.0f} ops/s")
    print(f"  streaming engine      {stream_rate:10.0f} ops/s  "
          f"({batch_s / stream_s:.2f}x batch)")

    path = bench_json_writer("stream_throughput", {
        "traces": len(traces),
        "operations": total_ops,
        "reads": sum(len(trace.reads()) for trace in traces),
        "distinct_views": sum(
            len({op.observed for op in trace.reads()})
            for trace in traces),
        "predicate_evaluations": predicate_evaluations(
            traces, monkeypatch),
        "batch_ops_per_second": batch_rate,
        "stream_ops_per_second": stream_rate,
        "stream_over_batch": stream_s / batch_s,
    })
    print(f"  written to {path}")

    assert engine.tests_closed == len(traces)
    assert engine.operations_seen == total_ops
    # Soft cost contract: a kept engine with obs on may cost a constant
    # factor over a fresh one per trace, never an order-of-magnitude
    # cliff.
    assert stream_s < batch_s * 10.0, (
        f"streaming ran {stream_s / batch_s:.1f}x slower than batch"
    )


def shaped_trace(index: int):
    """Deterministic rotation of three fixed test shapes.

    Fixed shapes make the bounded-memory assertion exact: a longer
    stream repeats the same per-test state profiles, so its peak can
    only match, never exceed, the short stream's.
    """
    shape = index % 3
    if shape == 0:
        ops = [
            write("oregon", f"m{index}-1", 0.0),
            read("oregon", (), 0.3),
            read("tokyo", (f"m{index}-1",), 0.5),
            read("ireland", (), 0.6),
        ]
    elif shape == 1:
        ops = [
            write("tokyo", f"m{index}-1", 0.0),
            write("tokyo", f"m{index}-2", 0.2),
            read("oregon", (f"m{index}-2", f"m{index}-1"), 0.6),
            read("ireland", (f"m{index}-1",), 0.8),
            read("oregon", (f"m{index}-1", f"m{index}-2"), 1.2),
        ]
    else:
        ops = [
            write("ireland", f"m{index}-1", 0.0),
            read("oregon", (f"m{index}-1",), 0.4),
            read("tokyo", (), 0.5),
            read("tokyo", (f"m{index}-1",), 0.9),
        ]
    return make_trace(ops, test_id=f"shape-{index}")


def peak_state(num_tests: int) -> int:
    engine = StreamEngine(horizon=4)
    peak = 0
    for index in range(num_tests):
        trace = shaped_trace(index)
        meta = TestMeta.from_trace(trace)
        engine.open_test(meta)
        for sop in stream_order(trace, meta):
            engine.observe(meta, sop)
            peak = max(peak, engine.state_size())
        engine.close_test(meta)
        peak = max(peak, engine.state_size())
    assert engine.tests_closed == num_tests
    return peak


def test_peak_state_flat_under_10x_growth():
    base_tests = 30
    short_peak = peak_state(base_tests)
    long_peak = peak_state(base_tests * 10)
    print(f"\nBounded memory: peak state {short_peak} atoms "
          f"({base_tests} tests) vs {long_peak} atoms "
          f"({base_tests * 10} tests)")
    assert short_peak > 0
    # The hard bound: 10x the stream, identical peak.
    assert long_peak == short_peak


def test_peak_state_flat_on_randomized_stream():
    """Same bound on adversarial traces: the long stream draws from
    the same seeded corpus, so its peak is capped by the corpus
    maximum the short stream already visited."""
    corpus = 12

    def peak(num_tests: int) -> int:
        engine = StreamEngine(horizon=4)
        peak = 0
        for index in range(num_tests):
            trace = random_trace(index % corpus)
            trace.test_id = f"rand-{index}"
            meta = TestMeta.from_trace(trace)
            engine.open_test(meta)
            for sop in stream_order(trace, meta):
                engine.observe(meta, sop)
                peak = max(peak, engine.state_size())
            engine.close_test(meta)
            peak = max(peak, engine.state_size())
        return peak

    short_peak = peak(corpus)
    long_peak = peak(corpus * 10)
    assert short_peak > 0
    assert long_peak == short_peak

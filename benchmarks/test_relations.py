"""Relation-layer cost model: metric evaluation throughput + goldens.

Not a paper figure — the contributor-facing benchmark behind
``repro.relations``'s two claims:

* **Cheap enough to leave on**: ``metrics_over_plain`` compares the
  same engine (``analyze_trace`` = ``StreamEngine`` run to
  completion) with and without the metric evaluator, so it is the
  cost of every spec-defined metric and nothing else; the printed
  traces/sec pair is the number to watch, the hard assertion only
  rules out a pathological cliff.
* **Pinned values**: the deterministic totals and campaign
  signatures in the emitted ``BENCH_relations.json`` come from the
  one evaluator inside that engine; the checked-in baseline pins
  them.
"""

import time

from repro.fleet.digest import campaign_signature
from repro.methodology import CampaignConfig, run_campaign
from repro.methodology.runner import analyze_trace
from repro.relations import resolve_metrics
from repro.relations.registry import metric_names

from benchmarks.conftest import BENCH_SEED

SERVICES = ("blogger", "facebook_feed", "quorum_kv")
NUM_TESTS = 6


def kept_campaigns():
    return {
        service: run_campaign(service, CampaignConfig(
            num_tests=NUM_TESTS, seed=BENCH_SEED, keep_traces=True,
            metrics=metric_names(),
        ))
        for service in SERVICES
    }


def test_metric_evaluation_throughput(benchmark, bench_json_writer):
    specs = resolve_metrics(metric_names())
    campaigns = kept_campaigns()
    traces = [record.trace
              for result in campaigns.values()
              for record in result.records]

    t0 = time.perf_counter()
    for trace in traces:
        analyze_trace(trace)
    plain_s = time.perf_counter() - t0

    def with_metrics():
        return [analyze_trace(trace, metrics=specs)
                for trace in traces]

    t0 = time.perf_counter()
    records = benchmark.pedantic(with_metrics, rounds=1, iterations=1)
    metrics_s = time.perf_counter() - t0

    plain_rate = len(traces) / plain_s
    metrics_rate = len(traces) / metrics_s
    print(f"\nMetric evaluation ({len(traces)} traces, "
          f"{len(specs)} specs):")
    print(f"  analyze_trace          {plain_rate:10.1f} traces/s")
    print(f"  + relation metrics     {metrics_rate:10.1f} traces/s  "
          f"({metrics_s / plain_s:.2f}x plain)")

    totals = {}
    for service, result in campaigns.items():
        per_metric = {spec.name: 0.0 for spec in specs}
        for record in result.records:
            for metric_result in record.metrics:
                if metric_result.metric in per_metric:
                    per_metric[metric_result.metric] += \
                        metric_result.value
        totals[service] = per_metric

    path = bench_json_writer("relations", {
        "num_tests": NUM_TESTS,
        "seed": BENCH_SEED,
        "metrics": list(metric_names()),
        "traces": len(traces),
        "metric_totals": totals,
        "signatures": {
            service: campaign_signature(result)
            for service, result in campaigns.items()
        },
        "plain_traces_per_s": plain_rate,
        "metrics_traces_per_s": metrics_rate,
        "metrics_over_plain": metrics_s / plain_s,
    })
    print(f"  written to {path}")

    assert all(record.metrics for record in records)
    # Soft cost contract: the metric evaluator may cost a constant
    # factor over the six checkers, never an order of magnitude.
    assert metrics_s < plain_s * 10.0, (
        f"metrics ran {metrics_s / plain_s:.1f}x slower than plain "
        "analysis"
    )

"""Extension ablation: the quorum consistency knob (paper future work).

The paper's conclusion proposes applying its black-box methodology to
large-scale storage systems.  This bench does exactly that against the
Dynamo-style quorum store, sweeping the R/W knob and printing the
anomaly signature per configuration — the measurement-study analogue
of the classic quorum-intersection result:

* ``R=1, W=1``  — weakest: session anomalies and divergence abound.
* ``R=2, W=2``  — overlapping quorums (R+W>N): session anomalies
  vanish; only cross-client divergence from in-flight writes remains.
* ``R=3, W=1`` / ``R=1, W=3`` — each one-sided quorum also removes
  session anomalies, trading read vs write latency.
"""

from repro.core import (
    CONTENT_DIVERGENCE,
    MONOTONIC_READS,
    MONOTONIC_WRITES,
    READ_YOUR_WRITES,
)
from repro.methodology import CampaignConfig, run_campaign
from repro.replication import QuorumParams
from repro.services import QuorumKvParams

from benchmarks.conftest import BENCH_SEED

SWEEP = ((1, 1), (2, 2), (3, 1), (1, 3))


def run_config(read_quorum, write_quorum, num_tests):
    params = QuorumKvParams(quorum=QuorumParams(
        read_quorum=read_quorum, write_quorum=write_quorum,
    ))
    return run_campaign("quorum_kv", CampaignConfig(
        num_tests=num_tests, seed=BENCH_SEED, service_params=params,
    ))


def test_quorum_knob(benchmark):
    num_tests = 20
    results = {
        (r, w): run_config(r, w, num_tests) for r, w in SWEEP
    }
    summaries = benchmark(lambda: {
        key: result.summary() for key, result in results.items()
    })

    print("\nQuorum knob: anomaly prevalence per (R, W) "
          f"({num_tests} tests/type, N=3):")
    anomalies = (READ_YOUR_WRITES, MONOTONIC_WRITES, MONOTONIC_READS,
                 CONTENT_DIVERGENCE)
    header = f"{'R,W':8s}" + "".join(f"{a[:14]:>16s}" for a in anomalies)
    print(header)
    print("-" * len(header))
    for (r, w), summary in summaries.items():
        cells = "".join(f"{summary[a]:15.0%} " for a in anomalies)
        print(f"R={r} W={w} {cells}")

    weak = summaries[(1, 1)]
    strict = summaries[(2, 2)]

    # The weak configuration violates session guarantees heavily...
    assert weak[READ_YOUR_WRITES] >= 0.4
    assert weak[CONTENT_DIVERGENCE] >= 0.4
    # ...and every overlapping-quorum configuration eliminates them.
    for r, w in ((2, 2), (3, 1), (1, 3)):
        summary = summaries[(r, w)]
        assert summary[READ_YOUR_WRITES] == 0.0, (r, w)
        assert summary[MONOTONIC_READS] == 0.0, (r, w)
    # Divergence from in-flight writes shrinks but need not vanish.
    assert strict[CONTENT_DIVERGENCE] < weak[CONTENT_DIVERGENCE]

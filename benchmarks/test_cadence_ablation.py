"""Design ablation: Test 2's read cadence as the detector's recall curve.

The paper's Test 2 reads every 300 ms during the initial burst — "This
allows for a higher resolution in the period when the writes are more
likely to become visible" — then every 1 s.  This bench runs Google+
Test 2 at that schedule and at flat periods over its ≈ 35 s span (18–59
reads per agent, inside Table II's 17–75): one point each of the
content-divergence detector's recall curve, §VI's "white-box testing"
as a number.  Per schedule it prints the median first read after the
writes (seconds after an agent's own write, on its clock), the
Figure 3 cell (``claims.fig3_lines``), the share of tests with a
content window (views that overlapped in time) and, on the simulator's
timeline (``analysis.validation.ground_truth_trace``), that share and
the Ireland-pair window medians.

The curve is not monotone in the period because every Google+ test
opens one short Ireland-pair window at a nearly fixed offset: on the
true timeline it opens ≈ 0.14–0.22 s (p10–p50) after the first write
and lasts ≈ 0.9–1.0 s.  Test 2's reads start ≈ 1.23 s before the
writes (the start lead plus twice the clock uncertainty,
``methodology/test2.py``), so a flat period P reads at −1.23 + kP s
after them, and the cell is high exactly when one of those reads lands
in the window: the paper's 0.3 s burst always does (+0.28 s), a flat
1.5 s does too (+0.28 s), a flat 1.0 s reads at −0.22 and +0.78 s and
often misses it.  A window edge
is known to within the read gap around it, so flat periods slower than
the paper's slowest inflate the measured windows.
"""

import statistics
from dataclasses import replace

from repro.analysis import window_cdfs
from repro.analysis.validation import ground_truth_trace
from repro.calibrate.claims import fig3_lines
from repro.core import CONTENT_DIVERGENCE
from repro.core.trace import ReadOp, WriteOp
from repro.methodology import (
    PAPER_PLANS,
    CampaignConfig,
    analyze_trace,
    run_campaign,
)
from repro.methodology.records import CampaignResult

from benchmarks.conftest import BENCH_SEED

PLAN = PAPER_PLANS["googleplus"]
IRELAND_PAIRS = (("ireland", "oregon"), ("ireland", "tokyo"))
SPAN = 35.2  # s: the paper schedule's 14 reads at 0.3 s, then 31 at 1 s
SCHEDULES = {"paper": PLAN.test2, **{
    f"flat {period} s": replace(PLAN.test2, fast_reads=0,
                                slow_read_period=period,
                                reads_per_agent=int(SPAN / period) + 1)
    for period in (0.6, 1.0, 1.5, 2.0)}}


def run_with_cadence(test2, num_tests):
    """One schedule's black-box campaign and its ground-truth twin."""
    result = run_campaign("googleplus", CampaignConfig(
        num_tests=num_tests, seed=BENCH_SEED, test_types=("test2",),
        keep_traces=True,
    ), plan=replace(PLAN, test2=test2))
    return result, CampaignResult(result.service, result.config, [
        analyze_trace(ground_truth_trace(record.trace))
        for record in result.records])


def windows(result):
    """(share of tests with a content window, Ireland-pair medians)."""
    cdfs = window_cdfs(result, kind="content")
    return (sum(any(window.diverged
                    for window in record.content_windows.values())
                for record in result.records) / result.total_tests,
            [None if cdf is None else cdf.median
             for cdf in map(cdfs.cdf, IRELAND_PAIRS)])


def first_read_offset(result):
    """Median over tests and agents of an agent's first read after its
    own write, in seconds after that write on the agent's clock."""
    offsets = []
    for record in result.records:
        operations = record.trace.operations
        for agent in record.trace.agents:
            (write,) = [op.invoke_local for op in operations
                        if isinstance(op, WriteOp) and op.agent == agent]
            offsets.append(min(
                op.invoke_local - write for op in operations
                if isinstance(op, ReadOp) and op.agent == agent
                and op.invoke_local > write))
    return statistics.median(offsets)


def curve_point(result, truth):
    (cd,) = [verdict for verdict in fig3_lines("googleplus", [result])
             if verdict.claim.id.endswith(CONTENT_DIVERGENCE)]
    return result.reads_per_agent("test2"), first_read_offset(result), \
        cd, windows(result), windows(truth)


def test_cadence_ablation(benchmark):
    num_tests = 30
    runs = {name: run_with_cadence(test2, num_tests)
            for name, test2 in SCHEDULES.items()}
    curve = benchmark(lambda: {name: curve_point(*run)
                               for name, run in runs.items()})

    print(f"\nGoogle+ Test 2 recall curve ({num_tests} tests, seed "
          f"{BENCH_SEED}): reads per agent, first read after the writes "
          "(s), content-divergence cell, then the share with a window "
          "and the Ireland-oregon / -tokyo medians (s), black-box | "
          "ground truth")
    for name, (reads, offset, cd, *frames) in curve.items():
        print(f"  {name:11s}{reads:4.0f}{offset:+6.2f}{cd.value:7.3f} "
              f"[{cd.interval[0]:.3f}, {cd.interval[1]:.3f}] "
              f"{cd.kind:10s}" + " | ".join(
                  f"{share:.3f} " + " / ".join(
                      "n/a" if m is None else f"{m:.2f}" for m in medians)
                  for share, medians in frames))

    for name, (_, _, cd, _, (truth, _)) in curve.items():
        low, high = cd.interval
        assert low <= truth <= high, (
            f"{name}: ground-truth share {truth:.3f} outside the "
            f"black-box interval [{low:.3f}, {high:.3f}]")
    # The paper's "up to 85 %" lies within the curve's intervals.
    cells = [cd for _, _, cd, _, _ in curve.values()]
    assert min(cd.interval[0] for cd in cells) <= cells[0].claim.paper \
        <= max(cd.interval[1] for cd in cells)

    fine = curve["paper"][3][1]
    assert None not in fine, "adaptive schedule must detect windows"
    for name in ("flat 1.5 s", "flat 2.0 s"):  # slower than 1 s
        for pair, adaptive, coarse in zip(IRELAND_PAIRS, fine,
                                          curve[name][3][1]):
            if coarse is None:
                continue  # the flat cadence missed the pair entirely
            assert coarse > adaptive, (
                f"{pair}: {name} cadence should coarsen the measured "
                f"window ({coarse:.2f}s vs {adaptive:.2f}s)")

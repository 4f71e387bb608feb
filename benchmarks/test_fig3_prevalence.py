"""Figure 3: percentage of tests with each anomaly, per service.

The paper's headline figure.  Shape requirements reproduced here:

* Blogger shows **no anomalies of any type** (strong consistency).
* Facebook Feed and Google+ exhibit **all six** anomaly types.
* Facebook Group shows **no read-your-writes and no order
  divergence**, but massive monotonic-writes prevalence (93% in the
  paper) from the same-second timestamp tie-break.
* Read-your-writes: Facebook Feed (99%) far above Google+ (22%).
* Monotonic writes: both Facebook services high, Google+ low (6%).
"""

from repro.analysis import prevalence_rows, prevalence_table
from repro.core import (
    CONTENT_DIVERGENCE,
    MONOTONIC_READS,
    MONOTONIC_WRITES,
    ORDER_DIVERGENCE,
    READ_YOUR_WRITES,
    WRITES_FOLLOW_READS,
)

def fractions(result):
    return {row.anomaly: row.fraction
            for row in prevalence_rows(result)}


def test_fig3(campaigns, benchmark):
    table = benchmark(lambda: prevalence_table(campaigns))
    print("\nFigure 3: % of tests with observations of each anomaly")
    print(table)

    measured = {service: fractions(result)
                for service, result in campaigns.items()}

    # Blogger: nothing, ever.
    assert all(value == 0.0 for value in measured["blogger"].values())

    # Google+ and Facebook Feed: every anomaly type present.
    for service in ("googleplus", "facebook_feed"):
        assert all(value > 0.0 for value in measured[service].values()), \
            f"{service} must exhibit all six anomaly types"

    # Facebook Group: no RYW, no order divergence, near-universal MW.
    group = measured["facebook_group"]
    assert group[READ_YOUR_WRITES] == 0.0
    assert group[ORDER_DIVERGENCE] == 0.0
    assert group[MONOTONIC_WRITES] >= 0.80
    assert group[MONOTONIC_READS] <= 0.10
    assert group[WRITES_FOLLOW_READS] <= 0.10

    # Cross-service ordering from the paper's text.
    feed, gplus = measured["facebook_feed"], measured["googleplus"]
    assert feed[READ_YOUR_WRITES] >= 0.95          # "99%"
    assert feed[READ_YOUR_WRITES] > 2 * gplus[READ_YOUR_WRITES]
    assert feed[MONOTONIC_WRITES] > 4 * gplus[MONOTONIC_WRITES]
    assert gplus[MONOTONIC_WRITES] <= 0.20         # "6%"
    assert 0.05 <= gplus[READ_YOUR_WRITES] <= 0.45  # "22%"
    assert 0.05 <= gplus[MONOTONIC_READS] <= 0.45   # "25%"
    assert feed[MONOTONIC_READS] >= 0.25            # "46%"
    assert feed[ORDER_DIVERGENCE] >= 0.95           # "near 100%"
    assert feed[CONTENT_DIVERGENCE] >= 0.50         # "above 50%"
    assert gplus[CONTENT_DIVERGENCE] >= 0.70        # "up to 85%"
    assert 0.02 <= gplus[ORDER_DIVERGENCE] <= 0.35  # "~14%"

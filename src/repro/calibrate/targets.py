"""Versioned paper targets: the numbers every service model must hit.

One :class:`ServiceTargets` per measured service collects everything
§V of *Characterizing the Consistency of Online Services* (DSN 2016)
publishes about that service:

* **Figure 3** — per-anomaly prevalence (fraction of tests exhibiting
  each of the six anomalies, session anomalies on Test 1, divergence
  anomalies on Test 2).
* **Figure 8** — per-agent-pair content/order divergence rates, the
  figure behind the paper's inference that Oregon and Tokyo share a
  Google+ datacenter.
* **Figures 9/10** — per-pair divergence-window medians (the 50th
  percentile of each pair's largest-window CDF).
* **Tables I/II** — reads per agent per Test 1 instance, which pins
  each service's effective test duration and read cadence.

These dicts are the *single source of truth*: the claims table
(:mod:`repro.calibrate.claims`) reads them as the paper's values of
its rows, and each number is the ``paper`` value of exactly one
weighted row — so the objectives built from those rows
(:mod:`repro.calibrate.objective`) and ``tools/gates.py fidelity``
score against them too.  Prevalences and read counts are the paper's
stated values; per-pair rates and window medians are read off the
published figures to the nearest sensible value (the paper prints
CDFs, not tables), hence the lower weight of the window medians' rows.

``TARGETS_VERSION`` bumps whenever any number changes, so
``fidelity.json`` exports can be matched to the targets they were
scored against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CalibrationError

__all__ = [
    "TARGETS_VERSION",
    "ServiceTargets",
    "PAPER_TARGETS",
    "paper_targets",
    "target_services",
]

#: Bump on any change to the numbers below.
TARGETS_VERSION = 1

#: Sorted agent-name pair, the key type used by the analysis pipeline.
Pair = tuple[str, str]

#: The three vantage points of every paper campaign.
IRELAND_OREGON: Pair = ("ireland", "oregon")
IRELAND_TOKYO: Pair = ("ireland", "tokyo")
OREGON_TOKYO: Pair = ("oregon", "tokyo")


@dataclass(frozen=True)
class ServiceTargets:
    """Everything the paper publishes about one service's behaviour."""

    service: str
    #: Figure 3: anomaly name -> fraction of tests exhibiting it.
    prevalence: dict[str, float] = field(default_factory=dict)
    #: Tables I/II: reads per agent per Test 1 instance.
    reads_test1: float = 0.0
    #: Figure 8: pair -> fraction of Test 2 runs with content
    #: divergence between that pair.
    pair_content: dict[Pair, float] = field(default_factory=dict)
    #: Figure 8: pair -> fraction of Test 2 runs with order divergence.
    pair_order: dict[Pair, float] = field(default_factory=dict)
    #: Figure 9: pair -> median largest content-divergence window (s).
    content_window_median: dict[Pair, float] = field(
        default_factory=dict
    )
    #: Figure 10: pair -> median largest order-divergence window (s).
    order_window_median: dict[Pair, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, fraction in sorted(self.prevalence.items()):
            if not 0.0 <= fraction <= 1.0:
                raise CalibrationError(
                    f"{self.service}: prevalence target for {name} "
                    f"must be a fraction, got {fraction!r}"
                )
        for label, table in (("pair_content", self.pair_content),
                             ("pair_order", self.pair_order)):
            for pair, fraction in sorted(table.items()):
                if tuple(sorted(pair)) != pair:
                    raise CalibrationError(
                        f"{self.service}: {label} pair {pair!r} is "
                        "not sorted (agent pairs are keyed sorted)"
                    )
                if not 0.0 <= fraction <= 1.0:
                    raise CalibrationError(
                        f"{self.service}: {label} target for {pair} "
                        f"must be a fraction, got {fraction!r}"
                    )


#: §V, per service.  Anomaly keys match ``repro.core.anomalies``.
PAPER_TARGETS: dict[str, ServiceTargets] = {
    "googleplus": ServiceTargets(
        service="googleplus",
        prevalence={
            "read_your_writes": 0.22,
            "monotonic_writes": 0.06,
            "monotonic_reads": 0.25,
            "writes_follow_reads": 0.10,
            "content_divergence": 0.85,
            "order_divergence": 0.14,
        },
        reads_test1=48,
        # Figure 8: both Ireland pairs diverge in ~85% of tests; the
        # Oregon-Tokyo pair far less often (same datacenter).
        pair_content={
            IRELAND_OREGON: 0.85,
            IRELAND_TOKYO: 0.85,
            OREGON_TOKYO: 0.15,
        },
        pair_order={
            IRELAND_OREGON: 0.14,
            IRELAND_TOKYO: 0.14,
            OREGON_TOKYO: 0.01,
        },
        # Figures 9/10: Ireland pairs converge in seconds; the
        # intra-datacenter pair almost immediately.  Order windows
        # stretch toward tens of seconds.
        content_window_median={
            IRELAND_OREGON: 2.0,
            IRELAND_TOKYO: 2.0,
            OREGON_TOKYO: 0.3,
        },
        order_window_median={
            IRELAND_OREGON: 8.0,
            IRELAND_TOKYO: 8.0,
        },
    ),
    "blogger": ServiceTargets(
        service="blogger",
        prevalence={
            "read_your_writes": 0.0,
            "monotonic_writes": 0.0,
            "monotonic_reads": 0.0,
            "writes_follow_reads": 0.0,
            "content_divergence": 0.0,
            "order_divergence": 0.0,
        },
        reads_test1=11,
    ),
    "facebook_feed": ServiceTargets(
        service="facebook_feed",
        prevalence={
            "read_your_writes": 0.99,
            "monotonic_writes": 0.89,
            "monotonic_reads": 0.46,
            "writes_follow_reads": 0.50,
            "content_divergence": 0.60,
            "order_divergence": 1.00,
        },
        reads_test1=14,
        # Figure 8: the ranked feed diverges uniformly across pairs —
        # ranking, not replica placement, drives the divergence.
        pair_content={
            IRELAND_OREGON: 0.60,
            IRELAND_TOKYO: 0.60,
            OREGON_TOKYO: 0.60,
        },
        pair_order={
            IRELAND_OREGON: 1.00,
            IRELAND_TOKYO: 1.00,
            OREGON_TOKYO: 1.00,
        },
        # Figure 9: content differences resolve sub-second; order
        # disagreements (ranking) persist for seconds.
        content_window_median={
            IRELAND_OREGON: 0.5,
            IRELAND_TOKYO: 0.5,
            OREGON_TOKYO: 0.5,
        },
        order_window_median={
            IRELAND_OREGON: 5.0,
            IRELAND_TOKYO: 5.0,
            OREGON_TOKYO: 5.0,
        },
    ),
    "facebook_group": ServiceTargets(
        service="facebook_group",
        prevalence={
            "read_your_writes": 0.00,
            "monotonic_writes": 0.93,
            "monotonic_reads": 0.001,
            "writes_follow_reads": 0.002,
            "content_divergence": 0.013,
            "order_divergence": 0.0,
        },
        reads_test1=11,
    ),
}


def paper_targets(service: str) -> ServiceTargets:
    """The paper's targets for one service, or a clear error."""
    try:
        return PAPER_TARGETS[service]
    except KeyError:
        known = ", ".join(sorted(PAPER_TARGETS))
        raise CalibrationError(
            f"no paper targets for service {service!r} (have: {known})"
        ) from None


def target_services() -> tuple[str, ...]:
    """The services the paper publishes numbers for, sorted."""
    return tuple(sorted(PAPER_TARGETS))

"""Test and campaign configuration (the paper's Tables I and II).

:data:`PAPER_PLANS` encodes, per service, the parameters the paper used
for each test template: the 300 ms read period, Test 2's adaptive
read schedule (N fast reads then 1 s cadence), the cool-down between
successive tests, and the number of tests executed.  Campaigns default
to these parameters but can scale down test counts and cool-downs — the
cool-downs exist only to respect real services' rate limits, so
shrinking them changes nothing for a simulated service except
wall-clock cost.

Table II's "reads per agent per test" for Google+ is a range (17–75)
because rate limiting throttled some runs; we configure the midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "Test1Config",
    "Test2Config",
    "ServicePlan",
    "PAPER_PLANS",
    "CampaignConfig",
]


@dataclass(frozen=True)
class Test1Config:
    """Parameters of the staggered-writes test (Table I)."""

    __test__ = False  # not a pytest class, despite the name

    #: Period between background reads (seconds).
    read_period: float = 0.3
    #: Cool-down between successive tests (seconds).
    inter_test_gap: float = 300.0
    #: Number of test instances the paper executed.
    paper_num_tests: int = 1000
    #: Extra delay between an agent's two consecutive writes (seconds;
    #: 0 = the second write is issued as soon as the first completes).
    inter_write_delay: float = 0.0
    #: Safety limit on one test instance's duration (seconds).
    timeout: float = 180.0

    def __post_init__(self) -> None:
        if self.read_period <= 0:
            raise ConfigurationError("read_period must be positive")
        if self.timeout <= 0:
            raise ConfigurationError("timeout must be positive")


@dataclass(frozen=True)
class Test2Config:
    """Parameters of the simultaneous-writes test (Table II)."""

    __test__ = False  # not a pytest class, despite the name

    #: Initial (fast) read period and how many reads use it.
    fast_read_period: float = 0.3
    fast_reads: int = 14
    #: Cadence after the fast phase ("then 1s").
    slow_read_period: float = 1.0
    #: Total reads each agent performs; the test ends when all finish.
    reads_per_agent: int = 40
    #: Cool-down between successive tests (seconds).
    inter_test_gap: float = 300.0
    paper_num_tests: int = 1000
    #: Lead time between clock sync and the synchronized write instant.
    start_lead: float = 1.0
    #: Safety limit on one test instance's duration (seconds).
    timeout: float = 180.0

    def __post_init__(self) -> None:
        if self.fast_reads < 0:
            raise ConfigurationError("fast_reads must be >= 0")
        if self.reads_per_agent < 1:
            raise ConfigurationError("reads_per_agent must be >= 1")


@dataclass(frozen=True)
class ServicePlan:
    """Both test configurations for one service."""

    test1: Test1Config
    test2: Test2Config


#: The paper's per-service parameters (Tables I and II).
PAPER_PLANS: dict[str, ServicePlan] = {
    "googleplus": ServicePlan(
        test1=Test1Config(read_period=0.3, inter_test_gap=34 * 60.0,
                          paper_num_tests=1036),
        test2=Test2Config(fast_reads=14, reads_per_agent=45,
                          inter_test_gap=17 * 60.0,
                          paper_num_tests=922),
    ),
    "blogger": ServicePlan(
        test1=Test1Config(read_period=0.3, inter_test_gap=20 * 60.0,
                          paper_num_tests=1028),
        test2=Test2Config(fast_reads=13, reads_per_agent=20,
                          inter_test_gap=10 * 60.0,
                          paper_num_tests=1012),
    ),
    "facebook_feed": ServicePlan(
        test1=Test1Config(read_period=0.3, inter_test_gap=5 * 60.0,
                          paper_num_tests=1020),
        test2=Test2Config(fast_reads=20, reads_per_agent=40,
                          inter_test_gap=5 * 60.0,
                          paper_num_tests=1012),
    ),
    "facebook_group": ServicePlan(
        test1=Test1Config(read_period=0.3, inter_test_gap=5 * 60.0,
                          paper_num_tests=1027),
        test2=Test2Config(fast_reads=20, reads_per_agent=50,
                          inter_test_gap=5 * 60.0,
                          paper_num_tests=1126),
    ),
    # The storage-system extension (not in the paper): probed with the
    # same cadences the paper used for its fastest services.
    "quorum_kv": ServicePlan(
        test1=Test1Config(read_period=0.3, inter_test_gap=5 * 60.0,
                          paper_num_tests=0),
        test2=Test2Config(fast_reads=20, reads_per_agent=40,
                          inter_test_gap=5 * 60.0,
                          paper_num_tests=0),
    ),
}


@dataclass(frozen=True)
class CampaignConfig:
    """How to run one service's measurement campaign.

    Attributes
    ----------
    num_tests:
        Test instances to run *per test type*.  The paper ran ~1,000 of
        each; benches default to far fewer for wall-clock sanity.
    seed:
        Root seed; a campaign is a pure function of (seed, config).
    test_types:
        Which templates to run, in order.
    inter_test_gap:
        Cool-down override in seconds.  None keeps the paper's Tables
        I/II values; simulated campaigns usually pass something small.
    keep_traces:
        Retain full operation traces in each record (memory-hungry).
    service_params:
        Optional service parameter object forwarded to the service
        constructor (for ablations).
    group_partition_tests:
        For facebook_group Test 2 campaigns: how many consecutive tests
        run under an injected Tokyo partition.  The paper observed a
        9-test stretch out of 1,126 tests; the default (None) scales
        that proportion to ``num_tests`` (at least one test).  0
        disables injection.
    """

    num_tests: int = 100
    seed: int = 0
    test_types: tuple[str, ...] = ("test1", "test2")
    inter_test_gap: float | None = 15.0
    keep_traces: bool = False
    service_params: Any = None
    group_partition_tests: int | None = None
    #: Permutation of agent locations over test roles (None = the
    #: paper's default Oregon, Tokyo, Ireland).  The paper's rotation
    #: experiments showed per-location asymmetries in Figures 5-7 are
    #: role artifacts; pass a rotated order to replicate them.
    role_order: tuple[str, ...] | None = None
    #: Custom fault scenario (a methodology.nemesis.Nemesis); None
    #: keeps the per-service default (the Tokyo partition stretch for
    #: facebook_group Test 2 campaigns).
    nemesis: Any = None
    #: Wrap every agent's session in the client-side
    #: session-guarantee masking layer (the §V discussion / the
    #: masking ablation).  Agents share one dependency registry,
    #: modelling an application that piggybacks causal metadata.
    mask_sessions: bool = False
    #: The scenario this campaign runs (a
    #: :class:`repro.scenario.schema.ScenarioSpec`), or None for a
    #: plain built-in service.  Carried on the config so it pickles
    #: into fleet shard jobs and enters every spec digest — resuming a
    #: fleet against an edited scenario re-runs instead of replaying
    #: stale artifacts.
    scenario: Any = None
    #: The scenario's client resilience policy (a
    #: :class:`repro.scenario.policies.PolicySpec`); the runner wraps
    #: every agent session with it before masking applies.
    client_policy: Any = None
    #: Relation-layer consistency metrics to evaluate per test, by
    #: registry name (see :mod:`repro.relations.registry`).  Empty
    #: (the default) skips the metric layer entirely, leaving record
    #: bytes — and therefore golden signatures — untouched.  Rides
    #: the config into fleet shards and enters every spec digest.
    metrics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.num_tests < 1:
            raise ConfigurationError("num_tests must be >= 1")
        bad = set(self.test_types) - {"test1", "test2"}
        if bad:
            raise ConfigurationError(f"unknown test types: {sorted(bad)}")
        if (self.group_partition_tests is not None
                and self.group_partition_tests < 0):
            raise ConfigurationError(
                "group_partition_tests must be >= 0"
            )
        if self.metrics:
            object.__setattr__(self, "metrics", tuple(self.metrics))
            from repro.relations.registry import resolve_metrics

            resolve_metrics(self.metrics)

    def effective_partition_tests(self) -> int:
        """Partition-stretch length after proportional auto-scaling."""
        if self.group_partition_tests is not None:
            return min(self.group_partition_tests, self.num_tests)
        scaled = round(self.num_tests * 9 / 1126)
        return max(int(scaled), 1)

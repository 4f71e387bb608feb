"""Table I: configuration parameters and measured read counts (Test 1).

Regenerates the paper's Table I: per service, the period between
reads, the *measured* average number of reads per agent per test, the
cool-down between tests, and the number of tests executed.  The
measured reads-per-test column is the interesting one — it is emergent
from each service's convergence speed (the test ends when all agents
see M6), and the paper's ordering (Google+ slowest by far) must hold.
"""

from repro.calibrate import paper_targets
from repro.methodology import PAPER_PLANS
from repro.services import SERVICE_NAMES

#: Paper Table I configuration values: (read period, gap min, number
#: of tests).  The reads column is ``paper_targets(s).reads_test1``.
PAPER_TABLE1 = {
    "googleplus": (0.3, 34, 1036),
    "blogger": (0.3, 20, 1028),
    "facebook_feed": (0.3, 5, 1020),
    "facebook_group": (0.3, 5, 1027),
}


def measured_reads_per_agent(result) -> float:
    records = result.of_type("test1")
    if not records:
        return 0.0
    total = sum(sum(r.reads_per_agent.values()) for r in records)
    return total / (len(records) * 3)


def test_table1(campaigns, benchmark):
    rows = benchmark(
        lambda: {
            service: measured_reads_per_agent(campaigns[service])
            for service in SERVICE_NAMES
        }
    )

    print("\nTable I: configuration parameters for Test 1")
    header = (f"{'parameter':34s}"
              + "".join(f"{s:>16s}" for s in SERVICE_NAMES))
    print(header)
    print("-" * len(header))
    print(f"{'period between reads (s)':34s}" + "".join(
        f"{PAPER_PLANS[s].test1.read_period:16.1f}"
        for s in SERVICE_NAMES))
    print(f"{'reads/agent/test (measured)':34s}" + "".join(
        f"{rows[s]:16.1f}" for s in SERVICE_NAMES))
    print(f"{'reads/agent/test (paper)':34s}" + "".join(
        f"{paper_targets(s).reads_test1:16.0f}" for s in SERVICE_NAMES))
    print(f"{'time between tests (paper, min)':34s}" + "".join(
        f"{PAPER_PLANS[s].test1.inter_test_gap / 60:16.0f}"
        for s in SERVICE_NAMES))
    print(f"{'number of tests (paper)':34s}" + "".join(
        f"{PAPER_PLANS[s].test1.paper_num_tests:16d}"
        for s in SERVICE_NAMES))

    # Config fidelity: the paper's parameters are encoded exactly.
    for service, (period, gap_min, tests) in PAPER_TABLE1.items():
        plan = PAPER_PLANS[service].test1
        assert plan.read_period == period
        assert plan.inter_test_gap == gap_min * 60.0
        assert plan.paper_num_tests == tests

    # Shape fidelity: Google+ converges far slower than the others,
    # so its tests accumulate by far the most reads.
    assert rows["googleplus"] > 2.0 * rows["blogger"]
    assert rows["googleplus"] > 1.5 * rows["facebook_feed"]
    assert rows["googleplus"] > 2.0 * rows["facebook_group"]
    # The fast services sit in the paper's ~10-20 band.
    for service in ("blogger", "facebook_feed", "facebook_group"):
        assert 5.0 <= rows[service] <= 25.0

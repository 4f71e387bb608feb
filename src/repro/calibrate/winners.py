"""Checked-in calibration winners and CI fidelity budgets.

``CALIBRATED_ASSIGNMENTS`` holds, per service, the winning assignment
of the most recent ``repro-consistency calibrate`` run over the
default space (see ``docs/calibrate.md`` for the exact invocation).
An empty assignment means the search confirmed the baseline profile.
Keeping winners as *assignments* rather than baked-in parameter
defaults leaves every existing campaign, golden signature, and test
untouched: the calibrated profile is opt-in via
:func:`calibrated_params`.

``FIDELITY_BUDGETS`` are the CI gate's ceilings: the weighted
fidelity loss of each service's calibrated profile at the gate's
fixed evaluation (``tools/gates.py fidelity``) plus headroom for
target revisions.  The gate fails when a model drifts past its
budget — fidelity regressions become CI failures, not footnotes.
"""

from __future__ import annotations

from typing import Any

from repro.calibrate.space import apply_assignment, base_params
from repro.errors import CalibrationError

__all__ = [
    "CALIBRATED_ASSIGNMENTS",
    "FIDELITY_BUDGETS",
    "calibrated_params",
]

#: Winning assignments over the default spaces (empty = baseline).
CALIBRATED_ASSIGNMENTS: dict[str, dict[str, Any]] = {
    # repro-consistency calibrate --service googleplus --seed 0
    # (successive halving over the default 36-candidate space; winner
    # c0026 at 486 tests/type, loss 0.844 vs. the default profile's
    # 1.129).  The fast EU sync cadence lets EU->US replication land
    # before the first paired read often enough to pull content
    # divergence off 100% toward the paper's 85%, while the slower US
    # delay median stretches Test 1 toward Table I's 48 reads/agent.
    "googleplus": {
        "replication_eu.sync_interval": 0.05,
        "replication_eu.sync_delay_median": 0.25,
        "replication_eu.tail_insert_prob": 0.12,
        "replication_us.sync_delay_median": 4.5,
    },
    # The blogger search confirmed the baseline (winner c0000).
    "blogger": {},
    # Winners of the small processing-delay spaces (c0003 each).
    "facebook_feed": {
        "write_processing_median": 0.08,
        "read_processing_median": 0.05,
    },
    "facebook_group": {
        "write_processing_median": 0.07,
        "read_processing_median": 0.05,
    },
}

#: Weighted-loss ceilings for tools/gates.py fidelity (its fixed
#: seed/test-count evaluation), with ~25% headroom over the measured
#: loss at the time the winner was checked in.
FIDELITY_BUDGETS: dict[str, float] = {
    "googleplus": 0.85,   # measured 0.66
    "blogger": 0.05,      # measured 0.01
    "facebook_feed": 1.90,  # measured 1.53
    "facebook_group": 0.30,  # measured 0.24
}


def calibrated_params(service: str) -> Any:
    """The service's checked-in calibrated profile (frozen params)."""
    try:
        assignment = CALIBRATED_ASSIGNMENTS[service]
    except KeyError:
        known = ", ".join(sorted(CALIBRATED_ASSIGNMENTS))
        raise CalibrationError(
            f"no calibrated profile for service {service!r} "
            f"(have: {known})"
        ) from None
    return apply_assignment(base_params(service), assignment)

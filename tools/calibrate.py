"""Calibration report: measured anomaly signatures vs. the paper's.

Run during development to eyeball a service's fit:

    python tools/calibrate.py [num_tests] [seed] [service ...]

Thin shim over :mod:`repro.calibrate`: the paper's numbers live in
``repro.calibrate.targets`` (the single source of truth), the rows
that read them in ``repro.calibrate.claims`` (the weighted ones are
also what the search and the CI fidelity gate score), the weighted
sum in ``repro.calibrate.objective``, and the rendering in
``repro.calibrate.report``.  Each service prints the measured-vs-paper
table of its weighted rows for its default profile, the one model
every reported number comes from.

For the actual parameter search, use::

    repro-consistency calibrate --service googleplus

which reports the winning profile (and, with ``--store-out``, resumes
each rung from its fleet store).
"""

import sys

from repro.calibrate import (
    default_objective,
    fidelity_table,
    target_services,
)
from repro.methodology import CampaignConfig, run_campaign

__all__ = ["main"]


def main():
    args = sys.argv[1:]
    num_tests = int(args[0]) if args else 40
    seed = int(args[1]) if len(args) > 1 else 7
    services = args[2:] or list(target_services())
    for service in services:
        score = default_objective(service).evaluate(run_campaign(
            service, CampaignConfig(num_tests=num_tests, seed=seed)
        ))
        print(f"\n=== {service} ({num_tests} tests/type, "
              f"seed {seed}) ===")
        print(fidelity_table(score))


if __name__ == "__main__":
    main()

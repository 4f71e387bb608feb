"""Shared fixtures for the benchmark harness.

The ``campaigns`` fixture runs one scaled-down campaign per paper
service (``BENCH_TESTS`` tests per template vs. the paper's ~1,000),
once per session, at seed ``BENCH_SEED``, with the graded metrics
(``claims.GRADED``) the extension rows read.  ``test_paper_claims.py``
evaluates every row of the paper's claims table
(:mod:`repro.calibrate.claims`) on them: the paper's qualitative
shape — who wins, by roughly what factor, where the asymmetries lie.
Absolute numbers need not match: the substrate is a simulator, not
the authors' 2015 testbed.  Its seed-stability test and the ablation
files run campaigns of their own; the rest time one layer each and
write ``BENCH_<name>.json`` results.
"""

import json
import os
from pathlib import Path

import pytest

from repro.calibrate.claims import GRADED
from repro.methodology import CampaignConfig, run_campaign
from repro.services import SERVICE_NAMES

BENCH_SEED = 3
#: Tests per template of the claims pass: the smallest multiple of 10
#: at or above every row's decision size n* in EXPERIMENTS.md's
#: generated region (largest: 177), which
#: ``test_paper_claims.py::test_bench_size_decides_every_row`` holds.
BENCH_TESTS = 180


@pytest.fixture(scope="session")
def bench_json_writer():
    """Write a ``BENCH_<name>.json`` machine-readable result file.

    Files land in ``REPRO_BENCH_OUT`` (default: the current working
    directory) so CI can collect them as artifacts and diff runs.
    """
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", "."))

    def write(name: str, payload: dict) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    return write


@pytest.fixture(scope="session")
def campaigns():
    """One scaled-down campaign per service, keyed by service name."""
    return {
        service: run_campaign(service, CampaignConfig(
            num_tests=BENCH_TESTS, seed=BENCH_SEED, metrics=GRADED,
        ))
        for service in SERVICE_NAMES
    }


@pytest.fixture(scope="session")
def masked_campaign():
    """A Facebook Feed campaign with client-side masking enabled."""
    return run_campaign("facebook_feed", CampaignConfig(
        num_tests=30,
        seed=BENCH_SEED, mask_sessions=True,
    ))

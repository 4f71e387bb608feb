"""EXPERIMENTS.md's generated region and the check that holds it.

``experiments_region`` renders per-seed claim rows, each with its
decision size n* (what ``tools/experiments.py`` writes between the
file's markers); ``region_disagreements`` is the comparison
``benchmarks/test_paper_claims.py::test_experiments_md_agrees`` makes
between the checked-in region and a regeneration.
"""

import math
import re

import pytest

from repro.calibrate.claims import (
    CLAIMS,
    decision_size,
    evaluate_seeds,
    experiments_region,
    held_at,
    region_disagreements,
)
from repro.fleet import FleetSpec, run_fleet
from repro.methodology import CampaignConfig
from repro.services import SERVICE_NAMES

ROW = re.compile(
    r"^\| `([^`]+)` \|.*\| ([^|]+) \| (at \d+ of \d+|n/a) \|$", re.M)


@pytest.fixture(scope="module")
def outcome():
    return run_fleet(FleetSpec(
        services=SERVICE_NAMES, seeds=(1, 2),
        base_config=CampaignConfig(num_tests=2)))


@pytest.fixture(scope="module")
def fleet(outcome):
    per_seed = evaluate_seeds(outcome)
    return per_seed, experiments_region(per_seed, outcome.by_service())


def cell(region, row):
    (line,) = [line for line in region.splitlines()
               if line.startswith(f"| `{row}` |")]
    return line


def test_every_row_once_with_its_seeds_held(fleet, outcome):
    per_seed, region = fleet
    rows = ROW.findall(region)
    assert [row for row, _, _ in rows] == [claim.id for claim in CLAIMS]
    held = held_at(per_seed)
    sizes = [decision_size(list(verdicts), 2)
             for verdicts in zip(*per_seed.values())]
    for (row, size, holds), n_star in zip(rows, sizes):
        k, n = held.get(row, (0, 0))
        assert holds == (f"at {k} of {n}" if n else "n/a"), row
        assert size == {None: "-", math.inf: "never"}.get(
            n_star, str(n_star)), row
    # One seed decides nothing: every n* cell is "-".
    one_seed = experiments_region({1: per_seed[1]}, {
        service: results[:1]
        for service, results in outcome.by_service().items()})
    assert {size for _, size, _ in ROW.findall(one_seed)} == {"-"}


def test_every_figure3_cell_is_printed(fleet):
    _, region = fleet
    for service in SERVICE_NAMES:
        assert f"{service}: anomaly prevalence over 2 seed(s)" in region
    assert region.count("pooled") + region.count("dispersed") == 24


def test_a_region_agrees_with_itself(fleet):
    _, region = fleet
    assert region_disagreements(region, region) == []


def test_flipped_and_dropped_rows_are_reported(fleet):
    _, region = fleet
    flipped = "fig8.blogger.diverged_pairs"
    dropped = "totals.blogger.writes"
    assert cell(region, flipped).endswith("| at 2 of 2 |")
    edited = region.replace(
        cell(region, flipped),
        cell(region, flipped).replace("at 2 of 2", "at 0 of 2")).replace(
        cell(region, dropped) + "\n", "")
    assert region_disagreements(edited, region) == [
        f"{dropped}: listed 0 times",
        f"{flipped}: holds at 0 of 2 here, at 2 of 2 when regenerated"]
    # And the other way: held at every seed, failing when regenerated.
    assert region_disagreements(region, edited) == [
        f"{flipped}: holds at 2 of 2 here, at 0 of 2 when regenerated"]


def test_unknown_and_repeated_rows_are_reported(fleet):
    _, region = fleet
    line = cell(region, "fig8.blogger.diverged_pairs")
    edited = region.replace(line, "\n".join(
        [line, line, line.replace("diverged_pairs", "made_up")]))
    assert region_disagreements(edited, region) == [
        "fig8.blogger.made_up: not a claim row",
        "fig8.blogger.diverged_pairs: listed 2 times"]


def test_a_row_held_at_some_seeds_is_not_checked(fleet):
    _, region = fleet
    line = cell(region, "fig8.blogger.diverged_pairs")
    edited = region.replace(line, line.replace("at 2 of 2", "at 1 of 2"))
    assert region_disagreements(edited, region) == []


def test_a_one_seed_regeneration_is_compared_by_whether_it_holds(fleet):
    _, region = fleet
    line = cell(region, "fig8.blogger.diverged_pairs")
    one_seed = region.replace("at 2 of 2", "at 1 of 1")
    assert region_disagreements(region, one_seed) == []
    failing = one_seed.replace(line.replace("at 2 of 2", "at 1 of 1"),
                               line.replace("at 2 of 2", "at 0 of 1"))
    assert region_disagreements(region, failing) == [
        "fig8.blogger.diverged_pairs: holds at 2 of 2 here, at 0 of 1 "
        "when regenerated"]

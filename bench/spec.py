"""The benchmark contract, size presets and on-disk locations.

``BENCHMARK.json`` is the single source of metric names, units,
directions and bounds; nothing here repeats them.  Sizes live here
because the contract file's keys are fixed.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["ROOT", "SRC", "OUT", "DEFAULT_SEED", "EXACT_UNITS",
           "PAPER_SIZES", "SCALE", "SIZES", "load_contract",
           "metric_units", "workload_names"]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (work archives, traces, result files).
OUT = ROOT / "bench" / "out"

DEFAULT_SEED = 3

#: Per-layer units whose values repeat exactly between runs.
EXACT_UNITS = ("count", "bytes")

#: The paper-scale unit of each workload (ISSUE 11): tests per type for
#: the campaigns and the replay archive, sessions for the world.
PAPER_SIZES = {
    "campaign_blogger": 1000,
    "campaign_gplus": 300,
    "campaign_feed": 200,
    "replay_tests": 100,
    "world_sessions": 100_000,
}

#: One common factor brings every timed unit to ~0.5-0.8 s, so a
#: 10-second run holds a dozen repeats and 136 driver runs fit the
#: time cap.  Cost is linear in these sizes (measured), so shares per
#: layer are those of the paper-scale unit.
SCALE = 20

SIZES = {
    "full": {
        **{name: size // SCALE for name, size in PAPER_SIZES.items()},
        #: Length of the reference kernel (bench/calibration.py).
        "kernel_iterations": 100_000,
    },
    #: Toy scale for ``bench/tests``: every code path, no timing value.
    "smoke": {
        "campaign_blogger": 3,
        "campaign_gplus": 2,
        "campaign_feed": 2,
        "replay_tests": 1,
        "world_sessions": 400,
        "kernel_iterations": 1_000,
    },
}


def load_contract() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def workload_names(contract: dict) -> list[str]:
    return [entry["name"] for entry in contract["workloads"]]


def metric_units(contract: dict, section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry["unit"] for entry in contract[section]}

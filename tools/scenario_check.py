"""CI gate: every shipped scenario file validates and replays true.

Three properties, one per layer of the scenario DSL:

1. **validation** — every ``examples/scenarios/*.toml`` loads into a
   ``ScenarioSpec`` named after its file;
2. **builtin equivalence** — a builtin-archetype scenario file is the
   service it names: a short campaign through the scenario path must
   produce the same ``campaign_signature`` as a plain
   ``run_campaign``;
3. **engine golden** — a short gossip-archetype campaign must replay
   to its checked-in golden signature.

    python tools/scenario_check.py

Exit code 0 when all hold, 1 with a diagnostic otherwise.
"""

import sys
from pathlib import Path

from repro.fleet.digest import campaign_signature
from repro.methodology import CampaignConfig, run_campaign
from repro.scenario import load_scenario, scenario_campaign

__all__ = ["main"]

SCENARIO_DIR = Path(__file__).parent.parent / "examples" / "scenarios"

#: Golden signature for the gossip engine replay below
#: (gossip_mesh.toml, num_tests=2, seed=5) — must match
#: tests/test_scenario_campaigns.py.
GOSSIP_MESH_SIGNATURE = (
    "b557c0aae4958a0b43de50dfbcb864e6441cfb85b29515ff25b90314c144b2d0"
)

#: The builtin-archetype file replayed for equivalence.
BUILTIN_EXAMPLE = "blogger"


def check_files_validate(paths, failures):
    for path in paths:
        spec = load_scenario(path)
        if spec.name != path.stem:
            failures.append(
                f"{path.name}: scenario name {spec.name!r} does "
                "not match the file stem"
            )


def check_builtin_equivalence(failures):
    spec = load_scenario(SCENARIO_DIR / f"{BUILTIN_EXAMPLE}.toml")
    config = CampaignConfig(num_tests=2, seed=3)
    via_scenario = campaign_signature(
        run_campaign(*scenario_campaign(spec, config)))
    plain = campaign_signature(
        run_campaign(spec.service.base, config))
    if via_scenario != plain:
        failures.append(
            f"builtin equivalence broken for {BUILTIN_EXAMPLE}: "
            f"scenario {via_scenario} != plain {plain}"
        )


def check_engine_golden(failures):
    spec = load_scenario(SCENARIO_DIR / "gossip_mesh.toml")
    config = CampaignConfig(num_tests=2, seed=5)
    signature = campaign_signature(
        run_campaign(*scenario_campaign(spec, config)))
    if signature != GOSSIP_MESH_SIGNATURE:
        failures.append(
            f"gossip golden signature drifted: got {signature}, "
            f"expected {GOSSIP_MESH_SIGNATURE}"
        )


def main():
    paths = sorted(SCENARIO_DIR.glob("*.toml"))
    if not paths:
        print(f"scenario check FAILED: no scenario files under "
              f"{SCENARIO_DIR}")
        return 1
    failures = []
    check_files_validate(paths, failures)
    check_builtin_equivalence(failures)
    check_engine_golden(failures)
    if failures:
        print(f"scenario check FAILED ({len(paths)} files):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"scenario check passed: {len(paths)} files validated, "
          f"builtin equivalence holds, gossip golden "
          f"signature {GOSSIP_MESH_SIGNATURE[:16]} replayed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

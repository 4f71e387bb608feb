"""A process imports only the modules it runs.

Two halves.  Fresh interpreters (one per case, all started at once)
report what ``sys.modules`` holds after one import or one run, so a
module-level import that drags a subsystem into a verb that never runs
it fails here.  No case may load ``hashlib``: it maps OpenSSL, and the
package hashes through :mod:`repro._hash` instead.  In this process,
every lazy package facade (:mod:`repro._facade`) must agree with the
submodules that define its names.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"
WORLD_SCENARIO = (SRC.parent / "examples" / "scenarios"
                  / "gossip_world.toml")
#: A plain scenario with ``[service.params]``: lowering it reaches
#: ``repro.calibrate.space`` and nothing else of that package.
PARAMS_SCENARIO = (SRC.parent / "examples" / "scenarios"
                   / "gossip_mesh.toml")

#: The simulator side of the stack: what a record consumer never needs.
SIMULATOR = ("repro.agents", "repro.services", "repro.webapi",
             "repro.replication")

#: What ``import hashlib`` loads, and with it OpenSSL's libcrypto;
#: forbidden in every case.
OPENSSL = ("hashlib", "_hashlib")

#: case -> (statement, packages or modules that must stay unloaded).
CASES = {
    "cli": ("import repro.cli",
            SIMULATOR + ("repro.net", "repro.methodology.runner")),
    "io": ("import repro.io", SIMULATOR),
    "stream": ("from repro.stream import StreamEngine", SIMULATOR),
    "world": ("from repro.world import run_world",
              SIMULATOR + ("multiprocessing",)),
    "fleet": ("from repro.fleet import run_fleet", ("multiprocessing",)),
    "fleet_stream": (
        "from repro.fleet import FleetSpec, run_fleet\n"
        "from repro.methodology import CampaignConfig\n"
        "run_fleet(FleetSpec(services=('blogger',), seeds=(1,),\n"
        "    base_config=CampaignConfig(num_tests=1,\n"
        "                               test_types=('test1',))),\n"
        "    stream=True)",
        ("repro.stream.ingest",)),
    "campaign": (
        "from repro.methodology import CampaignConfig, run_campaign\n"
        "run_campaign('blogger', CampaignConfig(num_tests=1, seed=1))",
        ("repro.services.googleplus", "repro.services.facebook_feed",
         "repro.services.facebook_group", "repro.services.quorum_kv",
         "repro.calibrate.claims")),
    "params_scenario": (
        "from repro.methodology import CampaignConfig, run_campaign\n"
        "from repro.scenario import load_scenario, scenario_campaign\n"
        f"spec = load_scenario({str(PARAMS_SCENARIO)!r})\n"
        "run_campaign(*scenario_campaign(\n"
        "    spec, CampaignConfig(num_tests=1, seed=1)))",
        tuple(f"repro.calibrate.{name}" for name in (
            "evaluator", "search", "report", "objective", "claims"))),
    # What the benchmark's workloads module imports, spelled out so
    # the case does not depend on the benchmark package.
    "bench_workloads": (
        "import repro.io\n"
        "import repro.stream.ingest\n"
        "from repro.analysis import full_report\n"
        "from repro.errors import ReproError\n"
        "from repro.fleet import (ArtifactStore, FleetSpec,\n"
        "    campaign_signature, derive_fleet_seeds, records_digest,\n"
        "    run_fleet)\n"
        "from repro.methodology import (CampaignConfig, CampaignResult,\n"
        "    analyze_trace, run_campaign)\n"
        "from repro.relations import metric_names, resolve_metrics\n"
        "from repro.scenario import load_scenario\n"
        "from repro.stream import OpIngest, StreamEngine\n"
        "from repro.world import run_world, world_from_scenario",
        ()),
    "world_run": (
        "from repro.scenario import load_scenario\n"
        "from repro.world import run_world, world_from_scenario\n"
        f"scenario = load_scenario({str(WORLD_SCENARIO)!r})\n"
        "run_world(world_from_scenario(scenario, sessions=400), seed=1)",
        ()),
    # Every digest the package takes: digest JSONL, a store shard,
    # stream seeds, author homes and a campaign signature.
    "digests": (
        "import tempfile\n"
        "from repro.fleet import (ArtifactStore, FleetSpec,\n"
        "    campaign_signature, execute_shard)\n"
        "from repro.io import (read_digest_jsonl, record_to_dict,\n"
        "    write_digest_jsonl)\n"
        "from repro.methodology import CampaignConfig\n"
        "from repro.sim.random_source import derive_seed\n"
        "from repro.world.spec import author_shard\n"
        "spec = FleetSpec(services=('blogger',), seeds=(1,),\n"
        "    base_config=CampaignConfig(num_tests=1,\n"
        "                               test_types=('test1',)))\n"
        "job = spec.jobs()[0]\n"
        "result = execute_shard(job)\n"
        "records = [record_to_dict(r) for r in result.records]\n"
        "with tempfile.TemporaryDirectory() as root:\n"
        "    store = ArtifactStore(root)\n"
        "    store.initialize(spec)\n"
        "    store.write_shard(job, records)\n"
        "    assert len(store.load_shard_records(job.shard_id)) == 1\n"
        "    path = write_digest_jsonl(root + '/probe.jsonl', records,\n"
        "                              kind='probe', schema_version=1)\n"
        "    assert len(read_digest_jsonl(path, kind='probe',\n"
        "                                 schema_version=1)) == 1\n"
        "derive_seed(1, 'probe')\n"
        "author_shard('probe', 4)\n"
        "campaign_signature(result)",
        ()),
}

PROBE = ("import json, sys\n{statement}\n"
         "print(json.dumps(sorted(sys.modules)))\n")

#: Every package whose ``__init__`` is a facade table.
LAZY_PACKAGES = (
    "repro", "repro.agents", "repro.analysis", "repro.calibrate",
    "repro.clocksync",
    "repro.fleet", "repro.methodology", "repro.net", "repro.obs",
    "repro.replication", "repro.scenario", "repro.services",
    "repro.stream", "repro.webapi", "repro.world",
)


@pytest.fixture(scope="module")
def loaded():
    """case -> the modules a fresh interpreter holds after it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probes = {
        case: subprocess.Popen(
            [sys.executable, "-c", PROBE.format(statement=statement)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        for case, (statement, _) in CASES.items()
    }
    modules = {}
    for case, probe in probes.items():
        out, err = probe.communicate(timeout=120)
        assert probe.returncode == 0, err
        modules[case] = set(json.loads(out.splitlines()[-1]))
    return modules


@pytest.mark.parametrize("case", sorted(CASES))
def test_import_loads_only_what_it_runs(case, loaded):
    forbidden = CASES[case][1] + OPENSSL
    leaked = sorted(
        module for module in loaded[case]
        if any(module == name or module.startswith(name + ".")
               for name in forbidden))
    assert leaked == []


def _all_submodules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def test_lazy_packages_are_the_facades():
    _all_submodules()
    facades = sorted(
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "repro"
        and getattr(getattr(module, "__getattr__", None), "__module__",
                    None) == "repro._facade")
    assert facades == sorted(LAZY_PACKAGES)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_facade_agrees_with_its_submodules(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        getattr(package, export)  # every name resolves
    _all_submodules()
    for export in package.__all__:
        assert getattr(package, export) is package.__getattr__(export), \
            export
    assert set(package.__all__) <= set(dir(package))

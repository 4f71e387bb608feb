"""A process imports only the modules it runs.

Two halves.  Fresh interpreters (one per case, all started at once)
report what ``sys.modules`` holds after one import or one campaign, so a
module-level import that drags a subsystem into a verb that never runs
it fails here.  In this process, every lazy package facade
(:mod:`repro._facade`) must agree with the submodules that define its
names.
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

#: The simulator side of the stack: what a record consumer never needs.
SIMULATOR = ("repro.agents", "repro.services", "repro.webapi",
             "repro.replication")

#: case -> (statement, packages or modules that must stay unloaded).
CASES = {
    "cli": ("import repro.cli",
            SIMULATOR + ("repro.net", "repro.methodology.runner")),
    "io": ("import repro.io", SIMULATOR),
    "stream": ("from repro.stream import StreamEngine", SIMULATOR),
    "world": ("from repro.world import run_world",
              SIMULATOR + ("multiprocessing",)),
    "fleet": ("from repro.fleet import run_fleet", ("multiprocessing",)),
    "campaign": (
        "from repro.methodology import CampaignConfig, run_campaign\n"
        "run_campaign('blogger', CampaignConfig(num_tests=1, seed=1))",
        ("repro.services.googleplus", "repro.services.facebook_feed",
         "repro.services.facebook_group", "repro.services.quorum_kv")),
}

PROBE = ("import json, sys\n{statement}\n"
         "print(json.dumps(sorted(sys.modules)))\n")

#: Every package whose ``__init__`` is a facade table.
LAZY_PACKAGES = (
    "repro", "repro.agents", "repro.analysis", "repro.clocksync",
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
    _, forbidden = CASES[case]
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
        # An imported submodule shadows a lazy name it shares
        # (``repro.methodology.sweep``): what the package hands out
        # must still be what the defining module holds.
        assert getattr(package, export) is package.__getattr__(export), \
            export
    assert set(package.__all__) <= set(dir(package))

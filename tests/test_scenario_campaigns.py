"""End-to-end scenario campaigns: equivalence, goldens, fleet parity.

Three load-bearing properties of the scenario DSL:

* **equivalence** — a builtin-archetype scenario file is byte-for-byte
  the service it names: identical ``campaign_signature`` to a plain
  ``run_campaign`` at the same config (the scenario spec rides in the
  config but never enters record bytes), and with ``[service.params]``
  to one with those params applied in code;
* **golden signatures** — the gossip engine and the resilience-policy
  layer are deterministic, and the policy measurably shifts anomaly
  prevalence versus its policy-free twin;
* **fleet parity** — scenarios ride pickled shard configs, so a
  parallel fleet over a scenario merges bit-identical to the serial
  path, and the scenario's content (not just its name) binds
  ``spec_hash``.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.fleet import FleetSpec, run_fleet
from repro.fleet.digest import campaign_signature
from repro.methodology import CampaignConfig, run_campaign
from repro.methodology.nemesis import CompositeNemesis
from repro.scenario import (
    forget_scenario,
    load_scenario,
    register_scenario,
    scenario_campaign,
    scenario_nemesis,
)
from repro.services.googleplus import GooglePlusParams

SCENARIO_DIR = Path(__file__).parent.parent / "examples" / "scenarios"

BUILTIN_FILES = ("googleplus", "blogger", "facebook_feed",
                 "facebook_group", "quorum_kv")

GOSSIP_MESH_SIGNATURE = (
    "b557c0aae4958a0b43de50dfbcb864e6441cfb85b29515ff25b90314c144b2d0"
)
RESILIENT_SIGNATURE = (
    "a1392403272cfa366cc6a44b27200b840c1902a84dddba51383c2e139d4a8c87"
)
POLICY_FREE_SIGNATURE = (
    "a6a24a9469ade97ca2e8bccb20607356cda8bbe3ff09724f7aebddc1dc1e7fc5"
)


def load(stem):
    return load_scenario(SCENARIO_DIR / f"{stem}.toml")


class TestBuiltinEquivalence:
    @pytest.mark.parametrize("stem", BUILTIN_FILES)
    def test_scenario_file_equals_plain_service(self, stem):
        config = CampaignConfig(num_tests=2, seed=3)
        spec = load(stem)
        assert spec.service.archetype == "builtin"
        via_scenario = run_campaign(*scenario_campaign(spec, config))
        plain = run_campaign(spec.service.base, config)
        assert campaign_signature(via_scenario) == \
            campaign_signature(plain)

    def test_params_file_equals_service_with_params_in_code(self):
        # A builtin base's [service.params] replace those fields of the
        # base service's defaults, and nothing else.
        spec = load("googleplus")
        spec = dataclasses.replace(spec, service=dataclasses.replace(
            spec.service, params=(("replication_eu.sync_interval", 0.05),
                                  ("replication_us.sync_delay_median",
                                   4.5))))
        defaults = GooglePlusParams()
        params = dataclasses.replace(
            defaults,
            replication_eu=dataclasses.replace(defaults.replication_eu,
                                               sync_interval=0.05),
            replication_us=dataclasses.replace(defaults.replication_us,
                                               sync_delay_median=4.5))
        config = CampaignConfig(num_tests=2, seed=3)
        in_code = dataclasses.replace(config, service_params=params)
        assert campaign_signature(run_campaign(
            *scenario_campaign(spec, config))) == campaign_signature(
            run_campaign("googleplus", in_code)) != campaign_signature(
            run_campaign("googleplus", config))


class TestGossipGolden:
    def test_mesh_campaign_signature(self):
        spec = load("gossip_mesh")
        config = CampaignConfig(num_tests=2, seed=5)
        result = run_campaign(*scenario_campaign(spec, config))
        assert len(result.records) == 4
        summary = result.summary()
        # Read load-balancing across gossip replicas produces session
        # anomalies; local-region writes keep write order intact.
        assert summary["read_your_writes"] == 1.0
        assert summary["monotonic_reads"] == 1.0
        assert summary["monotonic_writes"] == 0.0
        assert campaign_signature(result) == GOSSIP_MESH_SIGNATURE

    def test_mesh_campaign_is_deterministic(self):
        spec = load("gossip_mesh")
        config = CampaignConfig(num_tests=2, seed=11)
        first = run_campaign(*scenario_campaign(spec, config))
        second = run_campaign(*scenario_campaign(spec, config))
        assert campaign_signature(first) == \
            campaign_signature(second)

    def test_partitioned_scenario_composes_nemeses(self):
        spec = load("gossip_partitioned")
        nemesis = scenario_nemesis(spec)
        assert isinstance(nemesis, CompositeNemesis)
        assert len(nemesis.parts) == 2
        config = CampaignConfig(num_tests=3, seed=2)
        faulted = run_campaign(*scenario_campaign(spec, config))
        calm = run_campaign(*scenario_campaign(
            dataclasses.replace(spec, nemeses=()), config))
        assert campaign_signature(faulted) == campaign_signature(
            run_campaign(*scenario_campaign(spec, config)))
        assert campaign_signature(faulted) != \
            campaign_signature(calm)


class TestResiliencePolicyGolden:
    @pytest.fixture(scope="class")
    def twins(self):
        spec = load("gossip_resilient")
        config = CampaignConfig(num_tests=3, seed=5)
        with_policy = run_campaign(*scenario_campaign(spec, config))
        bare = dataclasses.replace(spec, policy=None)
        without = run_campaign(*scenario_campaign(bare, config))
        return with_policy, without

    def test_golden_signatures(self, twins):
        with_policy, without = twins
        assert campaign_signature(with_policy) == \
            RESILIENT_SIGNATURE
        assert campaign_signature(without) == POLICY_FREE_SIGNATURE

    def test_policy_shifts_anomaly_prevalence(self, twins):
        with_policy, without = twins
        policy_summary = with_policy.summary()
        bare_summary = without.summary()
        # Retrying throttled reads changes what the probe observes:
        # under the policy some sessions recover their own writes.
        assert bare_summary["read_your_writes"] == 1.0
        assert policy_summary["read_your_writes"] < 1.0
        assert bare_summary["monotonic_reads"] == 1.0
        assert policy_summary["monotonic_reads"] < 1.0
        assert policy_summary != bare_summary


class TestScenarioFleets:
    @pytest.fixture(autouse=True)
    def registered(self):
        register_scenario(load("gossip_mesh"), replace=True)
        yield
        forget_scenario("gossip_mesh")

    def fleet_spec(self, **kwargs):
        kwargs.setdefault("services", ("blogger", "gossip_mesh"))
        kwargs.setdefault("seeds", (0, 7))
        kwargs.setdefault(
            "base_config",
            CampaignConfig(num_tests=2, test_types=("test1",)))
        return FleetSpec(**kwargs)

    def test_parallel_fleet_matches_serial(self):
        serial = run_fleet(self.fleet_spec(), jobs=1)
        parallel = run_fleet(self.fleet_spec(), jobs=4)
        assert parallel.signature() == serial.signature()

    def test_spec_hash_binds_scenario_content(self):
        baseline = self.fleet_spec().spec_hash()
        assert self.fleet_spec().spec_hash() == baseline
        spec = load("gossip_mesh")
        tweaked = dataclasses.replace(
            spec, service=dataclasses.replace(
                spec.service,
                params=(("store.fanout", 2),
                        ("store.gossip_interval", 0.25),
                        ("store.read_lb_prob", 0.3))))
        register_scenario(tweaked, replace=True)
        assert self.fleet_spec().spec_hash() != baseline

    def test_unregistered_scenario_name_is_an_error(self):
        forget_scenario("gossip_mesh")
        with pytest.raises(Exception, match="unknown services"):
            self.fleet_spec()
        register_scenario(load("gossip_mesh"), replace=True)


class TestScenarioCli:
    def test_fleet_scenario_parallel_matches_serial(self, capsys):
        from repro.cli import main

        path = str(SCENARIO_DIR / "gossip_mesh.toml")
        argv = ["fleet", "--scenario", path, "--tests", "2",
                "--seeds", "1,2", "--quiet"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial
        assert "gossip_mesh" in serial

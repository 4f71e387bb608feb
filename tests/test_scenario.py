"""Tests for the scenario DSL: schema validation, loading, registry.

The loader contract under test: a malformed scenario file must raise
:class:`ConfigurationError` naming the offending file and table/key —
never silently fall back to a default.
"""

import dataclasses
import json
import re
import typing

import pytest

from repro.errors import CalibrationError, ConfigurationError
from repro.world import WorldSpec, world_from_scenario
from repro.methodology.config import CampaignConfig
from repro.methodology.nemesis import (
    CompositeNemesis,
    LinkLossNemesis,
    PeriodicPartitionNemesis,
)
from repro.scenario import (
    SCHEMA_VERSION,
    CalibrationSpec,
    NemesisSpec,
    PolicySpec,
    ScenarioSpec,
    ServiceSpec,
    WorkloadSpec,
    forget_scenario,
    get_scenario,
    load_scenario,
    load_scenarios,
    register_scenario,
    registered_scenarios,
    scenario_config,
    scenario_from_mapping,
    scenario_nemesis,
    scenario_objective,
    scenario_params,
    scenario_plan,
    scenario_space,
)

MINIMAL_GOSSIP = """\
[scenario]
schema_version = 1
name = "probe"

[service]
archetype = "gossip"
regions = ["oregon", "tokyo"]
"""


def gossip_spec(**overrides) -> ScenarioSpec:
    kwargs = {
        "name": "probe",
        "service": ServiceSpec(archetype="gossip",
                               regions=("oregon", "tokyo")),
    }
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


#: Every float key a scenario file can set, as (table, key).
FLOAT_KEYS = [
    ("topology", "arrival_window"), ("topology", "think_median"),
    ("topology", "service_time"), ("topology", "hop_median"),
    ("topology", "hop_sigma"), ("topology", "epoch"),
    ("workload", "inter_test_gap"),
    ("policy", "backoff_base"), ("policy", "backoff_factor"),
    ("policy", "backoff_max"), ("policy", "breaker_cooldown"),
    ("nemesis", "probability"),
]

LINK_LOSS = {"kind": "link_loss", "links": [["a", "b"]]}


class TestSchema:
    def test_minimal_specs_validate(self):
        spec = gossip_spec()
        assert spec.version == SCHEMA_VERSION
        assert spec.policy is None
        builtin = ScenarioSpec(
            name="my_blogger",
            service=ServiceSpec(archetype="builtin", base="blogger"),
        )
        assert builtin.service.base == "blogger"

    def test_digest_is_content_addressed(self):
        assert gossip_spec().digest() == gossip_spec().digest()
        other = gossip_spec(description="changed")
        assert other.digest() != gossip_spec().digest()

    def test_version_skew_is_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="schema_version"):
            gossip_spec(version=SCHEMA_VERSION + 1)

    @pytest.mark.parametrize("name", ["", "2fast", "Probe", "a-b"])
    def test_bad_names_are_rejected(self, name):
        with pytest.raises(ConfigurationError, match="scenario.name"):
            gossip_spec(name=name)

    def test_name_may_not_shadow_builtin_service(self):
        with pytest.raises(ConfigurationError, match="collides"):
            gossip_spec(name="blogger")
        # ... unless it is that builtin, expressed as a scenario.
        spec = ScenarioSpec(
            name="blogger",
            service=ServiceSpec(archetype="builtin", base="blogger"),
        )
        assert spec.name == "blogger"

    def test_unknown_archetype(self):
        with pytest.raises(ConfigurationError, match="archetype"):
            ServiceSpec(archetype="paxos")

    def test_builtin_needs_known_base(self):
        with pytest.raises(ConfigurationError, match="service.base"):
            ServiceSpec(archetype="builtin", base="myspace")

    def test_builtin_rejects_regions(self):
        with pytest.raises(ConfigurationError, match="regions"):
            ServiceSpec(archetype="builtin", base="blogger",
                        regions=("oregon",))

    def test_engine_rejects_base(self):
        with pytest.raises(ConfigurationError, match="service.base"):
            ServiceSpec(archetype="gossip", base="blogger")

    def test_engine_rejects_unknown_regions(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ServiceSpec(archetype="gossip", regions=("mars",))

    def test_engine_rejects_duplicate_regions(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            ServiceSpec(archetype="gossip",
                        regions=("oregon", "oregon"))

    def test_duplicate_param_paths(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            ServiceSpec(archetype="gossip",
                        params=(("store.fanout", 1),
                                ("store.fanout", 2)))

    def test_nemesis_validation(self):
        with pytest.raises(ConfigurationError, match="kind"):
            NemesisSpec(kind="asteroid")
        with pytest.raises(ConfigurationError, match="host_a"):
            NemesisSpec(kind="periodic_partition", host_a="a")
        with pytest.raises(ConfigurationError, match="differ"):
            NemesisSpec(kind="periodic_partition", host_a="a",
                        host_b="a")
        with pytest.raises(ConfigurationError, match="period"):
            NemesisSpec(kind="periodic_partition", host_a="a",
                        host_b="b", period=0)
        with pytest.raises(ConfigurationError, match="link"):
            NemesisSpec(kind="link_loss")
        with pytest.raises(ConfigurationError, match="probability"):
            NemesisSpec(kind="link_loss", links=(("a", "b"),),
                        probability=1.5)

    def test_workload_validation(self):
        with pytest.raises(ConfigurationError, match="num_tests"):
            WorkloadSpec(num_tests=0)
        with pytest.raises(ConfigurationError, match="test_types"):
            WorkloadSpec(test_types=("test3",))
        with pytest.raises(ConfigurationError, match="gap"):
            WorkloadSpec(inter_test_gap=-1.0)
        with pytest.raises(ConfigurationError, match="test1"):
            WorkloadSpec(test1=(("warp_speed", 9),))

    def test_calibration_validation(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            CalibrationSpec(axes=(("p", (1,)), ("p", (2,))))
        with pytest.raises(ConfigurationError, match="non-empty"):
            CalibrationSpec(axes=(("p", ()),))
        with pytest.raises(ConfigurationError, match="anomaly"):
            CalibrationSpec(prevalence=(("stale_everything", 0.5),))
        with pytest.raises(ConfigurationError, match="fraction"):
            CalibrationSpec(prevalence=(("read_your_writes", 1.5),))


class TestLoader:
    def write(self, tmp_path, text, name="scenario.toml"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_loads_minimal_file(self, tmp_path):
        spec = load_scenario(self.write(tmp_path, MINIMAL_GOSSIP))
        assert spec.name == "probe"
        assert spec.service.regions == ("oregon", "tokyo")

    def test_error_names_the_file(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_GOSSIP.replace(
            "schema_version = 1", "schema_version = 99"))
        with pytest.raises(ConfigurationError) as err:
            load_scenario(path)
        assert str(path) in str(err.value)
        assert "99" in str(err.value)

    def test_unknown_top_level_table(self, tmp_path):
        path = self.write(tmp_path,
                          MINIMAL_GOSSIP + "\n[chaos]\nlevel = 9\n")
        with pytest.raises(ConfigurationError,
                           match=r"unknown key \[top level\].chaos"):
            load_scenario(path)

    def test_unknown_key_cites_table_and_key(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_GOSSIP.replace(
            'archetype = "gossip"',
            'archetype = "gossip"\nflavour = "mild"'))
        with pytest.raises(ConfigurationError,
                           match=r"unknown key \[service\].flavour"):
            load_scenario(path)

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ConfigurationError,
                           match=r"\[scenario\].name is required"):
            load_scenario(self.write(
                tmp_path, MINIMAL_GOSSIP.replace('name = "probe"\n',
                                                 "")))
        with pytest.raises(ConfigurationError,
                           match=r"missing \[service\]"):
            load_scenario(self.write(
                tmp_path,
                '[scenario]\nschema_version = 1\nname = "probe"\n'))

    def test_wrong_types_are_rejected(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_GOSSIP.replace(
            'name = "probe"', "name = 7"))
        with pytest.raises(ConfigurationError, match="wrong type"):
            load_scenario(path)
        # bool is an int subclass; numeric fields must still reject it.
        path = self.write(tmp_path, MINIMAL_GOSSIP +
                          "\n[workload]\nnum_tests = true\n")
        with pytest.raises(ConfigurationError, match="wrong type"):
            load_scenario(path)

    def test_out_of_range_values_cite_the_file(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_GOSSIP +
                          "\n[workload]\nnum_tests = 0\n")
        with pytest.raises(ConfigurationError) as err:
            load_scenario(path)
        assert str(path) in str(err.value)
        assert "num_tests" in str(err.value)

    def test_explicit_zero_probability_survives(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_GOSSIP + (
            '\n[[nemesis]]\nkind = "link_loss"\n'
            'links = [["a", "b"]]\nprobability = 0.0\n'))
        spec = load_scenario(path)
        assert spec.nemeses[0].probability == 0.0

    def test_duplicate_scenario_names_across_files(self, tmp_path):
        first = self.write(tmp_path, MINIMAL_GOSSIP, "one.toml")
        second = self.write(tmp_path, MINIMAL_GOSSIP, "two.toml")
        with pytest.raises(ConfigurationError) as err:
            load_scenarios([first, second])
        assert "one.toml" in str(err.value)
        assert "two.toml" in str(err.value)

    def test_json_scenarios_load_too(self, tmp_path):
        data = {
            "scenario": {"schema_version": 1, "name": "probe"},
            "service": {"archetype": "gossip",
                        "regions": ["oregon", "tokyo"]},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        toml_spec = load_scenario(
            self.write(tmp_path, MINIMAL_GOSSIP))
        assert load_scenario(path) == toml_spec

    def test_key_order_does_not_change_the_digest(self):
        base = {
            "scenario": {"schema_version": 1, "name": "probe"},
            "service": {
                "archetype": "gossip",
                "regions": ["oregon", "tokyo"],
                "params": {"store.fanout": 2,
                           "store.read_lb_prob": 0.1},
            },
        }
        flipped = json.loads(json.dumps(base))
        flipped["service"]["params"] = {
            "store.read_lb_prob": 0.1, "store.fanout": 2,
        }
        assert scenario_from_mapping(base, "a").digest() == \
            scenario_from_mapping(flipped, "b").digest()


class TestNonFiniteNumbers:
    def test_float_key_list_is_complete(self):
        tables = {"topology": WorldSpec, "workload": WorkloadSpec,
                  "policy": PolicySpec, "nemesis": NemesisSpec}
        declared = sorted(
            (table, key)
            for table, cls in tables.items()
            for key, hint in typing.get_type_hints(cls).items()
            if hint in (float, float | None)
        )
        assert declared == sorted(FLOAT_KEYS)

    @staticmethod
    def expect_rejection(path, table, key):
        label = "nemesis[0]" if table == "nemesis" else table
        with pytest.raises(ConfigurationError) as err:
            load_scenario(path)
        assert str(path) in str(err.value)
        assert re.search(rf"\[{re.escape(label)}\]\.{key}",
                         str(err.value))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("table,key", FLOAT_KEYS)
    def test_toml_rejects_non_finite(self, tmp_path, table, key,
                                     value):
        if table == "nemesis":
            extra = ('[[nemesis]]\nkind = "link_loss"\n'
                     'links = [["a", "b"]]\n')
        else:
            extra = f"[{table}]\n"
        path = tmp_path / "scenario.toml"
        path.write_text(f"{MINIMAL_GOSSIP}\n{extra}{key} = {value}\n",
                        encoding="utf-8")
        self.expect_rejection(path, table, key)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("table,key", FLOAT_KEYS)
    def test_json_rejects_non_finite(self, tmp_path, table, key,
                                     value):
        data = {
            "scenario": {"schema_version": 1, "name": "probe"},
            "service": {"archetype": "gossip"},
        }
        if table == "nemesis":
            data["nemesis"] = [{**LINK_LOSS, key: value}]
        else:
            data[table] = {key: value}
        path = tmp_path / "scenario.json"
        text = json.dumps(data)
        assert "NaN" in text or "Infinity" in text
        path.write_text(text, encoding="utf-8")
        self.expect_rejection(path, table, key)


class TestCalibrateAxesAtLoad:
    @pytest.mark.parametrize("values", ["[1, [2]]", "[1, 1]"])
    def test_bad_axis_values_fail_at_load(self, tmp_path, values):
        path = tmp_path / "scenario.toml"
        path.write_text(MINIMAL_GOSSIP + '\n[calibrate.axes]\n'
                        f'"store.fanout" = {values}\n',
                        encoding="utf-8")
        with pytest.raises(ConfigurationError) as err:
            load_scenario(path)
        assert str(path) in str(err.value)
        assert "[calibrate.axes].store.fanout" in str(err.value)


class TestRegistry:
    @pytest.fixture(autouse=True)
    def clean(self):
        yield
        forget_scenario("probe")

    def test_register_and_resolve(self):
        spec = register_scenario(gossip_spec())
        assert get_scenario("probe") is spec
        assert "probe" in registered_scenarios()
        # Same content re-registers silently; new content must be
        # explicit about replacing.
        register_scenario(gossip_spec())
        with pytest.raises(ConfigurationError, match="replace"):
            register_scenario(gossip_spec(description="v2"))
        register_scenario(gossip_spec(description="v2"),
                          replace=True)
        assert get_scenario("probe").description == "v2"

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="registered"):
            get_scenario("nothing_here")

    def test_params_stay_none_without_overrides(self):
        # None keeps builtin scenarios byte-equivalent to plain runs.
        assert scenario_params(gossip_spec()) is None

    def test_param_overrides_replace_nested_fields(self):
        spec = gossip_spec(service=ServiceSpec(
            archetype="gossip", regions=("oregon",),
            params=(("store.fanout", 3),
                    ("rate_limit.max_requests", 5)),
        ))
        params = scenario_params(spec)
        assert params.store.fanout == 3
        assert params.rate_limit.max_requests == 5

    def test_unknown_param_path_cites_the_path(self):
        spec = gossip_spec(service=ServiceSpec(
            archetype="gossip", regions=("oregon",),
            params=(("store.viscosity", 3),),
        ))
        with pytest.raises(
                ConfigurationError,
                match=r"service\.params\.store\.viscosity"):
            scenario_params(spec)

    def test_removed_author_shards_knob_fails_closed(self, tmp_path):
        path = tmp_path / "sharded.toml"
        path.write_text(MINIMAL_GOSSIP + '[service.params]\n'
                        '"store.author_shards" = 2\n', encoding="utf-8")
        with pytest.raises(
                ConfigurationError,
                match=r"^service\.params\.store\.author_shards: "):
            scenario_params(load_scenario(path))

    def test_out_of_range_param_cites_path_and_field(self):
        spec = gossip_spec(service=ServiceSpec(
            archetype="gossip", regions=("oregon",),
            params=(("store.antientropy_interval", 0.0),),
        ))
        with pytest.raises(ConfigurationError, match=re.escape(
                "service.params.store.antientropy_interval: "
                "GossipParams.antientropy_interval must be > 0, "
                "got 0.0")):
            scenario_params(spec)

    @pytest.mark.parametrize("path, value, reason", [
        ("store", 0.25, "is a table"),
        ("rate_limit", 5, "is a table"),
        ("store.fanout", True, "expects int"),
        ("store.fanout", 1.5, "expects int"),
        ("store.gossip_interval", True, "expects float"),
        ("store.gossip_interval", "fast", "expects float"),
    ])
    def test_param_path_must_name_a_value_of_its_type(
            self, path, value, reason):
        spec = gossip_spec(service=ServiceSpec(
            archetype="gossip", regions=("oregon",),
            params=((path, value),),
        ))
        with pytest.raises(ConfigurationError,
                           match=rf"service\.params\.{path}: .*{reason}"):
            scenario_params(spec)
        with pytest.raises(CalibrationError, match=reason):
            scenario_space(gossip_spec(calibration=CalibrationSpec(
                axes=((path, (value,)),),
            )))

    def test_int_stands_in_for_a_float_param(self):
        spec = gossip_spec(service=ServiceSpec(
            archetype="gossip", regions=("oregon",),
            params=(("store.gossip_interval", 1),),
        ))
        assert scenario_params(spec).store.gossip_interval == 1

    def test_config_lowering_applies_workload(self):
        spec = gossip_spec(
            workload=WorkloadSpec(num_tests=7,
                                  test_types=("test1",),
                                  mask_sessions=True),
            policy=PolicySpec(retry_attempts=1),
        )
        config = scenario_config(spec, CampaignConfig(seed=9))
        assert config.seed == 9
        assert config.num_tests == 7
        assert config.test_types == ("test1",)
        assert config.mask_sessions is True
        assert config.scenario is spec
        assert config.client_policy == PolicySpec(retry_attempts=1)

    def test_explicit_base_params_win(self):
        # Calibrate sweeps a scenario by pinning service_params on the
        # base config; the scenario's own overrides must not stomp it.
        spec = gossip_spec(service=ServiceSpec(
            archetype="gossip", regions=("oregon",),
            params=(("store.fanout", 3),),
        ))
        pinned = scenario_params(spec)
        pinned = dataclasses.replace(
            pinned, store=dataclasses.replace(pinned.store, fanout=8))
        config = scenario_config(
            spec, CampaignConfig(service_params=pinned))
        assert config.service_params.store.fanout == 8

    def test_workload_overrides_reach_the_plan(self):
        spec = gossip_spec(workload=WorkloadSpec(
            test2=(("fast_reads", 5),)))
        plan = scenario_plan(spec)
        assert plan.test2.fast_reads == 5

    def test_nemesis_instances_are_fresh_per_campaign(self):
        spec = gossip_spec(nemeses=(
            NemesisSpec(kind="periodic_partition", host_a="a",
                        host_b="b", period=3),
            NemesisSpec(kind="link_loss", links=(("a", "b"),),
                        probability=0.2),
        ))
        first = scenario_nemesis(spec)
        second = scenario_nemesis(spec)
        assert isinstance(first, CompositeNemesis)
        assert isinstance(first.parts[0], PeriodicPartitionNemesis)
        assert isinstance(first.parts[1], LinkLossNemesis)
        # Nemeses carry arming state; instances must not be shared.
        assert first is not second
        assert first.parts[0] is not second.parts[0]
        assert scenario_nemesis(gossip_spec()) is None

    def test_calibrate_hooks_require_declarations(self):
        with pytest.raises(ConfigurationError, match="axes"):
            scenario_space(gossip_spec())
        with pytest.raises(ConfigurationError, match="prevalence"):
            scenario_objective(gossip_spec())

    def test_declared_space_and_objective(self):
        spec = gossip_spec(calibration=CalibrationSpec(
            axes=(("store.fanout", (1, 2)),),
            prevalence=(("read_your_writes", 0.5),),
        ))
        space = scenario_space(spec)
        assert space.service == "probe"
        assert [axis.path for axis in space.axes] == ["store.fanout"]
        objective = scenario_objective(spec)
        assert objective.service == "probe"
        assert [(row.id, row.paper, row.weight)
                for row in objective.rows] == [
            ("fig3.probe.read_your_writes", 0.5, 1.0),
        ]

    def test_same_name_different_specs_each_get_a_space(self):
        calibration = CalibrationSpec(axes=(("store.fanout", (1, 2)),))
        first = gossip_spec(calibration=calibration)
        second = gossip_spec(calibration=calibration,
                             description="another probe")
        assert first.digest() != second.digest()
        for spec in (first, second):
            space = scenario_space(spec)
            assert space.params({"store.fanout": 2}).store.fanout == 2
        assert registered_scenarios() == ()


WORLD_SCENARIO = "examples/scenarios/gossip_world.toml"

#: (text added to the checked-in world scenario, the key it names).
#: A world runs its [topology] only; each of these would change nothing
#: it measures, so loading one fails closed.
UNLOWERED_WORLD_TABLES = [
    ('[service.params]\n"store.gossip_interval" = 99.0\n',
     "service.params.store.gossip_interval"),
    ("[workload]\nnum_tests = 7\n", "workload.num_tests"),
    ('[[nemesis]]\nkind = "periodic_partition"\n'
     'host_a = "node-oregon"\nhost_b = "node-tokyo"\n', "[[nemesis]]"),
    ("[policy]\nretry_attempts = 2\n", "[policy]"),
    ('[calibrate.axes]\n"store.fanout" = [1, 2]\n', "[calibrate]"),
    ('metrics = ["relaxed_consistency"]\n', "metrics"),
]


class TestWorldLowering:
    @pytest.fixture(scope="class")
    def world_text(self):
        with open(WORLD_SCENARIO, encoding="utf-8") as handle:
            return handle.read()

    def test_checked_in_world_scenario_lowers(self):
        spec = world_from_scenario(load_scenario(WORLD_SCENARIO))
        assert spec.name == "gossip_world"

    @pytest.mark.parametrize("extra, key", UNLOWERED_WORLD_TABLES,
                             ids=[key for _, key in UNLOWERED_WORLD_TABLES])
    def test_table_the_world_ignores_fails_closed(self, tmp_path,
                                                   world_text, extra, key):
        path = tmp_path / "gossip_world.toml"
        # Prepended: a top-level key must precede every table header.
        path.write_text(extra + world_text, encoding="utf-8")
        scenario = load_scenario(path)
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"sets {key}, which")):
            world_from_scenario(scenario)

"""Integration contracts of the relation layer.

Three equalities make spec-defined metrics trustworthy:

* **feed parity** — there is one metric evaluator; its results
  (values, samples, details) must be the same whether a test reaches
  it by sorted replay (``analyze_trace``), through the live watermark
  sequencer, or from archived trace events;
* **fold identity** — ``session_monotonicity_depth`` folds the
  monotonic-reads checker's evidence, so its samples must be exactly
  the (agent, time, evidence) reads ``check_all`` reports;
* **serial == parallel** — a fleet run with metrics enabled must
  produce byte-identical records at any job count.

Plus the end-to-end surfaces: scenario files, campaign save/load, and
the CLI flag.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.core import check_all
from repro.io import load_campaign, save_campaign
from repro.methodology import CampaignConfig, run_campaign
from repro.core.stream import run_to_completion
from repro.relations import (
    StreamingMetricEvaluator,
    evaluate_metrics,
    resolve_metrics,
)
from repro.relations.registry import metric_names
from repro.stream import record_mismatches
from tests.helpers import make_trace, read, write
from tests.test_stream_parity import (
    campaign_feed_mismatches,
    random_trace,
    trace_feed_mismatches,
)

ALL_METRICS = metric_names()

SMALL = CampaignConfig(num_tests=3, inter_test_gap=5.0,
                       keep_traces=True, metrics=ALL_METRICS)


def campaign_traces(service: str, seed: int = 11):
    config = dataclasses.replace(SMALL, seed=seed)
    result = run_campaign(service, config)
    return [record.trace for record in result.records]


class TestStreamingBatchParity:
    @pytest.mark.parametrize("service", [
        "blogger", "googleplus", "facebook_feed", "facebook_group",
        "quorum_kv",
    ])
    def test_campaign_traces_agree(self, service):
        records, mismatches = campaign_feed_mismatches(
            service, dataclasses.replace(SMALL, seed=11))
        assert mismatches == []
        assert all(len(record.metrics) == len(ALL_METRICS)
                   for record in records)

    @pytest.mark.parametrize("seed", range(25))
    def test_adversarial_random_traces_agree(self, seed):
        assert trace_feed_mismatches(random_trace(seed),
                                     ALL_METRICS) == []

    def test_streaming_state_drains_after_close(self):
        evaluator = StreamingMetricEvaluator(
            resolve_metrics(ALL_METRICS))
        trace = campaign_traces("facebook_feed")[0]
        (results,) = run_to_completion([evaluator], trace)
        assert len(results) == len(ALL_METRICS)
        assert evaluator.state_size() == 0

    def test_stream_engine_exports_relation_counters(self):
        from repro.obs import ObsContext
        from repro.stream import StreamEngine, replay_trace

        specs = resolve_metrics(("stale_read_inversions",
                                 "session_monotonicity_depth"))
        obs = ObsContext()
        engine = StreamEngine(horizon=1, obs=obs, metrics=specs)
        traces = campaign_traces("facebook_feed")
        for trace in traces:
            replay_trace(trace, engine)
        service = traces[0].service
        samples = obs.metrics.counter(
            "relations.samples_total", service=service,
            metric="stale_read_inversions").value
        total = obs.metrics.counter(
            "relations.value_total", service=service,
            metric="stale_read_inversions").value
        assert samples > 0
        assert total >= samples

    def test_record_mismatches_reports_metric_field(self):
        trace = make_trace([
            write("oregon", "m1", at=1.0),
            read("oregon", ["m1"], at=2.0),
            read("oregon", [], at=3.0),
        ])
        from repro.methodology.runner import analyze_trace

        specs = resolve_metrics(("session_monotonicity_depth",))
        with_metrics = analyze_trace(trace, metrics=specs)
        without = analyze_trace(trace)
        mismatches = record_mismatches(without, with_metrics)
        assert any(m.startswith("metrics:") for m in mismatches)


def assert_metrics_fold_the_report(trace):
    """The depth metric's samples are the monotonic-reads checker's
    observations, each valued by its ``missing`` set.

    Element order differs by construction (the report groups by
    agent, samples follow canonical read order), so both sides are
    compared as sorted evidence keys.
    """
    def keys(items):
        return sorted((item.agent, item.time,
                       item.details["missing"],
                       item.details["observed"]) for item in items)

    observations = check_all(trace).observations["monotonic_reads"]
    (result,) = evaluate_metrics(
        trace, resolve_metrics(("session_monotonicity_depth",)))
    assert keys(result.samples) == keys(observations)
    assert result.value == max(
        (len(obs.details["missing"]) for obs in observations),
        default=0)


class TestLegacyEquivalence:
    @pytest.mark.parametrize("service", [
        "googleplus", "facebook_feed", "facebook_group", "quorum_kv",
    ])
    def test_specs_match_checkers_on_campaigns(self, service):
        for trace in campaign_traces(service):
            assert_metrics_fold_the_report(trace)

    @pytest.mark.parametrize("seed", range(25))
    def test_specs_match_checkers_on_random_traces(self, seed):
        assert_metrics_fold_the_report(random_trace(seed))


class TestFleetByteIdentity:
    def test_serial_and_parallel_signatures_match(self):
        from repro.fleet import FleetSpec, run_fleet

        config = dataclasses.replace(SMALL, keep_traces=False)
        spec = FleetSpec(services=("facebook_feed", "quorum_kv"),
                         base_config=config, seeds=(3, 5))
        serial = run_fleet(spec, jobs=1)
        parallel = run_fleet(spec, jobs=4)
        assert serial.signature() == parallel.signature()
        sample = parallel.results[0].records[0]
        assert sample.metrics, \
            "fleet records should carry metric results"

    def test_campaign_save_load_round_trip(self, tmp_path):
        result = run_campaign(
            "facebook_feed", dataclasses.replace(
                SMALL, keep_traces=False))
        path = save_campaign(result, tmp_path / "campaign.json")
        restored = load_campaign(path)
        assert restored.config.metrics == tuple(ALL_METRICS)
        assert [r.metrics for r in restored.records] == \
            [r.metrics for r in result.records]


class TestConfigValidation:
    def test_config_rejects_unknown_metric(self):
        with pytest.raises(ConfigurationError,
                           match="unknown consistency metric"):
            CampaignConfig(metrics=("bogus",))

    def test_config_normalizes_metrics_to_tuple(self):
        config = CampaignConfig(metrics=["relaxed_consistency"])
        assert config.metrics == ("relaxed_consistency",)


SCENARIO_WITH_METRICS = """
metrics = ["relaxed_consistency", "session_monotonicity_depth"]

[scenario]
schema_version = 1
name = "measured"
description = "gossip scenario with relation metrics"

[service]
archetype = "gossip"

[workload]
num_tests = 2
test_types = ["test1"]
"""


class TestScenarioMetrics:
    def _load(self, tmp_path, body):
        from repro.scenario import load_scenario

        path = tmp_path / "scenario.toml"
        path.write_text(body, encoding="utf-8")
        return load_scenario(path)

    def test_loader_parses_metrics_key(self, tmp_path):
        spec = self._load(tmp_path, SCENARIO_WITH_METRICS)
        assert spec.metrics == ("relaxed_consistency",
                                "session_monotonicity_depth")

    def test_loader_rejects_unknown_metric(self, tmp_path):
        bad = SCENARIO_WITH_METRICS.replace(
            "relaxed_consistency", "not_a_metric")
        with pytest.raises(ConfigurationError,
                           match="unknown consistency metric"):
            self._load(tmp_path, bad)

    def test_metrics_enter_scenario_digest(self, tmp_path):
        spec = self._load(tmp_path, SCENARIO_WITH_METRICS)
        plain = self._load(
            tmp_path,
            SCENARIO_WITH_METRICS.replace(
                'metrics = ["relaxed_consistency", '
                '"session_monotonicity_depth"]\n', ""))
        assert spec.metrics and not plain.metrics
        assert spec.digest() != plain.digest()

    def test_scenario_lowers_metrics_into_config(self, tmp_path):
        from repro.scenario import scenario_config

        spec = self._load(tmp_path, SCENARIO_WITH_METRICS)
        config = scenario_config(spec)
        assert config.metrics == spec.metrics

    def test_cli_metrics_flag_wins_over_scenario(self, tmp_path):
        from repro.scenario import scenario_config

        spec = self._load(tmp_path, SCENARIO_WITH_METRICS)
        base = CampaignConfig(metrics=("stale_read_inversions",))
        config = scenario_config(spec, base)
        assert config.metrics == ("stale_read_inversions",)

    def test_scenario_campaign_computes_metrics(self, tmp_path):
        from repro.scenario import scenario_campaign

        spec = self._load(tmp_path, SCENARIO_WITH_METRICS)
        service, config = scenario_campaign(spec)
        result = run_campaign(service, config)
        for record in result.records:
            assert [m.metric for m in record.metrics] == \
                ["relaxed_consistency", "session_monotonicity_depth"]


class TestCliSurface:
    def test_run_prints_metric_table(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--service", "blogger", "--tests", "2",
            "--seed", "7", "--metrics",
            "relaxed_consistency,stale_read_inversions",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "relaxed_consistency" in out
        assert "stale_read_inversions" in out

    def test_run_rejects_unknown_metric(self, capsys):
        from repro.cli import main

        code = main(["run", "--service", "blogger", "--tests", "1",
                     "--metrics", "bogus"])
        assert code == 2
        assert capsys.readouterr().err.startswith("run: ")


class TestStoreDigestMessages:
    def test_spec_mismatch_names_scenario_digests(self, tmp_path):
        from repro.errors import FleetError
        from repro.fleet import FleetSpec
        from repro.fleet.store import ArtifactStore
        from repro.scenario.loader import scenario_from_mapping

        def spec_for(description):
            scenario = scenario_from_mapping({
                "scenario": {
                    "schema_version": 1,
                    "name": "measured",
                    "description": description,
                },
                "service": {"archetype": "gossip"},
                "workload": {"num_tests": 1,
                             "test_types": ["test1"]},
            }, "inline")
            return FleetSpec(services=("measured",),
                             base_config=CampaignConfig(num_tests=1),
                             seeds=(1,), scenarios=(scenario,))

        store = ArtifactStore(tmp_path)
        store.initialize(spec_for("one"))
        changed = spec_for("two")
        with pytest.raises(FleetError) as excinfo:
            ArtifactStore(tmp_path).initialize(changed)
        message = str(excinfo.value)
        assert "store scenario digests" in message
        assert changed.scenarios[0].digest() in message

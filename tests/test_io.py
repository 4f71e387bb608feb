"""Tests for campaign persistence and the one whole-file write."""

import json

import pytest

from repro.analysis import (
    pair_divergence,
    prevalence_rows,
    window_cdfs,
)
from repro.errors import AnalysisError
from repro.fleet import ArtifactStore, FleetSpec, execute_shard
from repro.io import (
    SCHEMA_VERSION,
    load_campaign,
    record_to_dict,
    replace_file,
    save_campaign,
)
from repro.methodology import CampaignConfig, run_campaign


@pytest.fixture(scope="module")
def campaign():
    return run_campaign("googleplus",
                        CampaignConfig(num_tests=8, seed=19))


class TestRoundTrip:
    def test_summary_survives_round_trip(self, campaign, tmp_path):
        path = save_campaign(campaign, tmp_path / "campaign.json")
        loaded = load_campaign(path)
        assert loaded.service == campaign.service
        assert loaded.total_tests == campaign.total_tests
        assert loaded.total_reads == campaign.total_reads
        assert loaded.total_writes == campaign.total_writes
        assert loaded.summary() == campaign.summary()

    def test_figures_identical_after_reload(self, campaign, tmp_path):
        path = save_campaign(campaign, tmp_path / "campaign.json")
        loaded = load_campaign(path)
        original_rows = [(row.anomaly, row.tests_with_anomaly)
                         for row in prevalence_rows(campaign)]
        loaded_rows = [(row.anomaly, row.tests_with_anomaly)
                       for row in prevalence_rows(loaded)]
        assert original_rows == loaded_rows
        assert (pair_divergence(loaded).counts
                == pair_divergence(campaign).counts)
        original_cdf = window_cdfs(campaign, kind="content")
        loaded_cdf = window_cdfs(loaded, kind="content")
        assert loaded_cdf.samples == original_cdf.samples
        assert loaded_cdf.unconverged == original_cdf.unconverged

    def test_observation_details_restored_with_tuples(self, campaign,
                                                      tmp_path):
        path = save_campaign(campaign, tmp_path / "campaign.json")
        loaded = load_campaign(path)
        for record in loaded.records:
            for observations in record.report.observations.values():
                for obs in observations:
                    for value in obs.details.values():
                        assert not isinstance(value, list), (
                            "details must round-trip to tuples"
                        )

    def test_config_restored(self, campaign, tmp_path):
        path = save_campaign(campaign, tmp_path / "campaign.json")
        loaded = load_campaign(path)
        assert loaded.config.num_tests == 8
        assert loaded.config.seed == 19
        assert loaded.config.test_types == ("test1", "test2")

    def test_traces_are_not_persisted(self, tmp_path):
        with_traces = run_campaign("blogger", CampaignConfig(
            num_tests=1, seed=1, keep_traces=True,
        ))
        path = save_campaign(with_traces, tmp_path / "c.json")
        loaded = load_campaign(path)
        assert all(record.trace is None for record in loaded.records)


class TestFormat:
    def test_document_is_valid_versioned_json(self, campaign, tmp_path):
        # Digest JSONL: a kind-tagged, versioned header, the service
        # line, then one line per record.
        path = save_campaign(campaign, tmp_path / "campaign.jsonl")
        header, head, *records = [
            json.loads(line) for line in path.read_text().splitlines()]
        assert header["kind"] == "campaign"
        assert header["schema_version"] == SCHEMA_VERSION
        assert header["lines"] == 1 + campaign.total_tests
        assert head["service"] == "googleplus"
        assert len(records) == campaign.total_tests

    def test_unknown_schema_version_rejected(self, campaign, tmp_path):
        path = save_campaign(campaign, tmp_path / "campaign.jsonl")
        header, body = path.read_text().split("\n", 1)
        document = json.loads(header)
        document["schema_version"] = 999
        path.write_text(json.dumps(document) + "\n" + body)
        with pytest.raises(AnalysisError, match="schema version"):
            load_campaign(path)

    def test_records_are_the_fleet_shard_lines(self, tmp_path):
        # One record encoding: a campaign file's record lines are the
        # bytes of the same campaign's fleet shard file.
        spec = FleetSpec(services=("googleplus",), seeds=(3,),
                         base_config=CampaignConfig(num_tests=2))
        (job,) = spec.jobs()
        store = ArtifactStore(tmp_path / "store")
        store.initialize(spec)
        store.write_shard(job, [record_to_dict(record) for record
                                in execute_shard(job).records])
        path = save_campaign(run_campaign(job.service, job.config),
                             tmp_path / "campaign.jsonl")
        record_lines = path.read_bytes().split(b"\n", 2)[2]
        assert record_lines
        assert record_lines == store.shard_path(job.shard_id).read_bytes()


def _chunks_then_fail(count):
    for index in range(count):
        yield f"chunk {index}\n"
    raise RuntimeError("writer died halfway")


class TestReplaceFile:
    def test_failed_write_keeps_the_old_bytes(self, tmp_path):
        target = replace_file(tmp_path / "state.json", ["old\n"])
        with pytest.raises(RuntimeError, match="halfway"):
            replace_file(target, _chunks_then_fail(3))
        assert target.read_bytes() == b"old\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["state.json"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            replace_file(tmp_path / "new.json", _chunks_then_fail(2))
        assert list(tmp_path.iterdir()) == []

    def test_write_creates_parents_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        assert replace_file(target, ("one", "two\n")) == target
        assert target.read_bytes() == b"onetwo\n"
        replace_file(target, iter(["three\n"]))
        assert target.read_bytes() == b"three\n"
        assert [path.name for path in target.parent.iterdir()] == \
            ["out.txt"]

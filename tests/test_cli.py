"""Tests for the command-line interface."""

import json
import signal
from contextlib import contextmanager

import pytest

from repro.cli import build_parser, main
from repro.core import ALL_ANOMALIES
from repro.fleet import FleetSpec, run_fleet
from repro.io import read_digest_jsonl
from repro.methodology import CampaignConfig
from repro.serve.store import HuntStore


@contextmanager
def deadline(seconds):
    """Fail a call still running after ``seconds`` instead of waiting."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def builtin_scenario(tmp_path):
    """Write a builtin pass-through scenario with one param override.

    The CLI registers every ``--scenario`` it loads; the names are
    forgotten afterwards so no other test sees them.
    """
    from repro.scenario import forget_scenario

    names = []

    def write(base, path, value):
        name = f"{base}_override"
        names.append(name)
        scenario = tmp_path / f"{name}.toml"
        scenario.write_text(
            f'[scenario]\nschema_version = 1\nname = "{name}"\n'
            f'[service]\narchetype = "builtin"\nbase = "{base}"\n'
            f'[service.params]\n"{path}" = {value}\n',
            encoding="utf-8")
        return str(scenario)

    yield write
    for name in names:
        forget_scenario(name)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_service_or_scenario(self):
        # --service became optional when --scenario arrived, so the
        # exactly-one check happens in the handler, not argparse.
        assert main(["run"]) == 2
        assert main(["run", "--service", "blogger", "--scenario",
                     "examples/scenarios/blogger.toml"]) == 2

    def test_run_rejects_unknown_service(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--service", "myspace"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--service", "blogger"])
        assert args.tests == 50
        assert args.seed == 0
        assert args.gap == 15.0


class TestCommands:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "--service", "blogger", "--tests", "2",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "service: blogger" in out
        assert "read_your_writes" in out
        assert "tests:   4" in out

    def test_figures_single_service(self, capsys):
        code = main(["figures", "--services", "blogger", "--tests", "2",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Figure 9" in out
        claims = out.split("== Paper claims (§V)")[1]
        assert "claims hold" in claims
        assert "fig3.blogger.read_your_writes" in claims
        assert "table2.blogger.reads" in claims
        assert "googleplus" not in claims

    def test_figures_rejects_unknown_service(self, capsys):
        code = main(["figures", "--services", "blogger,myspace",
                     "--tests", "2"])
        assert code == 2
        assert "unknown services" in capsys.readouterr().err

    def test_figures_accepts_extension_service(self, capsys):
        # The run subcommand accepts extension services; figures must
        # not reject them.
        code = main(["figures", "--services", "quorum_kv",
                     "--tests", "2", "--seed", "1"])
        assert code == 0
        assert "quorum_kv" in capsys.readouterr().out

    def test_figures_parallel_matches_serial(self, capsys):
        code = main(["figures", "--services", "blogger,googleplus",
                     "--tests", "2", "--seed", "1"])
        assert code == 0
        serial_out = capsys.readouterr().out
        code = main(["figures", "--services", "blogger,googleplus",
                     "--tests", "2", "--seed", "1", "--jobs", "2"])
        assert code == 0
        assert capsys.readouterr().out == serial_out

    def test_fleet_runs_and_resumes(self, capsys, tmp_path):
        argv = ["fleet", "--services", "blogger", "--seeds", "1,2",
                "--tests", "2", "--jobs", "2",
                "--out", str(tmp_path / "store")]
        code = main(argv)
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 2 shards on 2 worker(s)" in out
        assert "Fleet summary" in out
        assert "read_your_writes" in out
        signature = [line for line in out.splitlines()
                     if "signature" in line]
        claims = tmp_path / "store" / "claims.jsonl"
        written = claims.read_bytes()
        head, *rows = read_digest_jsonl(claims, kind="claims",
                                        schema_version=1)
        assert head["config"]["num_tests"] == 2
        assert head["config"]["inter_test_gap"] == 15.0
        assert {(row["seed"], row["id"]) for row in rows} == {
            (seed, row["id"]) for seed in (1, 2) for row in rows}
        assert len(rows) == 2 * len({row["id"] for row in rows})
        assert all(set(row) == {"seed", "id", "value", "holds", "applies"}
                   for row in rows)
        code = main(argv)
        assert code == 0
        resumed = capsys.readouterr().out
        assert claims.read_bytes() == written
        assert "2 resumed from store" in resumed
        assert "skipped: complete in store" in resumed
        assert "(0 executed, 2 skipped, 0 retries)" in resumed
        assert [line for line in resumed.splitlines()
                if "signature" in line] == signature

    def test_fleet_derives_seeds(self, capsys):
        code = main(["fleet", "--services", "blogger",
                     "--replicates", "2", "--tests", "2", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet:" not in out  # telemetry suppressed
        assert "anomaly prevalence over 2 seed(s)" in out

    def test_fleet_prints_every_fig3_cell_of_a_non_paper_service(
            self, capsys):
        # quorum_kv has no paper values and a one-seed fleet no D:
        # six Fig. 3 lines, each pooled, with "-" for D and the paper.
        code = main(["fleet", "--services", "quorum_kv", "--seeds", "4",
                     "--tests", "2", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "quorum_kv: anomaly prevalence over 1 seed(s)" in out
        lines = [line.split() for line in out.splitlines()
                 if line.split()[:1] and line.split()[0] in ALL_ANOMALIES]
        assert [line[0] for line in lines] == list(ALL_ANOMALIES)
        for line in lines:
            assert line[3] == "-" and line[-3:] == ["pooled", "-", "-"]
        assert "claim rows that fail at some seed:\n  none" in out

    def test_fleet_rejects_unknown_service(self, capsys):
        code = main(["fleet", "--services", "myspace", "--tests", "2"])
        assert code == 2
        assert "unknown services" in capsys.readouterr().err

    def test_fleet_rejects_clashing_scenario_names(self, tmp_path,
                                                   capsys):
        text = ('[scenario]\nschema_version = 1\nname = "probe"\n'
                '[service]\narchetype = "gossip"\n')
        first, second = tmp_path / "a.toml", tmp_path / "b.toml"
        first.write_text(text, encoding="utf-8")
        second.write_text(text + 'regions = ["oregon"]\n',
                          encoding="utf-8")
        code = main(["fleet", "--scenario", str(first), "--scenario",
                     str(second), "--tests", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("fleet: ") and "duplicate scenario name" in err
        assert str(first) in err
        assert str(second) in err

    @pytest.mark.parametrize("verb, base, path, owner", [
        ("run", "facebook_group", "store.antientropy_interval",
         "GroupStoreParams"),
        ("fleet", "googleplus", "replication_eu.antientropy_interval",
         "EventualParams"),
    ])
    def test_zero_interval_fails_closed_instead_of_hanging(
            self, verb, base, path, owner, builtin_scenario, capsys):
        scenario = builtin_scenario(base, path, 0.0)
        with deadline(60):
            code = main([verb, "--scenario", scenario, "--tests", "1",
                         "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"{verb}: service.params.{path}: {owner}."
            "antientropy_interval must be > 0, got 0.0\n")

    def test_bad_param_path_is_one_line_not_a_traceback(
            self, builtin_scenario, capsys):
        scenario = builtin_scenario("googleplus", "replication_us.nope", 1)
        assert main(["run", "--scenario", scenario, "--tests", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run: service.params.replication_us.nope: ")
        assert err.count("\n") == 1

    def test_run_with_output_then_report(self, capsys, tmp_path):
        saved = tmp_path / "blogger.json"
        code = main(["run", "--service", "blogger", "--tests", "2",
                     "--seed", "1", "--output", str(saved)])
        assert code == 0
        assert saved.exists()
        capsys.readouterr()
        code = main(["report", str(saved)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "blogger" in out

    def test_clocksync_reports_bounded_errors(self, capsys):
        code = main(["clocksync", "--seed", "4", "--samples", "6"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines()
                 if line.strip().startswith(("oregon", "tokyo",
                                             "ireland"))]
        assert len(lines) == 3
        for line in lines:
            parts = line.split()
            error, bound = float(parts[3]), float(parts[4])
            assert error <= bound


class TestFollowLines:
    def test_holds_back_a_line_still_being_written(self, tmp_path,
                                                   monkeypatch):
        """A producer caught mid-append: the fragment is not a line
        until its newline arrives."""
        import itertools
        import time

        from repro.cli import _follow_lines

        first = '{"event": "test_close", "test_id": "a"}\n'
        second = '{"event": "test_close", "test_id": "b"}\n'
        path = tmp_path / "trace.jsonl"
        path.write_text(first + second[:17], encoding="utf-8")

        def finish_the_write(seconds):
            with path.open("a", encoding="utf-8") as producer:
                producer.write(second[17:])

        monkeypatch.setattr(time, "sleep", finish_the_write)
        with path.open("r", encoding="utf-8") as handle:
            lines = list(itertools.islice(_follow_lines(handle), 2))
        assert lines == [first, second]


class TestHuntVerbs:
    """``hunt`` / ``serve --once`` on one root, no HTTP."""

    SUBMIT = ["--services", "blogger", "--seeds", "1,2",
              "--tests", "1", "--test-types", "test1"]

    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_submit_schedule_and_inspect(self, capsys, tmp_path):
        root = ["--root", str(tmp_path)]
        code, out = self.run(capsys, "hunt", "list", *root)
        assert (code, out) == (0, "no hunts\n")
        code, out = self.run(capsys, "serve", "--once", *root)
        assert (code, out) == (0, "nothing runnable\n")

        code, out = self.run(capsys, "hunt", "submit", *root,
                             *self.SUBMIT)
        assert code == 0
        assert "submitted h0000 (2 shards)" in out
        code, out = self.run(capsys, "hunt", "list", *root)
        assert out.split() == ["h0000", "queued", "0/2", "shards"]

        # A paused hunt is not runnable; resuming re-queues it.
        code, out = self.run(capsys, "hunt", "pause", *root,
                             "--id", "h0000")
        assert out.endswith("h0000: paused\n")
        code, out = self.run(capsys, "serve", "--once", *root)
        assert out == "nothing runnable\n"
        code, out = self.run(capsys, "hunt", "resume", *root,
                             "--id", "h0000")
        assert out.endswith("h0000: queued\n")

        code, out = self.run(capsys, "serve", "--once", "--quiet",
                             *root)
        assert code == 0
        assert out.startswith(
            "h0000: done  (2 shards this pass, 0 retries)  signature ")

        direct = run_fleet(FleetSpec(
            services=("blogger",), seeds=(1, 2),
            base_config=CampaignConfig(num_tests=1,
                                       test_types=("test1",)),
        ))
        assert out.split()[-1] == direct.signature()[:16]
        code, out = self.run(capsys, "hunt", "status", *root,
                             "--id", "h0000")
        assert "status: done\n" in out
        assert "shards_done: 2\n" in out
        assert f"fleet_signature: {direct.signature()}\n" in out
        code, out = self.run(capsys, "hunt", "results", *root,
                             "--id", "h0000")
        assert code == 0
        assert len(out.splitlines()) == 2  # one test per shard

        code, out = self.run(capsys, "hunt", "events", *root,
                             "--id", "h0000", "--after", "1")
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["seq"] == 2
        assert records[-1]["event"] == "hunt.state"
        assert records[-1]["status"] == "done"

    def test_events_follow_doubles_as_the_worker(self, capsys,
                                                 tmp_path):
        root = ["--root", str(tmp_path)]
        self.run(capsys, "hunt", "submit", *root, *self.SUBMIT)
        code, out = self.run(capsys, "hunt", "events", *root,
                             "--id", "h0000", "--follow")
        assert code == 0
        # Telemetry lines ("hunt h0000: ...") interleave with the
        # feed's JSON records.
        records = [json.loads(line) for line in out.splitlines()
                   if line.startswith("{")]
        assert [record["seq"] for record in records] == \
            list(range(len(records)))
        kinds = [record["event"] for record in records]
        assert kinds[0] == "hunt.submitted"
        assert kinds.count("shard.completed") == 2
        assert records[-1]["status"] == "done"
        code, out = self.run(capsys, "hunt", "list", *root)
        assert out.split() == ["h0000", "done", "2/2", "shards"]

    def test_results_flag_each_records_observed_kinds(self, capsys,
                                                      tmp_path):
        root = ["--root", str(tmp_path)]
        self.run(capsys, "hunt", "submit", *root,
                 "--services", "facebook_feed", "--seeds", "1",
                 "--tests", "3", "--test-types", "test1")
        self.run(capsys, "serve", "--once", "--quiet", *root)
        code, out = self.run(capsys, "hunt", "results", *root,
                             "--id", "h0000")
        assert code == 0
        store = HuntStore(tmp_path).artifact_store("h0000")
        (shard_id,) = store.completed_shards()
        expected = [
            [f"{shard_id}/{record['test_id']}",
             ",".join(sorted(kind for kind, found
                             in record["observations"].items()
                             if found)) or "-"]
            for record in store.load_shard_records(shard_id)
        ]
        assert [line.split() for line in out.splitlines()] == expected
        assert any(flagged != "-" for _, flagged in expected)

    def test_verb_without_its_id_is_refused(self, tmp_path):
        with pytest.raises(SystemExit,
                           match="hunt status requires --id"):
            main(["hunt", "status", "--root", str(tmp_path)])

    @pytest.mark.parametrize("argv", [
        ["hunt", "run"],
        ["hunt", "list", "--policy", "sequential"],
        ["serve", "--once", "--policy", "stealing"],
    ])
    def test_removed_spellings_are_usage_errors(self, argv, tmp_path):
        # 'hunt run' was a second spelling of 'serve --once'; --policy
        # selected a dispatch order nothing but a benchmark used.
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--root", str(tmp_path)])
        assert exit_info.value.code == 2

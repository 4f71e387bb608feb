"""Tests for repro.calibrate: targets, spaces, searcher, resume, CLI.

The load-bearing guarantees mirror the fleet suite's: a search is a
pure function of (space, budget, seed) — same inputs give
byte-identical rung stores and the same winner whether candidates run
serially or on four workers — and a damaged rung store resumes to the
identical outcome instead of silently recomputing something else.
"""

import json
import re
from pathlib import Path

import pytest

from repro.calibrate import (
    Axis,
    FidelityScore,
    FleetEvaluator,
    Objective,
    SearchSpace,
    ServiceTargets,
    SuccessiveHalving,
    TrialResult,
    base_params,
    comparison_table,
    default_objective,
    default_space,
    fidelity_table,
    paper_targets,
    run_calibration,
    target_services,
    write_fidelity_json,
)
from repro.calibrate.claims import Claim, S
from repro.calibrate.search import ETA
from repro.cli import main as repro_main
from repro.errors import CalibrationError, FleetError
from repro.fleet import ArtifactStore
from repro.methodology import CampaignConfig, CampaignResult, run_campaign
from repro.scenario import (
    forget_scenario,
    load_scenario,
    scenario_campaign,
    scenario_objective,
)

GOSSIP_MESH = (Path(__file__).parent.parent / "examples" / "scenarios"
               / "gossip_mesh.toml")

#: Smallest useful real evaluation: one test type, two tests.
SMALL = CampaignConfig(num_tests=2, seed=0, test_types=("test1",))

#: ``default_objective(s).evaluate(...).total`` on a 3-test, seed-7
#: campaign, and the gossip_mesh scenario objective's on the same
#: budget: recorded when the objective was four hand-built term
#: families, before it became a weighted sum of claim rows.
PINNED_TOTALS = {
    "googleplus": 2.049713581998208,
    "blogger": 0.0,
    "facebook_feed": 1.8622190623326014,
    "facebook_group": 0.7280808080808081,
    "gossip_mesh": 0.20000000000000007,
}


def json_roundtrip(document):
    return json.loads(json.dumps(document))


class TestTargets:
    def test_every_target_service_has_an_objective(self):
        for service in target_services():
            objective = default_objective(service)
            assert objective.service == service
            assert all(row.weight > 0 and row.services == (service,)
                       for row in objective.rows)

    def test_unknown_service_is_an_error(self):
        with pytest.raises(CalibrationError, match="no paper targets"):
            paper_targets("myspace")

    def test_prevalence_fraction_is_validated(self):
        with pytest.raises(CalibrationError, match="fraction"):
            ServiceTargets(service="x", prevalence={"ryw": 1.5})

    def test_pair_keys_must_be_sorted(self):
        with pytest.raises(CalibrationError, match="not sorted"):
            ServiceTargets(
                service="x",
                pair_content={("oregon", "ireland"): 0.5},
            )

    def test_googleplus_numbers_match_the_paper(self):
        targets = paper_targets("googleplus")
        assert targets.prevalence["content_divergence"] == 0.85
        assert targets.reads_test1 == 48
        assert targets.pair_content[("ireland", "oregon")] == 0.85
        assert targets.pair_content[("oregon", "tokyo")] == 0.15


class TestSpace:
    def test_candidate_zero_is_the_baseline(self):
        space = default_space("googleplus")
        defaults = space.assignment(0)
        base = space.params({})
        for path, value in defaults.items():
            outer, _, inner = path.partition(".")
            node = getattr(base, outer)
            assert getattr(node, inner) == value

    def test_mixed_radix_decode_first_axis_most_significant(self):
        space = SearchSpace(service="blogger", axes=(
            Axis("write_processing_median", (0.17, 0.12)),
            Axis("read_processing_median", (0.04, 0.06, 0.08)),
        ), base=base_params("blogger"))
        assert space.size == 6
        assert list(space.assignment(0).values()) == [0.17, 0.04]
        assert list(space.assignment(2).values()) == [0.17, 0.08]
        assert list(space.assignment(3).values()) == [0.12, 0.04]
        assert list(space.assignment(5).values()) == [0.12, 0.08]

    def test_assignment_materializes_nested_params(self):
        space = default_space("googleplus")
        params = space.params(
            {"replication_eu.sync_interval": 0.05}
        )
        assert params.replication_eu.sync_interval == 0.05
        # Untouched knobs keep their defaults.
        assert params.replication_us.sync_interval == 0.4

    def test_unknown_path_is_an_error(self):
        with pytest.raises(CalibrationError):
            SearchSpace(service="blogger", axes=(
                Axis("no_such_knob", (1, 2)),
            ), base=base_params("blogger"))

    def test_every_axis_value_must_fit_its_field(self):
        # Not just the default: a later value of the wrong type would
        # otherwise surface mid-search.
        with pytest.raises(CalibrationError, match="expects float"):
            SearchSpace(service="blogger", axes=(
                Axis("read_processing_median", (0.04, True)),
            ), base=base_params("blogger"))

    def test_index_out_of_range_is_an_error(self):
        space = default_space("blogger")
        with pytest.raises(CalibrationError):
            space.assignment(space.size)

    def test_unknown_service_has_no_default_space(self):
        with pytest.raises(CalibrationError, match="no default"):
            default_space("myspace")


class TestObjective:
    @pytest.fixture(scope="class")
    def blogger_result(self):
        return run_campaign("blogger", CampaignConfig(
            num_tests=2, seed=0,
        ))

    def test_term_order_is_fixed(self, blogger_result):
        score = default_objective("blogger").evaluate(blogger_result)
        names = [term.claim.id for term in score.terms]
        assert names == [
            "fig3.blogger.read_your_writes",
            "fig3.blogger.monotonic_writes",
            "fig3.blogger.monotonic_reads",
            "fig3.blogger.writes_follow_reads",
            "fig3.blogger.content_divergence",
            "fig3.blogger.order_divergence",
            "table1.blogger.reads",
        ]

    def test_total_is_the_weighted_sum(self, blogger_result):
        score = default_objective("blogger").evaluate(blogger_result)
        expected = sum(t.claim.weight * t.loss for t in score.terms)
        assert score.total == pytest.approx(expected)

    def test_score_roundtrips_through_json(self, blogger_result):
        score = default_objective("blogger").evaluate(blogger_result)
        document = score.to_jsonable()
        assert json_roundtrip(document) == document
        assert document["total"] == score.total
        assert [(term["name"], term["measured"], term["target"],
                 term["weight"], term["loss"])
                for term in document["terms"]] == [
            (term.claim.id, term.value, term.claim.paper,
             term.claim.weight, term.loss) for term in score.terms]

    @pytest.mark.parametrize("service", sorted(PINNED_TOTALS))
    def test_totals_match_the_term_families_they_replace(self, service):
        config = CampaignConfig(num_tests=3, seed=7)
        if service == "gossip_mesh":
            spec = load_scenario(GOSSIP_MESH)
            objective = scenario_objective(spec)
            result = run_campaign(*scenario_campaign(spec, config))
        else:
            objective = default_objective(service)
            result = run_campaign(service, config)
        total = objective.evaluate(result).total
        assert abs(total - PINNED_TOTALS[service]) <= 1e-12

    def test_a_statistic_with_nothing_to_measure_scores_zero(self):
        (row,) = [row for row in default_objective("googleplus").rows
                  if row.id == "fig9.googleplus.oregon_tokyo_vs_ireland"]
        empty = CampaignResult(service="googleplus", config=SMALL)
        (term,) = Objective(rows=(row,)).evaluate(empty).terms
        # The row's guard is false here; the loss is scored regardless.
        assert (term.value, term.loss) == (0.0, row.paper)

    def test_service_mismatch_is_an_error(self, blogger_result):
        objective = default_objective("googleplus")
        with pytest.raises(CalibrationError, match="cannot score"):
            objective.evaluate(blogger_result)

    def test_empty_targets_are_rejected(self):
        with pytest.raises(CalibrationError, match="empty"):
            Objective(rows=())
        shape_only = Claim("fig3.x.read_your_writes",
                           S("share", "x", "read_your_writes"), "==", 0.0)
        with pytest.raises(CalibrationError, match="not a weighted row"):
            Objective(rows=(shape_only,))


def scripted_evaluator(losses):
    """Evaluator returning scripted losses: losses[rung][candidate]."""
    def evaluate(rung, num_tests, candidates):
        return [
            TrialResult(
                trial_id=f"r{rung}/c{index:04d}", candidate=index,
                rung=rung, num_tests=num_tests, assignment=assignment,
                score=FidelityScore(service="blogger", terms=(),
                                    total=losses[rung][index]),
            )
            for index, assignment in candidates
        ]
    return evaluate


def rungs_of(outcome):
    """{rung: [candidate, ...]} in evaluation order."""
    by_rung = {}
    for trial in outcome.trials:
        by_rung.setdefault(trial.rung, []).append(trial.candidate)
    return by_rung


class TestSearchers:
    @pytest.fixture()
    def space(self):
        return default_space("blogger")  # 2x2 = 4 candidates

    def test_halving_shields_the_baseline(self, space):
        # Candidate 0 is worst everywhere, yet rides along into every
        # rung; the search ends in a head-to-head it then loses.
        losses = {
            0: {0: 9.0, 1: 1.0, 2: 2.0, 3: 3.0},
            1: {0: 9.0, 1: 1.0, 2: 0.5},
            2: {0: 9.0, 2: 0.5},
        }
        searcher = SuccessiveHalving(space, base_tests=2)
        outcome = searcher.run(scripted_evaluator(losses))
        assert outcome.winner.candidate == 2
        assert all(0 in candidates
                   for candidates in rungs_of(outcome).values())
        # Rung 2's survivor set ({0, 2}) no longer shrinks, so it is
        # the final head-to-head; budgets multiply by ETA per rung.
        assert sorted({t.num_tests for t in outcome.trials}) == \
            [2, 2 * ETA, 2 * ETA * ETA]
        # The baseline's highest-budget trial sits in the final rung,
        # so winner-vs-default comparisons are apples to apples.
        assert outcome.baseline_trial().num_tests == \
            outcome.winner.num_tests

    def test_halving_ties_break_toward_lower_candidate(self, space):
        # Rung 1 keeps one challenger out of a 1-vs-2 tie: candidate 1.
        losses = {
            0: {0: 1.0, 1: 0.5, 2: 0.5, 3: 0.9},
            1: {0: 1.0, 1: 0.5, 2: 0.5},
            2: {0: 1.0, 1: 0.5},
        }
        outcome = SuccessiveHalving(space, base_tests=2).run(
            scripted_evaluator(losses)
        )
        assert rungs_of(outcome)[2] == [0, 1]
        assert outcome.winner.candidate == 1

    def test_halving_confirms_a_winning_baseline(self, space):
        losses = {
            0: {0: 0.1, 1: 1.0, 2: 2.0, 3: 3.0},
            1: {0: 0.1, 1: 1.0},
        }
        outcome = SuccessiveHalving(space, base_tests=2).run(
            scripted_evaluator(losses)
        )
        assert outcome.winner.candidate == 0

    def test_halving_stops_when_only_the_baseline_survives(self, space):
        # A rung of the baseline alone cannot change the winner, so
        # the search ends with the rung that left only candidate 0.
        losses = {
            0: {0: 0.1, 1: 1.0, 2: 2.0, 3: 3.0},
            1: {0: 0.1, 1: 1.0},
        }
        outcome = SuccessiveHalving(space, base_tests=2).run(
            scripted_evaluator(losses)
        )
        assert rungs_of(outcome) == {0: [0, 1, 2, 3], 1: [0, 1]}
        assert outcome.winner.trial_id == "r1/c0000"

    def test_constructor_validation(self, space):
        with pytest.raises(CalibrationError):
            SuccessiveHalving(space, base_tests=0)


def run_blogger_search(store_dir, jobs=1, on_message=None):
    return run_calibration(
        "blogger", num_tests=2, jobs=jobs,
        base_config=SMALL, store_dir=store_dir,
        on_message=on_message,
    )


#: The evaluator's per-rung resume report.
RESUMED = re.compile(r"rung (\d+): (\d+) shard\(s\) "
                     r"\[resumed from store\], (\d+) executed")


def resume_reports(messages):
    """(rung, resumed, executed) per resume report, in order."""
    return [tuple(int(group) for group in match.groups())
            for match in map(RESUMED.fullmatch, messages) if match]


def shard_bytes(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.glob("r*/shards/*.jsonl"))}


class TestSearchDeterminism:
    def test_serial_and_parallel_stores_are_byte_identical(
            self, tmp_path):
        serial = run_blogger_search(tmp_path / "serial", jobs=1)
        parallel = run_blogger_search(tmp_path / "parallel", jobs=4)
        assert serial.winner == parallel.winner
        assert serial.trials == parallel.trials
        serial_bytes = shard_bytes(tmp_path / "serial")
        assert serial_bytes
        assert serial_bytes == shard_bytes(tmp_path / "parallel")

    def test_rerun_resumes_from_the_store(self, tmp_path):
        first = run_blogger_search(tmp_path)
        messages = []
        second = run_blogger_search(tmp_path,
                                    on_message=messages.append)
        assert second.winner == first.winner
        assert second.trials == first.trials
        assert any("[resumed from store]" in m for m in messages)
        # A complete store executes no shard: every rung reports all
        # of its candidates' shards resumed and none executed.
        sizes = {}
        for trial in first.trials:
            sizes[trial.rung] = sizes.get(trial.rung, 0) + 1
        assert resume_reports(messages) == [
            (rung, size, 0) for rung, size in sorted(sizes.items())
        ]

    def test_resume_after_damage_restores_identical_bytes(
            self, tmp_path):
        first = run_blogger_search(tmp_path)
        shard = sorted((tmp_path / "r0" / "shards").glob("*.jsonl"))[0]
        pristine = shard.read_bytes()
        # Kill mid-write: truncate one shard file.  The rest of the
        # rung's fleet store is still digest-valid, so the re-run
        # re-simulates only that shard.
        shard.write_bytes(pristine[:-7])
        assert ArtifactStore(tmp_path / "r0").shard_state(
            shard.stem) == "corrupt"
        messages = []
        second = run_blogger_search(tmp_path,
                                    on_message=messages.append)
        assert second.winner == first.winner
        assert second.trials == first.trials
        assert shard.read_bytes() == pristine
        assert resume_reports(messages)[0] == (0, 3, 1)

    def test_store_is_bound_to_the_exact_search(self, tmp_path):
        run_blogger_search(tmp_path)
        with pytest.raises(FleetError, match="belongs to"):
            run_calibration("blogger", num_tests=3,
                            base_config=SMALL, store_dir=tmp_path)

    def test_cached_batch_must_match_the_request(self, tmp_path):
        run_blogger_search(tmp_path)
        space = default_space("blogger")
        evaluator = FleetEvaluator(
            space=space, objective=default_objective("blogger"),
            base_config=SMALL, store_dir=tmp_path,
        )
        with pytest.raises(FleetError, match="belongs to"):
            evaluator(0, 2, [(1, space.assignment(1))])

    def test_edited_objective_rescores_the_stored_rung(self, tmp_path):
        first = run_blogger_search(tmp_path)
        space = default_space("blogger")
        edited = Objective(rows=(Claim(
            "fig3.blogger.read_your_writes",
            S("share", "blogger", "read_your_writes"),
            paper=0.5, weight=1.0,
        ),))
        messages = []
        evaluator = FleetEvaluator(
            space=space, objective=edited, base_config=SMALL,
            store_dir=tmp_path, on_message=messages.append,
        )
        trials = evaluator(0, 2, list(enumerate(space.assignments())))
        assert resume_reports(messages) == [(0, space.size, 0)]
        stored = [trial for trial in first.trials if trial.rung == 0]
        assert [t.assignment for t in trials] == \
            [t.assignment for t in stored]
        assert [t.score.total for t in trials] != \
            [t.score.total for t in stored]

    def test_evaluator_rejects_conflicting_config(self):
        space = default_space("blogger")
        with pytest.raises(CalibrationError, match="service_params"):
            FleetEvaluator(
                space=space,
                objective=default_objective("blogger"),
                base_config=CampaignConfig(
                    service_params=space.params({}),
                ),
            )


class TestWinnersAndReport:
    def test_tables_and_json_roundtrip(self, tmp_path):
        result = run_campaign("blogger", SMALL)
        score = default_objective("blogger").evaluate(result)
        table = fidelity_table(score)
        assert "table1.blogger.reads" in table
        assert f"{score.total:.4f}" in table
        comparison = comparison_table(score, score)
        assert "default" in comparison and "calibrated" in comparison
        path = write_fidelity_json(tmp_path / "fidelity.json",
                                   {"blogger": score},
                                   extra={"seed": 0})
        document = json.loads(path.read_text())
        assert document["extra"] == {"seed": 0}
        assert document["scores"]["blogger"] == \
            json_roundtrip(score.to_jsonable())


class TestCli:
    def test_calibrate_subcommand_end_to_end(self, tmp_path, capsys):
        store_dir = tmp_path / "trials"
        fidelity = tmp_path / "fidelity.json"
        code = repro_main([
            "calibrate", "--service", "blogger", "--tests", "2",
            "--store-out", str(store_dir),
            "--calibrate-out", str(fidelity),
            "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Calibration winner for blogger" in out
        assert (store_dir / "r0" / "manifest.json").is_file()
        document = json.loads(fidelity.read_text())
        assert document["extra"]["service"] == "blogger"
        assert "blogger.calibrated" in document["scores"]

    def test_foreign_store_fails_closed(self, tmp_path, capsys):
        store_dir = str(tmp_path / "trials")
        assert repro_main(["calibrate", "--service", "blogger",
                           "--tests", "2", "--store-out", store_dir,
                           "--quiet"]) == 0
        capsys.readouterr()
        code = repro_main(["calibrate", "--service", "blogger",
                           "--tests", "3", "--store-out", store_dir,
                           "--quiet"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("calibrate: fleet store ")
        assert "belongs to spec" in captured.err

    def test_non_leaf_axis_fails_closed(self, tmp_path, capsys):
        scenario = tmp_path / "probe.toml"
        scenario.write_text(
            '[scenario]\nschema_version = 1\nname = "probe"\n'
            '[service]\narchetype = "gossip"\n'
            'regions = ["oregon", "tokyo"]\n'
            '[calibrate.axes]\n"store" = [1, 2]\n'
            '[calibrate.targets.prevalence]\nread_your_writes = 0.5\n',
            encoding="utf-8",
        )
        try:
            code = repro_main(["calibrate", "--scenario", str(scenario),
                               "--tests", "1", "--quiet"])
        finally:
            forget_scenario("probe")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("calibrate: ")
        assert "is a table, not a value" in captured.err

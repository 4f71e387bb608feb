"""Tests for the determinism & trace-safety linter (repro.lint).

Covers every shipped rule with known-bad and known-clean fixture
snippets, waiver handling, configuration loading, JSON output schema,
exit codes, and — crucially — the meta-test that the linter reports zero unwaived
findings over this repository's own ``src/`` tree.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    Finding,
    LintConfig,
    LintEngine,
    Severity,
    lint_paths,
    load_config,
    module_name,
    rule_codes,
)
from repro.lint.cli import main as lint_main
from repro.lint.config import find_pyproject
from repro.lint.waivers import collect_waivers

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Rules shipped so far; the registry must contain all of them.
SHIPPED_RULES = ("DET001", "DET002", "DET003", "DET004", "DET005",
                 "DET006", "DET007", "PAR001", "TRACE001", "TRACE002",
                 "API001")


def lint_snippet(tmp_path, source, *, filename="mod.py", config=None):
    """Lint one dedented snippet; returns (unwaived, waived) findings."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return LintEngine(config or LintConfig()).lint_file(path)


def codes(findings):
    return [finding.code for finding in findings]


SIM_CFG = LintConfig(sim_scopes=("mod",))
TRACE_CFG = LintConfig(trace_scopes=("mod",))
AGG_CFG = LintConfig(aggregation_scopes=("mod",))


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        registered = rule_codes()
        for code in SHIPPED_RULES:
            assert code in registered

    def test_severities(self):
        from repro.lint import get_rule

        assert get_rule("DET001").severity is Severity.ERROR
        assert get_rule("DET002").severity is Severity.ERROR
        assert get_rule("TRACE001").severity is Severity.ERROR
        assert get_rule("API001").severity is Severity.WARNING


class TestDET001:
    def test_flags_direct_import(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            import random

            __all__ = []
        """)
        det = [f for f in kept if f.code == "DET001"]
        assert len(det) == 1
        assert det[0].line == 1

    def test_flags_from_import(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            from random import gauss

            __all__ = []
        """)
        assert "DET001" in codes(kept)

    def test_flags_attribute_call_even_without_import(self, tmp_path):
        # This mirrors the acceptance-criteria injection: a bare
        # random.random() call dropped into a module body.
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = []


            def sample():
                return random.random()
        """)
        det = [f for f in kept if f.code == "DET001"]
        assert len(det) == 1
        assert det[0].line == 5
        assert "random.random" in det[0].message

    def test_allowlisted_module_exempt(self, tmp_path):
        config = LintConfig(random_allowlist=("mod",))
        kept, _ = lint_snippet(tmp_path, """\
            import random

            __all__ = []
        """, config=config)
        assert "DET001" not in codes(kept)

    def test_clean_module_passes(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            from repro.sim.random_source import RandomSource

            __all__ = ["draw"]


            def draw(rng: RandomSource) -> float:
                return rng.uniform("mod.jitter", 0.0, 1.0)
        """)
        assert "DET001" not in codes(kept)


class TestDET002:
    def test_flags_time_time_in_scope(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            import time

            __all__ = []


            def now() -> float:
                return time.time()
        """, config=SIM_CFG)
        det = [f for f in kept if f.code == "DET002"]
        assert len(det) == 1
        assert det[0].line == 7

    def test_flags_aliased_import(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            import time as walltime

            __all__ = []
            STARTED = walltime.monotonic()
        """, config=SIM_CFG)
        assert "DET002" in codes(kept)

    def test_flags_datetime_now_via_from_import(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            from datetime import datetime

            __all__ = []
            STAMP = datetime.now()
        """, config=SIM_CFG)
        assert "DET002" in codes(kept)

    @pytest.mark.parametrize("call", [
        "os.urandom(8)", "uuid.uuid4()", "secrets.token_bytes(8)",
    ])
    def test_flags_entropy_reads(self, tmp_path, call):
        module = call.split(".")[0]
        kept, _ = lint_snippet(tmp_path, f"""\
            import {module}

            __all__ = []
            VALUE = {call}
        """, config=SIM_CFG)
        assert "DET002" in codes(kept)

    def test_out_of_scope_module_not_flagged(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            import time

            __all__ = []
            STARTED = time.time()
        """, config=LintConfig(sim_scopes=("somewhere.else",)))
        assert "DET002" not in codes(kept)

    def test_virtual_clock_reads_pass(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["sample"]


            def sample(sim, rng) -> float:
                return sim.now + rng.exponential("mod.lag", 0.5)
        """, config=SIM_CFG)
        assert "DET002" not in codes(kept)


class TestDET003:
    @pytest.mark.parametrize("iterable", [
        "{1, 2, 3}",
        "set(items)",
        "frozenset(items)",
        "{x for x in items}",
        "alive.difference(dead)",
    ])
    def test_flags_for_over_set_expression(self, tmp_path, iterable):
        kept, _ = lint_snippet(tmp_path, f"""\
            __all__ = ["walk"]


            def walk(items, alive, dead):
                out = []
                for item in {iterable}:
                    out.append(item)
                return out
        """, config=SIM_CFG)
        det = [f for f in kept if f.code == "DET003"]
        assert len(det) == 1
        assert det[0].line == 6

    def test_flags_comprehension_generator(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["walk"]


            def walk(items):
                return [item for item in set(items)]
        """, config=SIM_CFG)
        assert "DET003" in codes(kept)

    def test_sorted_wrapping_passes(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["walk"]


            def walk(items):
                out = []
                for item in sorted(set(items)):
                    out.append(item)
                return out
        """, config=SIM_CFG)
        assert "DET003" not in codes(kept)

    def test_list_iteration_passes(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["walk"]


            def walk(items):
                return [item for item in list(items)]
        """, config=SIM_CFG)
        assert "DET003" not in codes(kept)

    def test_out_of_scope_not_flagged(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["walk"]


            def walk(items):
                return [item for item in set(items)]
        """, config=LintConfig(sim_scopes=("somewhere.else",)))
        assert "DET003" not in codes(kept)


class TestDET004:
    @pytest.mark.parametrize("call", [
        "sum({a, b})",
        "sum(set(values))",
        "sum(v * v for v in set(values))",
        "sum(by_shard.values())",
        "sum(shard_results.values())",
        "sum(w.mean for w in shards.values())",
        "fsum(set(values))",
        "mean(set(values))",
    ])
    def test_flags_unordered_reductions(self, tmp_path, call):
        kept, _ = lint_snippet(tmp_path, f"""\
            from math import fsum
            from statistics import mean

            __all__ = ["merge"]


            def merge(a, b, values, by_shard, shard_results, shards):
                return {call}
        """, config=AGG_CFG)
        det = [f for f in kept if f.code == "DET004"]
        assert len(det) == 1
        assert det[0].line == 8

    def test_resolves_import_aliases(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            import statistics as st

            __all__ = ["merge"]


            def merge(values):
                return st.fmean(set(values))
        """, config=AGG_CFG)
        assert "DET004" in codes(kept)

    @pytest.mark.parametrize("call", [
        "sum(values)",
        "sum(sorted(set(values)))",
        "sum(sorted(by_shard.values()))",
        "sum(results.values())",
        "min(set(values))",
        "len(set(values))",
    ])
    def test_ordered_or_insensitive_reductions_pass(self, tmp_path,
                                                    call):
        kept, _ = lint_snippet(tmp_path, f"""\
            __all__ = ["merge"]


            def merge(values, by_shard, results):
                return {call}
        """, config=AGG_CFG)
        assert "DET004" not in codes(kept)

    def test_out_of_scope_not_flagged(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["merge"]


            def merge(values):
                return sum(set(values))
        """, config=LintConfig(
            aggregation_scopes=("somewhere.else",)))
        assert "DET004" not in codes(kept)

    def test_aggregation_scope_defaults_cover_merge_layers(self):
        config = LintConfig()
        assert config.in_aggregation_scope("repro.fleet.executor")
        assert config.in_aggregation_scope("repro.analysis.cdf")
        assert config.in_aggregation_scope("repro.io")
        assert config.in_aggregation_scope("repro.methodology.sweep")
        assert config.in_aggregation_scope("repro.stream")
        assert config.in_aggregation_scope("repro.stream.engine")
        assert not config.in_aggregation_scope("repro.lint.engine")

    def test_stream_module_covered_by_default_config(self, tmp_path):
        """A repro.stream module summing per-shard telemetry over a
        dict view is caught under the *default* config — the streaming
        engine merges live results and so sits in aggregation scope."""
        (tmp_path / "repro" / "stream").mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (tmp_path / "repro" / "stream" / "__init__.py").write_text("")
        kept, _ = lint_snippet(
            tmp_path, """\
                __all__ = ["total_state"]


                def total_state(state_by_shard):
                    return sum(state_by_shard.values())
            """,
            filename="repro/stream/telemetry.py",
            config=LintConfig(),
        )
        det = [f for f in kept if f.code == "DET004"]
        assert len(det) == 1

    def test_pyproject_aggregation_scopes_include_stream(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert "repro.stream" in config.aggregation_scopes


WORLD_CFG = LintConfig(world_scopes=("mod",),
                       world_bus_modules=("mod.bus", "mod.engine"))


class TestDET007:
    @pytest.mark.parametrize("reach", [
        "self._replicas[target].feeds",
        "replicas[target].deliver(message)",
        "shards[index].state",
        "self._sims[j].schedule_at(0.0, work)",
        "world.shard_map[key].cohorts.pop(0)",
    ])
    def test_flags_reach_through_shard_collections(self, tmp_path,
                                                   reach):
        kept, _ = lint_snippet(tmp_path, f"""\
            __all__ = ["Replica"]


            class Replica:
                def poke(self, target, index, j, key, message, work,
                         replicas, shards, world):
                    return {reach}
        """, config=WORLD_CFG)
        det = [f for f in kept if f.code == "DET007"]
        assert len(det) == 1
        assert det[0].line == 7
        assert "world bus" in det[0].message

    @pytest.mark.parametrize("clean", [
        "self.feeds[key].append(message)",   # own state, not a shard
        "self.bus.send(origin=0, target=1)",  # the sanctioned channel
        "times[position]",                    # untagged collection
        "self._replicas[target]",             # bare subscript, no reach
    ])
    def test_clean_world_shapes_pass(self, tmp_path, clean):
        kept, _ = lint_snippet(tmp_path, f"""\
            __all__ = ["Replica"]


            class Replica:
                def step(self, key, target, position, message, times):
                    return {clean}
        """, config=WORLD_CFG)
        assert "DET007" not in codes(kept)

    def test_bus_modules_exempt(self, tmp_path):
        source = """\
            __all__ = ["barrier"]


            def barrier(sims, end):
                for index in range(len(sims)):
                    sims[index].run_until(end)
        """
        kept, _ = lint_snippet(tmp_path, source,
                               filename="engine.py", config=LintConfig(
                                   world_scopes=("engine",),
                                   world_bus_modules=("engine",)))
        assert "DET007" not in codes(kept)
        # The same shape outside the bus modules is a finding.
        kept, _ = lint_snippet(tmp_path, source, config=LintConfig(
            world_scopes=("mod",)))
        assert "DET007" in codes(kept)

    def test_out_of_scope_not_flagged(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["poke"]


            def poke(replicas, target):
                return replicas[target].feeds
        """)
        assert "DET007" not in codes(kept)

    def test_pyproject_world_scopes_cover_the_world(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert config.in_world_scope("repro.world.model")
        assert config.is_world_bus_module("repro.world.engine")
        assert config.is_world_bus_module("repro.world.bus")
        assert not config.is_world_bus_module("repro.world.model")


class TestTRACE001:
    def test_flags_mutating_call_through_chain(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["Checker"]


            class Checker:
                def check(self, trace):
                    trace.operations.append(None)
                    return []
        """, config=TRACE_CFG)
        trace = [f for f in kept if f.code == "TRACE001"]
        assert len(trace) == 1
        assert trace[0].line == 6

    def test_flags_sort_on_annotated_param(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            from repro.core.trace import TestTrace

            __all__ = ["scan"]


            def scan(subject: TestTrace):
                subject.reads.sort()
                return subject
        """, config=TRACE_CFG)
        assert "TRACE001" in codes(kept)

    def test_flags_item_assignment_and_delete(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["scrub"]


            def scrub(trace):
                trace.operations[0] = None
                del trace.agents
        """, config=TRACE_CFG)
        trace = [f for f in kept if f.code == "TRACE001"]
        assert len(trace) == 2

    def test_local_mutation_passes(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["Checker"]


            class Checker:
                def check(self, trace):
                    observations = []
                    for read in trace.reads:
                        observations.append(read)
                    observations.sort()
                    return observations
        """, config=TRACE_CFG)
        assert "TRACE001" not in codes(kept)

    def test_out_of_scope_not_flagged(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["tweak"]


            def tweak(trace):
                trace.operations.append(None)
        """, config=LintConfig(trace_scopes=("somewhere.else",)))
        assert "TRACE001" not in codes(kept)


class TestAPI001:
    def test_flags_missing_all(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            def visible():
                return 1
        """)
        api = [f for f in kept if f.code == "API001"]
        assert len(api) == 1
        assert api[0].line == 1
        assert api[0].severity is Severity.WARNING

    def test_module_with_all_passes(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["visible"]


            def visible():
                return 1
        """)
        assert "API001" not in codes(kept)

    def test_private_module_exempt(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            VERSION = "1.0"
        """, filename="_internal.py")
        assert "API001" not in codes(kept)

    def test_dunder_main_exempt(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            print("hi")
        """, filename="__main__.py")
        assert "API001" not in codes(kept)

    def test_package_init_required(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            from os import sep
        """, filename="pkg/__init__.py")
        assert "API001" in codes(kept)


class TestWaivers:
    def test_line_waiver_suppresses_and_is_recorded(self, tmp_path):
        kept, waived = lint_snippet(tmp_path, """\
            import random  # repro-lint: disable=DET001

            __all__ = []
        """)
        assert "DET001" not in codes(kept)
        assert codes(waived) == ["DET001"]
        assert waived[0].waived is True

    def test_waiver_for_other_rule_does_not_suppress(self, tmp_path):
        kept, waived = lint_snippet(tmp_path, """\
            import random  # repro-lint: disable=DET002

            __all__ = []
        """)
        assert "DET001" in codes(kept)
        assert not waived

    def test_disable_all_on_line(self, tmp_path):
        kept, waived = lint_snippet(tmp_path, """\
            import random  # repro-lint: disable=all

            __all__ = []
        """)
        assert "DET001" not in codes(kept)
        assert "DET001" in codes(waived)

    def test_file_wide_waiver(self, tmp_path):
        kept, waived = lint_snippet(tmp_path, """\
            # repro-lint: disable-file=API001
            def visible():
                return 1
        """)
        assert "API001" not in codes(kept)
        assert "API001" in codes(waived)

    def test_collect_waivers_parses_code_lists(self):
        waivers = collect_waivers(
            "x = 1  # repro-lint: disable=DET001, DET003\n"
            "# repro-lint: disable-file=API001\n"
        )
        assert waivers.is_waived(1, "DET001")
        assert waivers.is_waived(1, "DET003")
        assert not waivers.is_waived(1, "DET002")
        assert waivers.is_waived(99, "API001")

    def test_directive_inside_string_is_not_a_waiver(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            TEXT = "# repro-lint: disable=DET001"
            import random

            __all__ = []
        """)
        assert "DET001" in codes(kept)


class TestConfig:
    def test_pyproject_ignore_respected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.repro-lint]
            ignore = ["API001"]
        """))
        config = load_config(tmp_path / "pyproject.toml")
        assert not config.enabled("API001")
        assert config.enabled("DET001")
        kept, _ = lint_snippet(tmp_path, """\
            def visible():
                return 1
        """, config=config)
        assert "API001" not in codes(kept)

    def test_defaults_without_pyproject(self):
        config = load_config(None)
        assert config.enabled("DET001")
        assert config.random_allowed("repro.sim.random_source")
        assert config.in_sim_scope("repro.replication.eventual")
        assert config.in_trace_scope(
            "repro.core.anomalies.monotonic_reads")
        # The analysis layer joined the sim scope when scope lists
        # became inference-backed; the linter itself never did.
        assert config.in_sim_scope("repro.analysis.cdf")
        assert not config.in_sim_scope("repro.lint.engine")
        # repro.fleet is consciously exempt from scope inference.
        assert config.in_scope_exempt("repro.fleet.executor")

    def test_with_overrides(self):
        config = LintConfig().with_overrides(
            select=("DET001",), ignore=("DET003",))
        assert config.enabled("DET001")
        assert not config.enabled("DET002")
        assert not config.enabled("DET003")

    def test_find_pyproject_walks_up(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_pyproject(nested) == tmp_path / "pyproject.toml"


class TestEngineAndModuleNames:
    def test_module_name_from_package_chain(self, tmp_path):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("__all__ = []\n")
        (pkg / "__init__.py").write_text("__all__ = []\n")
        target = pkg / "clock.py"
        target.write_text("__all__ = []\n")
        assert module_name(target) == "repro.sim.clock"
        assert module_name(pkg / "__init__.py") == "repro.sim"

    def test_findings_sorted_and_deterministic(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\n__all__ = []\n")
        (tmp_path / "a.py").write_text("import random\n__all__ = []\n")
        first = lint_paths([tmp_path])
        second = lint_paths([tmp_path])
        assert [f.path for f in first.findings] == sorted(
            f.path for f in first.findings)
        assert first.findings == second.findings

    def test_syntax_error_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        result = lint_paths([tmp_path])
        assert codes(result.findings) == ["SYNTAX"]
        assert not result.ok

    def test_exclude_globs(self, tmp_path):
        (tmp_path / "skipme.py").write_text("import random\n")
        result = lint_paths(
            [tmp_path], LintConfig(exclude=("*skipme*",)))
        assert result.files_checked == 0


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("__all__ = []\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n__all__ = []\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:1:0: DET001" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert lint_main([str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_schema(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n__all__ = []\n")
        assert lint_main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["files_checked"] == 1
        assert payload["notes"] == []
        assert payload["summary"] == {
            "total": 1, "waived": 0, "baselined": 0,
            "by_rule": {"DET001": 1},
        }
        assert "project" not in payload
        (finding,) = payload["findings"]
        assert finding["code"] == "DET001"
        assert finding["line"] == 1
        assert finding["col"] == 0
        assert finding["severity"] == "error"
        assert finding["path"].endswith("bad.py")
        assert "message" in finding

    def test_json_reports_waived(self, tmp_path, capsys):
        (tmp_path / "waived.py").write_text(
            "import random  # repro-lint: disable=DET001\n"
            "__all__ = []\n")
        assert lint_main(["--format", "json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["waived"] == 1
        assert payload["waived"][0]["code"] == "DET001"

    def test_select_and_ignore_flags(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert lint_main(["--select", "API001", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" not in out and "API001" in out
        assert lint_main(
            ["--ignore", "DET001,API001", str(tmp_path)]) == 0

    def test_typoed_select_is_usage_error_not_false_clean(
            self, tmp_path, capsys):
        # A typo'd code must not silently disable the battery.
        (tmp_path / "bad.py").write_text("import random\n__all__ = []\n")
        assert lint_main(["--select", "DET01", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown rule code" in err and "DET001" in err
        assert lint_main(["--ignore", "NOPE123", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_list_rules_mentions_every_code(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in SHIPPED_RULES:
            assert code in out

    def test_repro_consistency_lint_subcommand(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n__all__ = []\n")
        assert repro_main(["lint", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out
        assert repro_main(["lint", "--list-rules"]) == 0
        capsys.readouterr()


class TestSelfApplication:
    """The linter's verdict on this repository itself."""

    def test_src_tree_has_zero_unwaived_findings(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        result = LintEngine(config).lint_paths([SRC])
        assert result.files_checked > 80
        assert result.ok, "\n".join(
            f"{f.location()}: {f.code} {f.message}"
            for f in result.findings)

    def test_calibrate_package_is_in_scope_and_clean(self):
        # repro.calibrate aggregates fidelity losses across candidate
        # fleets, so it must sit in the DET004 aggregation scope (both
        # the built-in default and the checked-in pyproject config)
        # and lint clean under the repository configuration.
        from repro.lint.config import DEFAULT_AGGREGATION_SCOPES

        assert "repro.calibrate" in DEFAULT_AGGREGATION_SCOPES
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert "repro.calibrate" in config.aggregation_scopes
        calibrate_dir = SRC / "repro" / "calibrate"
        result = LintEngine(config).lint_paths([calibrate_dir])
        assert result.files_checked >= 8
        assert result.ok, "\n".join(
            f"{f.location()}: {f.code} {f.message}"
            for f in result.findings)

    def test_injected_random_call_is_caught_at_line(self, tmp_path):
        # Mirror of the acceptance criterion: drop a random.random()
        # call into a copy of repro/replication/eventual.py and expect
        # a DET001 finding at exactly that line.
        source = (SRC / "repro" / "replication" /
                  "eventual.py").read_text()
        marker = "from __future__ import annotations\n"
        injected = source.replace(
            marker, marker + "_jitter = random.random()\n", 1)
        bad = tmp_path / "eventual.py"
        bad.write_text(injected)
        expected_line = injected[:injected.index("_jitter")].count(
            "\n") + 1
        result = lint_paths([bad])
        det = [f for f in result.findings if f.code == "DET001"]
        assert [f.line for f in det] == [expected_line]
        assert not result.ok

    def test_finding_dataclass_roundtrip(self):
        finding = Finding(path="x.py", line=3, col=1, code="DET001",
                          message="m", severity=Severity.ERROR)
        assert finding.location() == "x.py:3:1"
        assert finding.as_waived().waived is True
        assert finding.as_waived() == finding  # waived not compared

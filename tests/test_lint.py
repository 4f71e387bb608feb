"""Tests for the determinism & trace-safety linter (repro.lint).

Covers every per-file rule with known-bad and known-clean fixture
snippets (every positive the retired DET004 held is still flagged,
under DET003), waiver handling, the retired surface (flags, waiver
forms), exit codes, and — crucially — the meta-test that the linter
reports zero unwaived findings over this repository's own ``src/``
tree.  Fixtures are modules of a package named ``mod``: the scope of
every scoped rule is ``LintConfig.package``, nothing finer.
"""

import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    Finding,
    LintConfig,
    Severity,
    lint_paths,
    module_name,
    rule_codes,
)
from repro.lint.cli import main as lint_main
from repro.lint.waivers import collect_waivers

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Rules shipped so far; the registry must contain all of them.
SHIPPED_RULES = ("DET001", "DET002", "DET003", "DET005", "DET007",
                 "PAR001", "TRACE001", "TRACE002")

#: Codes this linter once used; retired, never reused.
RETIRED_RULES = ("DET004", "DET006", "API001")


def lint_snippet(tmp_path, source, *, filename="mod.py", config=None):
    """Lint one dedented snippet; returns (unwaived, waived) findings."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    result = lint_paths([path], config)
    return result.findings, result.waived


def codes(findings):
    return [finding.code for finding in findings]


#: The fixture module ``mod.py`` is the whole package under lint.
PKG_CFG = LintConfig(package="mod")


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        assert tuple(rule_codes()) == tuple(sorted(SHIPPED_RULES))
        assert not set(RETIRED_RULES) & set(rule_codes())

    def test_severities(self):
        from repro.lint import get_rule

        assert get_rule("DET001").severity is Severity.ERROR
        assert get_rule("DET002").severity is Severity.ERROR
        assert get_rule("TRACE001").severity is Severity.ERROR


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
        """, config=PKG_CFG)
        det = [f for f in kept if f.code == "DET002"]
        assert len(det) == 1
        assert det[0].line == 7

    def test_flags_aliased_import(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            import time as walltime

            __all__ = []
            STARTED = walltime.monotonic()
        """, config=PKG_CFG)
        assert "DET002" in codes(kept)

    def test_flags_datetime_now_via_from_import(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            from datetime import datetime

            __all__ = []
            STAMP = datetime.now()
        """, config=PKG_CFG)
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
        """, config=PKG_CFG)
        assert "DET002" in codes(kept)

    def test_out_of_scope_module_not_flagged(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            import time

            __all__ = []
            STARTED = time.time()
        """)
        assert "DET002" not in codes(kept)

    @pytest.mark.parametrize("source", [
        "def f(now_fn=time.monotonic):\n    return now_fn()",
        "clock = time.time\nSTAMP = clock()",
        "limiter = Limiter(5, now_fn=time.monotonic)",
        "from time import perf_counter\nTIMER = [perf_counter]",
    ])
    def test_flags_references_not_only_calls(self, tmp_path, source):
        # Host time enters where the callable is *referenced*: a
        # default, an alias, an argument — whoever calls it later.
        kept, _ = lint_snippet(
            tmp_path, "import time\n" + source + "\n", config=PKG_CFG)
        assert codes(kept) == ["DET002"]

    def test_virtual_clock_reads_pass(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["sample"]


            def sample(sim, rng) -> float:
                return sim.now + rng.exponential("mod.lag", 0.5)
        """, config=PKG_CFG)
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
        """, config=PKG_CFG)
        det = [f for f in kept if f.code == "DET003"]
        assert len(det) == 1
        assert det[0].line == 6

    def test_flags_comprehension_generator(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["walk"]


            def walk(items):
                return [item for item in set(items)]
        """, config=PKG_CFG)
        assert "DET003" in codes(kept)

    def test_sorted_wrapping_passes(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["walk"]


            def walk(items):
                out = []
                for item in sorted(set(items)):
                    out.append(item)
                return out
        """, config=PKG_CFG)
        assert "DET003" not in codes(kept)

    def test_list_iteration_passes(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["walk"]


            def walk(items):
                return [item for item in list(items)]
        """, config=PKG_CFG)
        assert "DET003" not in codes(kept)

    def test_out_of_scope_not_flagged(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["walk"]


            def walk(items):
                return [item for item in set(items)]
        """)
        assert "DET003" not in codes(kept)

    @pytest.mark.parametrize("expr", [
        "[*set(xs)]",
        "(*frozenset(xs), 0)",
        "emit(*set(xs))",
        "next(iter(set(xs)))",
        "set(xs).pop()",
        "dict.fromkeys(frozenset(xs))",
    ])
    def test_flags_order_materializing_shapes(self, tmp_path, expr):
        # The four shapes that slipped past DET003/DET004/DET006.
        kept, _ = lint_snippet(tmp_path, f"""\
            __all__ = ["first"]


            def first(xs, emit):
                return {expr}
        """, config=PKG_CFG)
        det = [f for f in kept if f.code == "DET003"]
        assert len(det) == 1
        assert det[0].line == 5

    @pytest.mark.parametrize("expr", [
        "sorted(set(xs))", "max(*set(xs))", "len({*xs})",
        "any(set(xs))", "frozenset(set(xs))", "xs.pop()",
        "[*sorted(set(xs))]",
    ])
    def test_order_free_uses_pass(self, tmp_path, expr):
        kept, _ = lint_snippet(tmp_path, f"""\
            __all__ = ["first"]


            def first(xs):
                return {expr}
        """, config=PKG_CFG)
        assert kept == []


class TestDET004:
    """The retired reduction rule's fixtures, held to DET003."""

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
        """, config=PKG_CFG)
        det = [f for f in kept if f.code == "DET003"]
        assert len(det) == 1
        assert det[0].line == 8

    def test_resolves_import_aliases(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            import statistics as st

            __all__ = ["merge"]


            def merge(values):
                return st.fmean(set(values))
        """, config=PKG_CFG)
        assert "DET003" in codes(kept)

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
        """, config=PKG_CFG)
        assert kept == []

    def test_out_of_scope_not_flagged(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["merge"]


            def merge(values):
                return sum(set(values))
        """)
        assert kept == []

    def test_aggregation_scope_defaults_cover_merge_layers(self):
        # The scope is the package: every merge layer, the linter
        # itself, and a package that does not exist yet.
        config = LintConfig()
        for module in ("repro.fleet.executor", "repro.analysis.cdf",
                       "repro.io", "repro.calibrate.claims",
                       "repro.stream", "repro.stream.engine",
                       "repro.webapi.router", "repro.lint.engine",
                       "repro.newpkg.x"):
            assert config.in_package(module)
        assert not config.in_package("reproduction.other")
        assert not config.in_package("tests.test_lint")

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
        det = [f for f in kept if f.code == "DET003"]
        assert len(det) == 1


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

    def test_default_world_scopes_cover_the_world(self):
        config = LintConfig()
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
        """, config=PKG_CFG)
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
        """, config=PKG_CFG)
        assert "TRACE001" in codes(kept)

    def test_flags_item_assignment_and_delete(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["scrub"]


            def scrub(trace):
                trace.operations[0] = None
                del trace.agents
        """, config=PKG_CFG)
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
        """, config=PKG_CFG)
        assert "TRACE001" not in codes(kept)

    def test_out_of_scope_not_flagged(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            __all__ = ["tweak"]


            def tweak(trace):
                trace.operations.append(None)
        """)
        assert "TRACE001" not in codes(kept)


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
        # Retired form: a waiver names its rule, or waives nothing.
        kept, waived = lint_snippet(tmp_path, """\
            import random  # repro-lint: disable=all

            __all__ = []
        """)
        assert codes(kept) == ["DET001"]
        assert not waived

    def test_file_wide_waiver(self, tmp_path):
        # Retired form: a waiver sits on its line, or waives nothing —
        # neither file-wide nor on the line it is written on.
        kept, waived = lint_snippet(tmp_path, """\
            # repro-lint: disable-file=DET001
            import random  # repro-lint: disable-file=DET001
        """)
        assert codes(kept) == ["DET001"]
        assert not waived

    def test_collect_waivers_parses_code_lists(self):
        waivers = collect_waivers(
            "x = 1  # repro-lint: disable=DET001, DET003\n"
            "# repro-lint: disable-file=DET002\n"
        )
        assert waivers.is_waived(1, "DET001")
        assert waivers.is_waived(1, "DET003")
        assert not waivers.is_waived(1, "DET002")
        assert not waivers.is_waived(2, "DET002")
        assert waivers.by_line == {1: frozenset({"DET001", "DET003"})}

    def test_directive_inside_string_is_not_a_waiver(self, tmp_path):
        kept, _ = lint_snippet(tmp_path, """\
            TEXT = "# repro-lint: disable=DET001"
            import random

            __all__ = []
        """)
        assert "DET001" in codes(kept)


class TestConfig:
    def test_defaults_without_pyproject(self):
        # No file is read: LintConfig() is the contract CI enforces,
        # and its scope is the whole package.
        config = LintConfig()
        assert config.package == "repro"
        assert config.random_allowed("repro.sim.random_source")
        assert not config.random_allowed("repro.sim.clock")
        for module in ("repro", "repro.replication.eventual",
                       "repro.core.anomalies.monotonic_reads",
                       "repro.core.windows", "repro.world.engine",
                       "repro.serve.server", "repro.lint.engine"):
            assert config.in_package(module)
        assert config.pipe_boundary("repro.fleet.run_fleet") == (
            "shard_runner",)
        assert config.pipe_boundary("multiprocessing.Process") == ()
        assert config.pipe_boundary("repro.fleet.merge_results") is None
        assert "send" in config.emit_methods


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

    def test_waived_findings_are_always_printed(self, tmp_path, capsys):
        (tmp_path / "waived.py").write_text(
            "import random  # repro-lint: disable=DET001\n"
            "__all__ = []\n")
        assert lint_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "waived.py:1:0: DET001 [waived]" in out
        assert "no findings, 1 waived" in out

    @pytest.mark.parametrize("flag", [
        "--project", "--cache=c.json", "--baseline=b.json",
        "--write-waivers=b.json", "--format=json", "--select=DET001",
        "--ignore=DET001", "--pyproject=pyproject.toml", "--show-waived",
    ])
    def test_retired_flags_are_usage_errors(self, tmp_path, capsys,
                                            flag):
        (tmp_path / "bad.py").write_text("import random\n")
        with pytest.raises(SystemExit) as usage:
            lint_main([flag, str(tmp_path)])
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_typoed_select_is_usage_error_not_false_clean(
            self, tmp_path, capsys):
        # No flag can narrow the battery: typo'd or not, --select is a
        # usage error, and the run without it still reports DET001.
        (tmp_path / "bad.py").write_text("import random\n__all__ = []\n")
        with pytest.raises(SystemExit) as usage:
            lint_main(["--select", "DET01", str(tmp_path)])
        assert usage.value.code == 2
        capsys.readouterr()
        assert lint_main([str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_list_rules_mentions_every_code(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in SHIPPED_RULES:
            assert code in out
        for code in RETIRED_RULES:
            assert code not in out

    def test_repro_consistency_lint_subcommand(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n__all__ = []\n")
        assert repro_main(["lint", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out
        assert repro_main(["lint", "--list-rules"]) == 0
        capsys.readouterr()


class TestSelfApplication:
    """The linter's verdict on this repository itself."""

    def test_src_tree_has_zero_unwaived_findings(self):
        result = lint_paths([SRC])
        assert result.files_checked > 80
        assert result.ok, "\n".join(
            f"{f.location()}: {f.code} {f.message}"
            for f in result.findings)

    def test_calibrate_package_is_in_scope_and_clean(self):
        # repro.calibrate aggregates fidelity losses across candidate
        # fleets: it is in scope like every package module, and linted
        # on its own it is clean.
        assert LintConfig().in_package("repro.calibrate.objective")
        calibrate_dir = SRC / "repro" / "calibrate"
        result = lint_paths([calibrate_dir])
        assert result.files_checked >= 7
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

"""Tests for the whole-program lint pass (``--project``).

Covers phase 1 (per-module summaries: locals/global-write extraction,
``global`` vs ``nonlocal`` scoping, call-site resolution, unordered
sinks, the JSON round trip the cache relies on), phase 2 (import graph,
reachability with call-chain rendering, scope inference and its audit
notes), each cross-module rule (DET005, DET006, PAR001, TRACE002) with
a known-bad fixture package, the content-hash cache, the
``--write-waivers``/``--baseline`` pair, and the meta-test that this
repository's own ``src/`` tree is clean under the whole battery.
"""

import ast
import json
import textwrap
from pathlib import Path

from repro.lint import (
    LintConfig,
    LintEngine,
    lint_paths,
    load_config,
    module_name,
)
from repro.lint.cli import main as lint_main
from repro.lint.graph import build_project_model
from repro.lint.summaries import (
    summarize_module,
    summary_from_dict,
    summary_to_dict,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def summarize(source, module="pkg.mod", is_package=False):
    tree = ast.parse(textwrap.dedent(source))
    return summarize_module(tree, module, f"{module}.py", is_package)


def codes(findings):
    return [finding.code for finding in findings]


def write_package(tmp_path, name, files):
    """Materialize a fixture package and return its directory."""
    root = tmp_path / name
    root.mkdir()
    for filename, source in files.items():
        (root / filename).write_text(
            textwrap.dedent(source), encoding="utf-8")
    return root


def build_model(root, config):
    """Phase 1 + 2 by hand, for golden assertions on the model."""
    summaries = {}
    for path in sorted(root.glob("*.py")):
        module = module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        summaries[module] = summarize_module(
            tree, module, str(path),
            is_package=path.name == "__init__.py")
    return build_project_model(summaries, config)


# A mini-package with an entry point that transitively writes
# module-level mutable state two ways: through an imported submodule
# alias and through a ``from``-imported name.
PKG_FILES = {
    "__init__.py": """\
        \"\"\"Fixture package.\"\"\"

        from pkg.runner import run

        __all__ = ["run"]
    """,
    "state.py": """\
        \"\"\"Module-level mutable state.\"\"\"

        __all__ = ["CACHE", "record"]

        CACHE = {}


        def record(key, value):
            CACHE[key] = value
    """,
    "helpers.py": """\
        \"\"\"Writes another module's global through an import.\"\"\"

        from pkg.state import CACHE

        __all__ = ["remember"]


        def remember(key):
            CACHE[key] = True
    """,
    "runner.py": """\
        \"\"\"The fixture's campaign entry point.\"\"\"

        from pkg import state
        from pkg.helpers import remember

        __all__ = ["run"]


        def run(keys):
            for key in keys:
                state.record(key, 1)
            remember("done")
            return len(keys)
    """,
}

PKG_CFG = LintConfig(
    entry_points=("pkg.runner.run",),
    sim_scopes=("pkg",),
    aggregation_scopes=("pkg",),
    trace_scopes=(),
)


class TestFunctionSummaries:
    def test_scoping_calls_and_writes(self):
        summary = summarize("""\
            import pkg.state as st
            from pkg.other import helper

            TABLE = {}


            def outer(a, b):
                global COUNT
                COUNT = a
                total = 0

                def inner():
                    nonlocal total
                    total += 1

                st.record(a)
                helper(b, key=a)
                TABLE["k"] = a
                return inner
        """)
        assert set(summary.functions) == {"outer", "outer.inner"}
        assert summary.mutable_globals == {"TABLE": 4}

        outer = summary.functions["outer"]
        assert outer.fid == "pkg.mod.outer"
        assert outer.params == ("a", "b")
        assert {"total", "inner"} <= outer.locals_
        # ``global COUNT`` removes the name from the local scope even
        # though it is assigned inside the function.
        assert "COUNT" not in outer.locals_
        writes = {(w.name, w.how) for w in outer.global_writes}
        assert ("COUNT", "rebinding via 'global'") in writes
        assert ("TABLE", "item assignment") in writes
        resolved = {c.resolved for c in outer.calls}
        assert "pkg.state.record" in resolved
        assert "pkg.other.helper" in resolved
        assert outer.local_callables == {"inner": "nested"}
        assert outer.nested == ("outer.inner",)

    def test_nonlocal_is_closure_state_not_a_global_write(self):
        summary = summarize("""\
            def outer():
                total = 0

                def bump():
                    nonlocal total
                    total += 1

                bump()
                return total
        """)
        inner = summary.functions["outer.bump"]
        assert inner.is_nested
        assert "total" in inner.locals_
        assert inner.global_writes == ()

    def test_parameter_mutations(self):
        summary = summarize("""\
            def fill(rows, item):
                rows.append(item)
        """)
        fill = summary.functions["fill"]
        assert fill.mutated_params == frozenset({"rows"})
        assert fill.global_writes == ()

    def test_unordered_sinks(self):
        summary = summarize("""\
            NAMES = list({"a", "b"})


            def merge(shard_results):
                out = []
                for item in shard_results.values():
                    out.append(item)
                return out
        """)
        shapes = {(s.via, s.reason) for s in summary.unordered_sinks}
        assert ("list", "an unordered set expression") in shapes
        assert ("for", "a shard-keyed dict view") in shapes

    def test_json_round_trip(self):
        summary = summarize(PKG_FILES["runner.py"], module="pkg.runner")
        payload = json.loads(json.dumps(summary_to_dict(summary)))
        assert summary_from_dict(payload) == summary


class TestProjectModel:
    def test_import_graph_and_reachability(self, tmp_path):
        root = write_package(tmp_path, "pkg", PKG_FILES)
        model = build_model(root, PKG_CFG)

        assert model.entry_points == ("pkg.runner.run",)
        edges = set(model.import_graph["pkg.runner"])
        assert {"pkg.state", "pkg.helpers"} <= edges
        assert {"pkg.runner.run", "pkg.state.record",
                "pkg.helpers.remember"} <= model.reachable
        assert model.reach_path("pkg.state.record") == [
            "pkg.runner.run", "pkg.state.record"]
        # Scope inference: the import closure of the entry module.
        assert {"pkg", "pkg.runner", "pkg.state",
                "pkg.helpers"} <= model.inferred_sim_modules
        # Scopes match the inference, so the audit stays silent.
        assert model.notes == []

    def test_unresolvable_entry_point_noted(self, tmp_path):
        root = write_package(tmp_path, "pkg", PKG_FILES)
        model = build_model(root, LintConfig(
            entry_points=("pkg.runner.missing",),
            sim_scopes=("pkg",)))
        assert model.entry_points == ()
        assert any("does not resolve" in note for note in model.notes)

    def test_scope_audit_flags_inferred_but_unconfigured(self, tmp_path):
        root = write_package(tmp_path, "pkg", PKG_FILES)
        model = build_model(root, LintConfig(
            entry_points=("pkg.runner.run",),
            sim_scopes=("pkg.runner", "pkg.ghost"),
            scope_exempt=()))
        audit = [n for n in model.notes if n.startswith("scope audit")]
        assert any("'pkg.state'" in note for note in audit)
        assert any("'pkg.ghost'" in note and "matches no analyzed"
                   in note for note in audit)

    def test_scope_exempt_silences_the_audit(self, tmp_path):
        root = write_package(tmp_path, "pkg", PKG_FILES)
        model = build_model(root, LintConfig(
            entry_points=("pkg.runner.run",),
            sim_scopes=("pkg.runner",),
            scope_exempt=("pkg",)))
        assert not [n for n in model.notes
                    if "is not in sim-scopes" in n]


class TestDET005:
    def test_reachable_global_writes_are_caught(self, tmp_path):
        root = write_package(tmp_path, "pkg", PKG_FILES)
        result = lint_paths([root], PKG_CFG, project=True)
        det5 = [f for f in result.findings if f.code == "DET005"]
        messages = " | ".join(f.message for f in det5)
        assert len(det5) == 2
        assert "pkg.state.CACHE" in messages
        assert "run -> record" in messages
        assert "of another module" in messages  # the helpers.py write

    def test_smuggled_mutation_deep_in_the_call_chain(self, tmp_path):
        # Regression: a module-global mutation three calls below the
        # entry point, through an ``import ... as`` alias, must still
        # be caught — and an identical but *unreachable* write must
        # not be.
        root = write_package(tmp_path, "pkg2", {
            "__init__.py": '"""pkg2."""\n\n__all__ = []\n',
            "tables.py": '__all__ = ["REGISTRY"]\n\nREGISTRY = {}\n',
            "deep.py": """\
                import pkg2.tables as tables

                __all__ = ["drive"]


                def drive(n):
                    return _phase(n)


                def _phase(n):
                    return _commit(n)


                def _commit(n):
                    tables.REGISTRY[n] = n
                    return n


                def _unreached():
                    tables.REGISTRY.clear()
            """,
        })
        config = LintConfig(entry_points=("pkg2.deep.drive",),
                            sim_scopes=("pkg2",),
                            aggregation_scopes=("pkg2",))
        result = lint_paths([root], config, project=True)
        det5 = [f for f in result.findings if f.code == "DET005"]
        assert len(det5) == 1
        assert det5[0].message.count("pkg2.tables.REGISTRY") == 1
        assert "drive -> _phase -> _commit" in det5[0].message
        assert det5[0].path.endswith("deep.py")

    def test_waiver_comment_suppresses_project_finding(self, tmp_path):
        files = dict(PKG_FILES)
        files["state.py"] = files["state.py"].replace(
            "CACHE[key] = value",
            "CACHE[key] = value  # repro-lint: disable=DET005")
        files["helpers.py"] = files["helpers.py"].replace(
            "CACHE[key] = True",
            "CACHE[key] = True  # repro-lint: disable=DET005")
        root = write_package(tmp_path, "pkg", files)
        result = lint_paths([root], PKG_CFG, project=True)
        assert "DET005" not in codes(result.findings)
        assert codes(result.waived).count("DET005") == 2


class TestDET006:
    def test_materialized_hash_order_in_agg_scope(self, tmp_path):
        root = write_package(tmp_path, "pkg3", {
            "__init__.py": '"""pkg3."""\n\n__all__ = []\n',
            "merge.py": """\
                __all__ = ["merge"]


                def merge(shard_results):
                    keys = list({"b", "a"})
                    rows = []
                    for item in shard_results.values():
                        rows.append(item)
                    return keys + rows
            """,
        })
        config = LintConfig(aggregation_scopes=("pkg3",),
                            sim_scopes=())
        result = lint_paths([root], config, project=True)
        det6 = [f for f in result.findings if f.code == "DET006"]
        assert len(det6) == 2
        messages = " | ".join(f.message for f in det6)
        assert "list()" in messages
        assert "a shard-keyed dict view" in messages

    def test_set_iteration_in_sim_scope_defers_to_det003(self, tmp_path):
        # One hazard, one finding: DET003 already owns for-loops over
        # set expressions inside sim scopes.
        root = write_package(tmp_path, "pkg4", {
            "__init__.py": '"""pkg4."""\n\n__all__ = []\n',
            "loop.py": """\
                __all__ = ["spin"]


                def spin():
                    out = []
                    for item in {"a", "b"}:
                        out.append(item)
                    return out
            """,
        })
        config = LintConfig(sim_scopes=("pkg4",),
                            aggregation_scopes=("pkg4",))
        result = lint_paths([root], config, project=True)
        assert "DET003" in codes(result.findings)
        assert "DET006" not in codes(result.findings)


class TestPAR001:
    def test_lambda_and_closure_crossing_process_boundary(self, tmp_path):
        root = write_package(tmp_path, "pkg5", {
            "__init__.py": '"""pkg5."""\n\n__all__ = []\n',
            "spawn.py": """\
                import multiprocessing

                __all__ = ["launch"]


                def launch(payload):
                    def _work():
                        return payload

                    proc = multiprocessing.Process(target=_work)
                    also = multiprocessing.Process(
                        target=lambda: payload)
                    return proc, also
            """,
        })
        result = lint_paths([root], LintConfig(), project=True)
        par = [f for f in result.findings if f.code == "PAR001"]
        assert len(par) == 2
        messages = " | ".join(f.message for f in par)
        assert "a lambda" in messages
        assert "nested function" in messages
        assert "spawn start method" in messages

    def test_restricted_boundary_checks_only_named_kwargs(self, tmp_path):
        # ``target:arg`` boundary specs mirror run_fleet: only the
        # shard runner crosses the pipe; host-side callbacks may be
        # closures.
        root = write_package(tmp_path, "pkg6", {
            "__init__.py": '"""pkg6."""\n\n__all__ = []\n',
            "jobs.py": """\
                __all__ = ["dispatch"]


                def dispatch(runner=None, on_event=None):
                    return runner, on_event
            """,
            "caller.py": """\
                from pkg6.jobs import dispatch

                __all__ = ["go"]


                def go():
                    return dispatch(runner=lambda: 1,
                                    on_event=lambda: 2)
            """,
        })
        config = LintConfig(
            pipe_boundaries=("pkg6.jobs.dispatch:runner",))
        result = lint_paths([root], config, project=True)
        par = [f for f in result.findings if f.code == "PAR001"]
        assert len(par) == 1
        assert "argument 'runner'" in par[0].message

    def test_default_boundaries_cover_both_pool_clients(self, tmp_path):
        # A lambda handed to either pool client is shipped to worker
        # processes; host-side callbacks stay free to be closures.
        root = write_package(tmp_path, "pkg6b", {
            "__init__.py": '"""pkg6b."""\n\n__all__ = []\n',
            "caller.py": """\
                from repro.fleet import run_fleet
                from repro.serve import run_hunts

                __all__ = ["go"]


                def go(spec, runs):
                    run_fleet(spec, jobs=2,
                              shard_runner=lambda job: None,
                              on_event=lambda event: None)
                    return run_hunts(runs, workers=2,
                                     shard_runner=lambda job: None,
                                     on_event=lambda event: None)
            """,
        })
        result = lint_paths([root], LintConfig(), project=True)
        par = [f for f in result.findings if f.code == "PAR001"]
        assert len(par) == 2
        assert "boundary call 'run_fleet()'" in par[0].message
        assert "boundary call 'run_hunts()'" in par[1].message
        assert all("argument 'shard_runner'" in f.message for f in par)


class TestTRACE002:
    def test_direct_mutation_after_emission(self, tmp_path):
        root = write_package(tmp_path, "pkg7", {
            "__init__.py": '"""pkg7."""\n\n__all__ = []\n',
            "pipe.py": """\
                __all__ = ["publish", "prepare"]


                def publish(sink, record):
                    sink.send(record)
                    record["late"] = True
                    return record


                def prepare(sink, record):
                    record["early"] = True
                    sink.send(record)
                    return record
            """,
        })
        result = lint_paths([root], LintConfig(), project=True)
        trace = [f for f in result.findings if f.code == "TRACE002"]
        assert len(trace) == 1
        assert "'record' is mutated" in trace[0].message
        assert ".send()" in trace[0].message
        # ``prepare`` mutates before emitting: legal.
        lines = {f.line for f in trace}
        assert len(lines) == 1

    def test_mutation_through_a_callee_after_emission(self, tmp_path):
        root = write_package(tmp_path, "pkg8", {
            "__init__.py": '"""pkg8."""\n\n__all__ = []\n',
            "pipe.py": """\
                __all__ = ["publish", "scrub"]


                def scrub(rec):
                    rec.pop("tmp")
                    return rec


                def publish(sink, record):
                    sink.send(record)
                    scrub(record)
                    return record
            """,
        })
        result = lint_paths([root], LintConfig(), project=True)
        trace = [f for f in result.findings if f.code == "TRACE002"]
        assert len(trace) == 1
        assert "pkg8.pipe.scrub" in trace[0].message
        assert "mutates parameter 'rec'" in trace[0].message


class TestCacheAndBaseline:
    def test_cache_hits_and_content_invalidation(self, tmp_path):
        root = write_package(tmp_path, "pkg", PKG_FILES)
        cache = tmp_path / "lint-cache.json"
        first = lint_paths([root], PKG_CFG, project=True,
                           cache_path=cache)
        second = lint_paths([root], PKG_CFG, project=True,
                            cache_path=cache)
        assert any("cache: 4 hits, 0 misses" in n
                   for n in second.notes)
        assert first.findings == second.findings
        assert first.project == second.project

        helpers = root / "helpers.py"
        helpers.write_text(helpers.read_text() + "\n# touched\n")
        third = lint_paths([root], PKG_CFG, project=True,
                           cache_path=cache)
        assert any("cache: 3 hits, 1 miss" in n for n in third.notes)
        assert first.findings == third.findings

    def test_config_change_invalidates_cache(self, tmp_path):
        root = write_package(tmp_path, "pkg", PKG_FILES)
        cache = tmp_path / "lint-cache.json"
        lint_paths([root], PKG_CFG, project=True, cache_path=cache)
        other = LintConfig(entry_points=("pkg.helpers.remember",),
                           sim_scopes=("pkg",),
                           aggregation_scopes=("pkg",))
        result = lint_paths([root], other, project=True,
                            cache_path=cache)
        assert any("cache: 0 hits, 4 misses" in n
                   for n in result.notes)

    def test_write_waivers_then_baseline_round_trip(self, tmp_path):
        root = write_package(tmp_path, "pkg", PKG_FILES)
        baseline = tmp_path / "baseline.json"
        engine = LintEngine(PKG_CFG)
        count = engine.write_waivers([root], baseline, project=True)
        assert count == 2  # the two DET005 findings

        clean = engine.lint_paths([root], project=True,
                                  baseline_path=baseline)
        assert clean.ok
        assert clean.baselined == 2

        # Editing the offending line itself resurfaces the finding.
        state = root / "state.py"
        state.write_text(state.read_text().replace(
            "CACHE[key] = value", "CACHE[key] = [value]"))
        dirty = engine.lint_paths([root], project=True,
                                  baseline_path=baseline)
        assert codes(dirty.findings) == ["DET005"]
        assert dirty.baselined == 1


class TestProjectCli:
    def test_project_json_carries_the_graph_dump(self, tmp_path, capsys):
        write_package(tmp_path, "pkg", PKG_FILES)
        assert lint_main(["--project", "--format", "json",
                          str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["project"]["modules"] == 4
        assert "import_graph" in payload["project"]

    def test_write_waivers_flag(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\n__all__ = []\n")
        baseline = tmp_path / "baseline.json"
        assert lint_main(["--write-waivers", str(baseline),
                          str(tmp_path)]) == 0
        assert "wrote 1 waiver entry" in capsys.readouterr().out
        assert lint_main(["--baseline", str(baseline),
                          str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out and "1 waived" in out


class TestProjectSelfApplication:
    """The whole-program battery's verdict on this repository."""

    def test_src_tree_is_clean_under_project_rules(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        result = LintEngine(config).lint_paths([SRC], project=True)
        assert result.ok, "\n".join(
            f"{f.location()}: {f.code} {f.message}"
            for f in result.findings)
        assert len(result.project["entry_points"]) == 4
        assert result.project["functions"] > 500
        assert result.project["reachable_functions"] > 100

    def test_no_scope_audit_drift_on_src(self):
        # The checked-in pyproject scope lists must agree with the
        # inferred scope (or consciously exempt the difference).
        config = load_config(REPO_ROOT / "pyproject.toml")
        result = LintEngine(config).lint_paths([SRC], project=True)
        assert not [n for n in result.notes
                    if n.startswith("scope audit")], result.notes
        assert not [n for n in result.notes
                    if "does not resolve" in n], result.notes

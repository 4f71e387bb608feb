"""Tests for the cross-module half of the linter.

Covers the per-module summaries (locals/global-write extraction,
``global`` vs ``nonlocal`` scoping, call-site resolution), the project
model (call graph through aliases and re-exports, the
parameter-mutation fixpoint), each cross-module rule (DET005, PAR001,
TRACE002) with a known-bad fixture package — plus every fixture the
retired DET006 held, now flagged under DET003 — and the meta-test that
this repository's own ``src/`` tree is clean under the whole battery.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint import LintConfig, lint_paths, module_name
from repro.lint.graph import build_project_model
from repro.lint.summaries import summarize_module

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
    """Summarize + link by hand, for golden assertions on the model."""
    summaries = {}
    for path in sorted(root.glob("*.py")):
        module = module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        summaries[module] = summarize_module(
            tree, module, str(path),
            is_package=path.name == "__init__.py")
    return build_project_model(summaries, config)


# A mini-package whose functions write module-level mutable state
# two ways: through an imported submodule
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
        \"\"\"The fixture's campaign runner.\"\"\"

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

PKG_CFG = LintConfig(package="pkg")


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

    def test_unordered_sinks(self, tmp_path):
        # Order sinks are no longer summary data: the one per-file
        # rule (DET003) reports them, module level included.
        root = write_package(tmp_path, "pkg", {"sinks.py": """\
            NAMES = list({"a", "b"})


            def merge(shard_results):
                out = []
                for item in shard_results.values():
                    out.append(item)
                return out
        """})
        (root / "__init__.py").write_text("")
        result = lint_paths([root], PKG_CFG)
        assert codes(result.findings) == ["DET003", "DET003"]
        first, second = result.findings
        assert first.line == 1
        assert "list() over an unordered set expression" in first.message
        assert second.line == 6
        assert "iteration over a shard-keyed dict view" in second.message


class TestProjectModel:
    def test_call_graph_and_param_mutation_fixpoint(self, tmp_path):
        root = write_package(tmp_path, "pkg", {
            "__init__.py": "from pkg.low import Sink, scrub\n",
            "low.py": """\
                class Sink:
                    def __init__(self, rows):
                        rows.clear()

                    def drain(self, batch):
                        batch.pop()


                def scrub(rec):
                    rec.pop("tmp")
            """,
            "mid.py": """\
                import pkg


                def tidy(record, extra):
                    pkg.scrub(record)
                    return extra


                def build(rows):
                    return pkg.Sink(rows)


                def flush(sink, batch):
                    sink.drain(batch)
            """,
        })
        model = build_model(root, PKG_CFG)
        edges = {(e.caller, e.callee, e.offset)
                 for es in model.call_edges.values() for e in es}
        # Through the package re-export, a constructor, and a method
        # linked by name.
        assert ("pkg.mid.tidy", "pkg.low.scrub", 0) in edges
        assert ("pkg.mid.build", "pkg.low.Sink.__init__", 1) in edges
        assert ("pkg.mid.flush", "pkg.low.Sink.drain", 1) in edges
        # Mutation flows up the chain to exactly the argument passed.
        assert model.mutates_param["pkg.low.scrub"] == {"rec"}
        assert model.mutates_param["pkg.mid.tidy"] == {"record"}
        assert model.mutates_param["pkg.mid.build"] == {"rows"}
        assert model.mutates_param["pkg.mid.flush"] == {"batch"}


class TestDET005:
    def test_reachable_global_writes_are_caught(self, tmp_path):
        root = write_package(tmp_path, "pkg", PKG_FILES)
        result = lint_paths([root], PKG_CFG)
        det5 = [f for f in result.findings if f.code == "DET005"]
        messages = " | ".join(f.message for f in det5)
        assert len(det5) == 2
        assert "pkg.state.CACHE" in messages
        assert "in 'record'" in messages
        assert "of another module" in messages  # the helpers.py write

    def test_smuggled_mutation_deep_in_the_call_chain(self, tmp_path):
        # A module-global mutation three calls below the runner,
        # through an ``import ... as`` alias, is caught — and so is
        # an identical write nothing calls today: no reachability
        # argument excuses a write.
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
        result = lint_paths([root], LintConfig(package="pkg2"))
        det5 = [f for f in result.findings if f.code == "DET005"]
        assert [f.line for f in det5] == [15, 20]
        assert "in '_commit'" in det5[0].message
        assert "in '_unreached'" in det5[1].message
        for finding in det5:
            assert finding.message.count("pkg2.tables.REGISTRY") == 1
            assert finding.path.endswith("deep.py")
        # Outside the package the same file is nobody's business.
        assert lint_paths([root]).ok

    def test_waiver_comment_suppresses_project_finding(self, tmp_path):
        files = dict(PKG_FILES)
        files["state.py"] = files["state.py"].replace(
            "CACHE[key] = value",
            "CACHE[key] = value  # repro-lint: disable=DET005")
        files["helpers.py"] = files["helpers.py"].replace(
            "CACHE[key] = True",
            "CACHE[key] = True  # repro-lint: disable=DET005")
        root = write_package(tmp_path, "pkg", files)
        result = lint_paths([root], PKG_CFG)
        assert "DET005" not in codes(result.findings)
        assert codes(result.waived).count("DET005") == 2


class TestDET006:
    """The retired materialization rule's fixtures, held to DET003."""

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
        result = lint_paths([root], LintConfig(package="pkg3"))
        det6 = [f for f in result.findings if f.code == "DET003"]
        assert [f.line for f in det6] == [5, 7]
        messages = " | ".join(f.message for f in det6)
        assert "list()" in messages
        assert "a shard-keyed dict view" in messages

    def test_set_iteration_in_sim_scope_defers_to_det003(self, tmp_path):
        # One hazard, one rule, one finding: no second code reports
        # the for-loop again.
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
        result = lint_paths([root], LintConfig(package="pkg4"))
        assert codes(result.findings) == ["DET003"]


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
        result = lint_paths([root], LintConfig())
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
        result = lint_paths([root], config)
        par = [f for f in result.findings if f.code == "PAR001"]
        assert len(par) == 1
        assert "argument 'runner'" in par[0].message

    def test_default_boundaries_cover_both_run_fleet_names(self,
                                                           tmp_path):
        # A lambda handed to the pool client, by either of its public
        # names, is shipped to worker processes; host-side callbacks
        # stay free to be closures.
        root = write_package(tmp_path, "pkg6b", {
            "__init__.py": '"""pkg6b."""\n\n__all__ = []\n',
            "caller.py": """\
                import repro.fleet.executor
                from repro.fleet import run_fleet

                __all__ = ["go"]


                def go(spec):
                    run_fleet(spec, jobs=2,
                              shard_runner=lambda job: None,
                              on_event=lambda event: None)
                    return repro.fleet.executor.run_fleet(
                        spec, jobs=2, shard_runner=lambda job: None,
                        on_event=lambda event: None)
            """,
        })
        result = lint_paths([root], LintConfig())
        par = [f for f in result.findings if f.code == "PAR001"]
        assert len(par) == 2
        assert "boundary call 'run_fleet()'" in par[0].message
        assert ("boundary call 'repro.fleet.executor.run_fleet()'"
                in par[1].message)
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
        result = lint_paths([root], LintConfig())
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
        result = lint_paths([root], LintConfig())
        trace = [f for f in result.findings if f.code == "TRACE002"]
        assert len(trace) == 1
        assert "pkg8.pipe.scrub" in trace[0].message
        assert "mutates parameter 'rec'" in trace[0].message

    def test_mutation_through_a_lazy_facade_after_emission(self,
                                                           tmp_path):
        # The callee is reached through a package facade table, not an
        # import statement: the call graph must still find it.
        root = write_package(tmp_path, "pkg9", {
            "__init__.py": """\
                from repro._facade import facade

                __all__, __getattr__, __dir__ = facade(__name__, {
                    ".tidy": ("scrub",),
                })
            """,
            "tidy.py": """\
                __all__ = ["scrub"]


                def scrub(rec):
                    rec.pop("tmp")
                    return rec
            """,
            "pipe.py": """\
                import pkg9
                from pkg9 import scrub

                __all__ = ["publish", "relay"]


                def publish(sink, record):
                    sink.send(record)
                    scrub(record)
                    return record


                def relay(sink, record):
                    sink.send(record)
                    pkg9.scrub(record)
                    return record
            """,
        })
        result = lint_paths([root], LintConfig())
        trace = [f for f in result.findings if f.code == "TRACE002"]
        assert len(trace) == 2
        assert all("pkg9.tidy.scrub" in f.message for f in trace)


class TestProjectSelfApplication:
    """The whole-program battery's verdict on this repository."""

    def test_src_tree_is_clean_under_project_rules(self):
        result = lint_paths([SRC])
        assert result.ok, "\n".join(
            f"{f.location()}: {f.code} {f.message}"
            for f in result.findings)
        assert result.functions_checked > 500
        # The exemptions are exactly the line waivers, each with its
        # reason at the line; nothing is exempt by list.
        assert sorted((Path(f.path).name, f.code)
                      for f in result.waived) == [
            ("pool.py", "DET002"), ("pool.py", "DET002"),
            ("pool.py", "DET002"), ("registry.py", "DET005"),
            ("registry.py", "DET005"), ("rules.py", "DET005"),
        ]

"""Lint analysis cost over this repository's own tree.

The linter is on the CI critical path for every push, so its cost is
part of the perf trajectory: this benchmark times one run of the whole
battery (parse + per-module rules + summarize every ``src/`` module,
link the project model, run the cross-module rules), asserts the
linter's own verdict stays clean, and writes ``BENCH_lint.json`` with
the rates.
"""

import time
from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def test_whole_program_analysis_time(benchmark, bench_json_writer):
    t0 = time.perf_counter()
    result = benchmark.pedantic(
        lambda: lint_paths([SRC]), rounds=1, iterations=1,
    )
    seconds = time.perf_counter() - t0

    files = result.files_checked
    functions = result.functions_checked
    print(f"\nLint ({files} files, {functions} functions):")
    print(f"  whole battery {seconds:7.2f}s  "
          f"{files / seconds:6.1f} files/s")

    path = bench_json_writer("lint", {
        "files": files,
        "functions": functions,
        "seconds": seconds,
        "files_per_second": files / seconds,
    })
    print(f"  written to {path}")

    # The linter's verdict on its own repository must stay clean.
    assert result.ok

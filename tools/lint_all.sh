#!/usr/bin/env bash
# Run the full static-analysis battery locally, the same way CI does:
#
#   tools/lint_all.sh                # repro.lint over the same trees
#                                    # CI checks (+ ruff)
#   tools/lint_all.sh src/repro/net  # custom repro.lint invocation
#
# Extra arguments replace the default `python -m repro.lint` invocation
# (`src tests tools benchmarks examples`).  The ruff layer (style /
# import order, configured under [tool.ruff] in pyproject.toml)
# runs only when ruff is installed — it is optional:
#
#   pip install -e ".[lint]"
#
# Exit status is non-zero if *any* layer that ran failed — including
# ruff when it is installed.
set -uo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

status=0

echo "== repro.lint (determinism & trace-safety) =="
if [ "$#" -gt 0 ]; then
    python -m repro.lint "$@" || status=$?
else
    python -m repro.lint src tests tools benchmarks examples \
        || status=$?
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (style + import order) =="
    ruff check src tests || status=$?
else
    echo "== ruff not installed; skipping (pip install -e '.[lint]') =="
fi

exit "$status"

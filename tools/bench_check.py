"""CI gate: benchmark results must match their checked-in baselines.

Each ``benchmarks/test_<name>.py`` that writes a machine-readable
``BENCH_<name>.json`` can check a baseline copy into
``benchmarks/baselines/``.  This gate re-runs those benchmarks into a
scratch directory and compares fresh against baseline field by field:

* **deterministic fields** (counts, totals, signatures, config echo)
  must match *exactly* — a drift means simulated behaviour changed
  and the baseline must be consciously regenerated;
* **performance fields** get a tolerance band: CI machines are
  noisy, so only an order-of-magnitude regression fails the gate
  (``--min-ratio`` tightens or loosens it).  Throughput (named
  ``*_per_s`` / ``*_per_second``) may not collapse; costs
  (``*_seconds``, ``*_over_*``, ``*elapsed*``) may not balloon; a
  nested dict is banded like the key that holds it.

    python tools/bench_check.py [--update] [names...]

``--update`` regenerates the named (default: all) baselines in place;
run it after an intentional behaviour change and commit the diff.
Exit code 0 when every baseline matches, 1 with a diagnostic.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = ["compare_payloads", "run_benchmark", "main"]

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"

#: Suffixes of throughput fields: banded, higher is better.
THROUGHPUT_SUFFIXES = ("_per_s", "_per_second")

#: Substrings of cost fields (durations, cost ratios): banded, lower
#: is better.
COST_MARKERS = ("_seconds", "_over_", "elapsed")

#: The REPRO_BENCH_TESTS scale baselines are recorded at.  Fixed so a
#: fresh run is comparable: deterministic fields depend on it.
BASELINE_BENCH_TESTS = "60"


def perf_class(key: str) -> str | None:
    """``"throughput"`` | ``"cost"`` | ``None`` (deterministic)."""
    if key.endswith(THROUGHPUT_SUFFIXES):
        return "throughput"
    if any(marker in key for marker in COST_MARKERS):
        return "cost"
    return None


def compare_payloads(name, baseline, fresh, min_ratio, failures):
    """Append a failure line per mismatched field (recursing dicts).

    A key that names no class of its own inherits its parent's, so
    ``trials_per_second: {"1": ..., "4": ...}`` is banded per entry.
    """

    def walk(path, base_value, fresh_value, kind):
        if isinstance(base_value, dict) and \
                isinstance(fresh_value, dict):
            for key in sorted(set(base_value) | set(fresh_value)):
                if key not in base_value:
                    failures.append(
                        f"{name}: {path}{key} is new (not in "
                        "baseline); run --update to record it")
                elif key not in fresh_value:
                    failures.append(
                        f"{name}: {path}{key} vanished from the "
                        "fresh run")
                else:
                    walk(f"{path}{key}.", base_value[key],
                         fresh_value[key], perf_class(key) or kind)
            return
        leaf = path.rstrip(".")
        if kind is not None:
            if not isinstance(base_value, (int, float)) or \
                    not isinstance(fresh_value, (int, float)):
                failures.append(
                    f"{name}: perf field {leaf} is not numeric "
                    f"({base_value!r} vs {fresh_value!r})")
            elif kind == "throughput":
                # Higher is better, only a collapse fails.
                if fresh_value < base_value * min_ratio:
                    failures.append(
                        f"{name}: {leaf} regressed "
                        f"{base_value:.1f} -> {fresh_value:.1f} "
                        f"(floor {base_value * min_ratio:.1f} at "
                        f"min-ratio {min_ratio})")
            else:
                # Cost ratio / duration: lower is better.
                if base_value > 0 and \
                        fresh_value > base_value / min_ratio:
                    failures.append(
                        f"{name}: {leaf} regressed "
                        f"{base_value:.3f} -> {fresh_value:.3f} "
                        f"(ceiling {base_value / min_ratio:.3f} at "
                        f"min-ratio {min_ratio})")
        elif base_value != fresh_value:
            failures.append(
                f"{name}: deterministic field {leaf} drifted: "
                f"baseline {base_value!r} != fresh {fresh_value!r}; "
                "if intentional, regenerate with --update")

    walk("", baseline, fresh, None)


def run_benchmark(name: str, out_dir: Path) -> Path | None:
    """Run one benchmark module; returns the fresh JSON path."""
    env = dict(os.environ)
    env["REPRO_BENCH_OUT"] = str(out_dir)
    env.setdefault("REPRO_BENCH_TESTS", BASELINE_BENCH_TESTS)
    module = REPO_ROOT / "benchmarks" / f"test_{name}.py"
    if not module.is_file():
        # A benchmark module may carry a longer name than the JSON it
        # writes (test_world_scaling.py -> BENCH_world.json).
        candidates = sorted(
            (REPO_ROOT / "benchmarks").glob(f"test_{name}_*.py"))
        if candidates:
            module = candidates[0]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", str(module), "-q",
         "--benchmark-disable-gc"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    if result.returncode != 0:
        print(result.stdout)
        print(result.stderr, file=sys.stderr)
        return None
    fresh = out_dir / f"BENCH_{name}.json"
    return fresh if fresh.is_file() else None


def baseline_names() -> list[str]:
    return sorted(
        path.stem[len("BENCH_"):]
        for path in BASELINE_DIR.glob("BENCH_*.json")
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare benchmark JSON against baselines")
    parser.add_argument("names", nargs="*",
                        help="benchmark names (default: every "
                             "checked-in baseline)")
    parser.add_argument("--update", action="store_true",
                        help="regenerate the baselines in place")
    parser.add_argument("--min-ratio", type=float, default=0.1,
                        help="perf tolerance: throughput may not "
                             "fall below baseline*R, costs may not "
                             "exceed baseline/R (default 0.1)")
    args = parser.parse_args(argv)

    names = args.names or baseline_names()
    if not names:
        print("bench check: no baselines found under "
              f"{BASELINE_DIR}; run with --update <name> to record "
              "the first one")
        return 1

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            fresh_path = run_benchmark(name, Path(scratch))
            if fresh_path is None:
                failures.append(
                    f"{name}: benchmark run failed or wrote no "
                    f"BENCH_{name}.json")
                continue
            baseline_path = BASELINE_DIR / f"BENCH_{name}.json"
            if args.update:
                BASELINE_DIR.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(fresh_path, baseline_path)
                print(f"bench check: baseline updated: "
                      f"{baseline_path}")
                continue
            if not baseline_path.is_file():
                failures.append(
                    f"{name}: no baseline {baseline_path}; record "
                    "one with --update")
                continue
            baseline = json.loads(
                baseline_path.read_text(encoding="utf-8"))
            fresh = json.loads(
                fresh_path.read_text(encoding="utf-8"))
            compare_payloads(name, baseline, fresh,
                             args.min_ratio, failures)

    if args.update:
        return 0
    if failures:
        print(f"bench check FAILED ({len(names)} baseline(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench check passed: {len(names)} baseline(s) match "
          f"({', '.join(names)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

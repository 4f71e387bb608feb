"""Compare two suite result files: ``python3 bench/compare.py A.json B.json``.

One row per (end-to-end metric, workload), A being the parent and B
the change, judged with the bounds of ``BENCHMARK.json``:

* **worse** — B's median is worse than A's by more than the bound;
* **unresolved** — the run-to-run spread of either side is wider than
  the bound, unless every run of B reads better than every run of A;
* **better** — B's median is better than A's by more than the bound;
* **same** — otherwise.

Signatures, operation counts and every per-layer count must be
*identical*; a difference is reported as **differs**.  Exit status is
non-zero on any *worse* or *differs* row, or a failed unit of work.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: find the package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.spec import EXACT_UNITS, load_contract

__all__ = ["compare", "main", "spread"]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the whole
    range when there are too few values for quartiles)."""
    median = statistics.median(values)
    if median == 0 or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def _verdict(before: list[float], after: list[float], lower: bool,
             bound: float) -> tuple[str, float]:
    """Verdict and B's relative change (positive = worse)."""
    a, b = statistics.median(before), statistics.median(after)
    worse_by = ((b - a) if lower else (a - b)) / abs(a) if a else 0.0
    if worse_by > bound:
        return "worse", worse_by
    if max(spread(before), spread(after)) > bound:
        clear = (max(after) < min(before) if lower
                 else min(after) > max(before))
        return ("better" if clear else "unresolved"), worse_by
    return ("better" if worse_by < -bound else "same"), worse_by


def compare(before: dict, after: dict, contract: dict) -> list[dict]:
    """Every comparison row for two suite results."""
    rows: list[dict] = []
    for entry in contract["workloads"]:
        name = entry["name"]
        a = before["workloads"][name]
        b = after["workloads"][name]
        for metric in contract["end_to_end"]:
            a_summary = a["end_to_end"][metric["name"]]
            b_summary = b["end_to_end"][metric["name"]]
            verdict, change = _verdict(
                a_summary["values"], b_summary["values"],
                metric["better"] == "lower", metric["bound"])
            rows.append({
                "workload": name, "metric": metric["name"],
                "unit": metric["unit"], "a": a_summary["median"],
                "b": b_summary["median"], "change": change,
                "verdict": verdict,
            })
        exact = {"signature": (a["signature"], b["signature"]),
                 "ops": (a["ops"], b["ops"]),
                 "failed_share": (a["failed_share"],
                                  b["failed_share"])}
        if "per_layer" in a and "per_layer" in b:
            for metric, value in a["per_layer"].items():
                if value["unit"] in EXACT_UNITS:
                    exact[metric] = (value["value"],
                                     b["per_layer"][metric]["value"])
        for metric, (left, right) in exact.items():
            verdict = "identical" if left == right else "differs"
            if metric == "failed_share" and (left or right):
                verdict = "worse"
            rows.append({"workload": name, "metric": metric,
                         "unit": "", "a": left, "b": right,
                         "change": None, "verdict": verdict})
    return rows


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)[:16]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text("utf-8"))
                     for path in argv)
    rows = compare(before, after, load_contract())
    print(f"{'workload':<18}{'metric':<30}{'A':>18}{'B':>18}"
          f"{'change':>9}  verdict")
    for row in rows:
        if row["verdict"] == "identical":
            continue
        change = ("" if row["change"] is None
                  else f"{row['change']:+.1%}")
        print(f"{row['workload']:<18}{row['metric']:<30}"
              f"{_cell(row['a']):>18}{_cell(row['b']):>18}"
              f"{change:>9}  {row['verdict']}")
    identical = sum(row["verdict"] == "identical" for row in rows)
    print(f"{identical} exact values identical")
    bad = [row for row in rows
           if row["verdict"] in ("worse", "differs")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

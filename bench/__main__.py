"""``python3 -m bench``: one contract run, or the whole suite.

With ``--workload`` this is the command of ``BENCHMARK.json``: one run
of one workload, whose last stdout line is the contract's result
object (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Without it, every workload runs ``--repeats`` times
round-robin, ``--trace`` adds one traced run each, every metric is
printed by name with its unit, and the result file is written for
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench.runner import contract_line, run_suite, run_traced, run_workload
from bench.spec import (
    DEFAULT_SEED,
    OUT,
    SRC,
    load_contract,
    workload_names,
)


def _print_suite(result: dict) -> None:
    header = result["header"]
    print(f"seed {header['seed']}  size {header['size']}  "
          f"{header['repeats']} x {header['seconds']} s  "
          f"nproc {header['nproc']}  python {header['python']}  "
          f"load {header['loadavg_1m']:.2f}  "
          f"commit {header['commit'][:12]}")
    for name, entry in result["workloads"].items():
        drift = "  ** signature_drift **" if entry["signature_drift"] \
            else ""
        print(f"\n{name}  signature {str(entry['signature'])[:16]}  "
              f"ops {entry['ops']}  failed_share "
              f"{entry['failed_share']:.4f}{drift}")
        for metric, summary in entry["end_to_end"].items():
            print(f"  {metric:<28} {summary['median']:>14.6g} "
                  f"{summary['unit']:<6} (min {summary['min']:.6g}, "
                  f"max {summary['max']:.6g}, n={summary['n']})")
        for metric, value in entry.get("per_layer", {}).items():
            print(f"  {metric:<28} {value['value']:>14.6g} "
                  f"{value['unit']}")
    print(f"\nwritten to {result['path']}")


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__)
    parser.add_argument("--workload", choices=workload_names(contract))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite only: runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes (bench/tests)")
    parser.add_argument("--out-dir", type=Path, default=OUT,
                        help="where work archives, traces and the "
                             "suite's result file go")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: the program's source is not at {SRC}",
              file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"

    if args.workload is None:
        result = run_suite(args.seed, size, args.seconds, args.repeats,
                           bool(args.trace), args.out_dir)
        _print_suite(result)
        return 1 if any(entry["failed"] for entry
                        in result["workloads"].values()) else 0

    if args.trace:
        run = run_traced(args.workload, args.seed, size, args.out_dir)
    else:
        run = run_workload(args.workload, args.seed, args.seconds, size,
                           args.out_dir)
    print(contract_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())

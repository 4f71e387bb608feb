"""The parent process: one benchmark run, or the whole suite.

The parent never imports the program.  It starts one child at a time
(never more processes than cores), times the set-up children from the
outside, and turns what the children print into the contract's result
object.  See :mod:`bench.child` for what runs inside.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench.calibration import reference_scale, rescaled
from bench.spec import (
    DEFAULT_SEED,
    EXACT_UNITS,
    OUT,
    ROOT,
    SIZES,
    SRC,
    load_contract,
    metric_units,
    workload_names,
)

__all__ = ["run_workload", "run_traced", "run_suite", "contract_line",
           "SETUP_REPEATS", "CHILD_TIMEOUT_S"]

#: Set-ups per run; their median is ``setup_s``.
SETUP_REPEATS = 3

#: No child may outlive the contract's per-run limit.
CHILD_TIMEOUT_S = 170

GOLDEN = ROOT / "bench" / "golden.json"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    path = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    # Set and dict-of-str iteration order must not differ per process.
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(phase: str, workload: str, seed: int, size: str,
           out_dir: Path, seconds: float | None = None) -> dict:
    """Run one child phase to its end; its last stdout line, parsed."""
    command = [sys.executable, "-m", "bench.child", phase,
               "--workload", workload, "--seed", str(seed),
               "--size", size, "--out-dir", str(out_dir)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"bench child {phase!r} for {workload!r} exited with "
            f"code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _note(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)


def _golden_drift(workload: str, seed: int, size: str,
                  observed: dict) -> bool:
    """Whether a signature, operation count or per-layer count of this
    run left the recorded one.  Reported loudly, never counted as a
    failure: a deliberate behaviour fix must not deadlock against a
    file it may not edit."""
    if not GOLDEN.is_file():
        return False
    golden = json.loads(GOLDEN.read_text("utf-8"))
    if (seed, size) != (golden["seed"], golden["size"]):
        return False
    recorded = golden["workloads"].get(workload, {})
    moved = {name: (recorded[name], value)
             for name, value in observed.items()
             if name in recorded and recorded[name] != value}
    for name, (was, now) in moved.items():
        _note(f"signature_drift: {workload} seed {seed}: {name} is "
              f"{str(now)[:16]}, bench/golden.json records "
              f"{str(was)[:16]}")
    return bool(moved)


def _settle(outcome: dict, workload: str, seed: int, size: str,
            counts: dict | None = None) -> dict:
    """Correctness of a child's outcome: every repeat gave one
    signature, and every unit of work a valid record."""
    stable = len(outcome["signatures"]) == 1
    failed = outcome["failed"] if stable else outcome["attempted"]
    signature = outcome["signatures"][0] if stable else None
    return {
        "workload": workload, "seed": seed,
        "correct": failed == 0, "attempted": outcome["attempted"],
        "failed": failed, "signature": signature,
        "signature_stable": 1 if stable else 0, "ops": outcome["ops"],
        "signature_drift": stable and _golden_drift(
            workload, seed, size,
            {"signature": signature, "ops": outcome["ops"],
             **(counts or {})}),
    }


def run_workload(workload: str, seed: int, seconds: float,
                 size: str = "full", out_dir: Path = OUT) -> dict:
    """One untraced run: every end-to-end metric of ``workload``."""
    units = metric_units(load_contract(), "end_to_end")
    setup_raw: list[float] = []
    setup_s: list[float] = []
    for _ in range(SETUP_REPEATS if size == "full" else 1):
        start = time.perf_counter()
        kernels = _child("setup", workload, seed, size,
                         out_dir)["kernels"]
        # The child ran the reference kernel first and last; what is
        # left is interpreter start, imports, inputs and warm-up.
        setup_raw.append(time.perf_counter() - start - sum(kernels))
        setup_s.append(setup_raw[-1] * reference_scale(*kernels))
    outcome = _child("measure", workload, seed, size, out_dir, seconds)
    run = _settle(outcome, workload, seed, size)
    wall_s = rescaled(outcome["walls"], outcome["kernels"])
    values = {
        "wall_s": wall_s,
        "ops_per_s": outcome["ops"] / wall_s,
        "peak_rss_mb": outcome["peak_rss_mb"],
        "setup_s": statistics.median(setup_s),
        "signature_stable": run["signature_stable"],
    }
    run["metrics"] = {name: {"value": values[name], "unit": unit}
                      for name, unit in units.items()}
    run["detail"] = {
        "repeats": len(outcome["walls"]),
        "raw_wall_s": outcome["walls"],
        "raw_setup_s": setup_raw,
        "kernel_s": outcome["kernels"],
        "cpu_s": outcome["cpu_s"],
    }
    return run


def run_traced(workload: str, seed: int, size: str = "full",
               out_dir: Path = OUT) -> dict:
    """One traced run: every per-layer metric of ``workload``."""
    units = metric_units(load_contract(), "per_layer")
    outcome = _child("trace", workload, seed, size, out_dir)
    run = _settle(outcome, workload, seed, size, {
        name: outcome["metrics"][name] for name, unit in units.items()
        if unit in EXACT_UNITS})
    run["metrics"] = {
        name: {"value": outcome["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    return run


def contract_line(run: dict) -> str:
    """The result object the driver reads from the last stdout line."""
    return json.dumps({key: run[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# -- The whole suite ----------------------------------------------------


def _header(seed: int, size: str, seconds: float, repeats: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit,
        "seed": seed, "size": size, "sizes": SIZES[size],
        "seconds": seconds, "repeats": repeats,
    }


def _summary(values: list[float], unit: str) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit,
            "values": values}


def run_suite(seed: int = DEFAULT_SEED, size: str = "full",
              seconds: float | None = None, repeats: int = 3,
              traced: bool = False, out_dir: Path = OUT) -> dict:
    """Every workload, ``repeats`` runs each, interleaved round-robin
    so slow drift of the shared machine spreads over all of them."""
    contract = load_contract()
    if seconds is None:
        seconds = contract["run_seconds"]
    names = workload_names(contract)
    result = {"header": _header(seed, size, seconds, repeats),
              "workloads": {name: {"runs": []} for name in names}}
    for repeat in range(repeats):
        for name in names:
            _note(f"run {repeat + 1}/{repeats} of {name}")
            result["workloads"][name]["runs"].append(
                run_workload(name, seed, seconds, size, out_dir))
    for name in names:
        entry = result["workloads"][name]
        runs = entry["runs"]
        signatures = {run["signature"] for run in runs}
        stable = len(signatures) == 1 and None not in signatures
        attempted = sum(run["attempted"] for run in runs)
        failed = (sum(run["failed"] for run in runs) if stable
                  else attempted)
        values = {
            metric: [run["metrics"][metric]["value"] for run in runs]
            for metric in metric_units(contract, "end_to_end")
        }
        if not stable:  # runs that each repeated, but not each other
            values["signature_stable"] = [0]
        entry.update({
            "signature": runs[0]["signature"] if stable else None,
            "ops": runs[0]["ops"],
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "signature_drift": any(run["signature_drift"]
                                   for run in runs),
            "end_to_end": {
                metric: _summary(values[metric], unit) for metric, unit
                in metric_units(contract, "end_to_end").items()
            },
        })
        if traced:
            _note(f"traced run of {name}")
            run = run_traced(name, seed, size, out_dir)
            entry["per_layer"] = run["metrics"]
            entry["traced_signature"] = run["signature"]
            if run["failed"] or run["signature"] != entry["signature"]:
                entry["failed"] = entry["attempted"]
                entry["failed_share"] = 1.0
    path = out_dir / f"result-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n", "utf-8")
    result["path"] = str(path)
    return result

"""The fresh process every set-up, measurement and traced run lives in.

``python -m bench.child <phase> --workload W --seed S --size full``
prints one JSON object as its last line.  A fresh interpreter per
phase keeps one workload's garbage from taxing the next, makes
``peak_rss_mb`` the measured unit's own, and charges set-up for its
imports and first-call initialisation every time.

* ``setup`` imports the program, builds the inputs from scratch and
  runs the warm-up campaign; the parent times the whole process.
* ``measure`` reopens the inputs, warms up, then repeats the timed
  unit for ``--seconds`` with the reference kernel around each repeat.
* ``trace`` repeats the unit untraced, runs it once traced, and
  derives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from bench.calibration import kernel_seconds, reference_scale, rescaled
from bench.spec import OUT, SIZES

__all__ = ["main", "MIN_REPEATS"]

#: Fewest timed repeats of a unit, however short ``--seconds`` is.
MIN_REPEATS = 3


def _work_dir(out_dir: Path, workload: str, seed: int,
              size: str) -> Path:
    return out_dir / "work" / f"{workload}-{size}-{seed}"


def _cpu_seconds() -> float:
    """User + system CPU seconds of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Largest resident set of this process or any child, MiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _timed(function, *args) -> tuple[float, object]:
    start = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - start, result


def setup(workload_name: str, seed: int, size: str,
          out_dir: Path) -> dict:
    """Import the program, build the inputs, warm up.

    The reference kernel runs here, first thing and last thing, and not
    in the parent: the sandbox's cores do not run at one speed, so only
    a kernel on the core that did the work says how fast that was.
    """
    iterations = SIZES[size]["kernel_iterations"]
    kernels = [kernel_seconds(iterations)]
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.prepare(seed, SIZES[size],
                     _work_dir(out_dir, workload_name, seed, size),
                     fresh=True)
    workload.warm(seed)
    kernels.append(kernel_seconds(iterations))
    return {"kernels": kernels}


def measure(workload, seed: int, size: str, out_dir: Path,
            seconds: float) -> dict:
    state = workload.prepare(
        seed, SIZES[size], _work_dir(out_dir, workload.name, seed, size))
    workload.warm(seed)
    workload.unit(state)  # the exact timed path, once, unrecorded
    iterations = SIZES[size]["kernel_iterations"]
    walls: list[float] = []
    kernels = [kernel_seconds(iterations)]
    signatures: set[str] = set()
    ops = attempted = failed = 0
    cpu_start = _cpu_seconds()
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
        gc.collect()
        wall, result = _timed(workload.unit, state)
        walls.append(wall)
        kernels.append(kernel_seconds(iterations))
        signatures.add(result.signature)
        ops = result.ops
        attempted += result.attempted
        failed += result.failed
    return {
        "walls": walls, "kernels": kernels,
        "signatures": sorted(signatures), "ops": ops,
        "attempted": attempted, "failed": failed,
        "cpu_s": _cpu_seconds() - cpu_start,
        "peak_rss_mb": _peak_rss_mib(),
    }


def trace(workload, seed: int, size: str, out_dir: Path) -> dict:
    from bench import extras, micro
    from bench.layers import ON_PATH, per_layer_metrics
    from bench.seams import patched
    from bench.tracing import Tracer, concatenated, rescale, write_spans

    sizes = SIZES[size]
    iterations = sizes["kernel_iterations"]
    setup_tracer = Tracer()
    kernels = [kernel_seconds(iterations)]
    with patched(setup_tracer, setup_only=True), \
            setup_tracer.span("setup"):
        state = workload.prepare(
            seed, sizes, _work_dir(out_dir, workload.name, seed, size),
            fresh=True, tracer=setup_tracer)
    kernels.append(kernel_seconds(iterations))
    rescale(setup_tracer.spans, reference_scale(*kernels))
    workload.warm(seed)
    workload.unit(state)

    kernels = [kernel_seconds(iterations)]
    untraced = []
    for _ in range(MIN_REPEATS):
        untraced.append(_timed(workload.unit, state))
        kernels.append(kernel_seconds(iterations))
    untraced_wall_s = rescaled([wall for wall, _ in untraced], kernels)

    tracer = Tracer()
    gc.collect()
    cpu_start = _cpu_seconds()
    with patched(tracer), tracer.span("unit"):
        result = workload.unit(state, tracer)
    cpu_s = _cpu_seconds() - cpu_start
    # Span times, like every other time here, read at reference speed.
    scale = reference_scale(kernels[-1], kernel_seconds(iterations))
    rescale(tracer.spans, scale)
    measured = {
        "cpu_s": cpu_s * scale,
        "untraced_wall_s": untraced_wall_s,
        **micro.isolated(ON_PATH[workload.name],
                         list(tracer.seen.get("routes", {}).values()),
                         iterations),
        **extras.measure(workload.name, state, result, seed, sizes,
                         untraced_wall_s, scale),
    }
    metrics = per_layer_metrics(tracer, setup_tracer, result.public,
                                measured)
    write_spans(concatenated(tracer.spans, setup_tracer.spans),
                out_dir / f"trace-{workload.name}.jsonl", workload.name)
    return {
        "metrics": metrics,
        # Tracing must not change what the program computes.
        "signatures": sorted({result.signature} | {
            plain.signature for _, plain in untraced}),
        "ops": result.ops, "attempted": result.attempted,
        "failed": result.failed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("phase", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out-dir", type=Path, default=OUT)
    args = parser.parse_args(argv)

    if args.phase == "setup":
        print(json.dumps(setup(args.workload, args.seed, args.size,
                               args.out_dir)))
        return 0

    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.phase == "measure":
        payload = measure(workload, args.seed, args.size, args.out_dir,
                          args.seconds)
    else:
        payload = trace(workload, args.seed, args.size, args.out_dir)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: six campaign-to-report workloads.

``BENCHMARK.json`` at the repository root is the contract (workloads,
end-to-end metrics with their bounds, per-layer metrics); this package
is the program behind its ``command``.  See ``bench/README.md``.

* :mod:`bench.spec` — the contract file, size presets, paths.
* :mod:`bench.workloads` — the six workloads: inputs, timed unit,
  correctness check.
* :mod:`bench.calibration` — the machine-speed reference kernel.
* :mod:`bench.child` — the fresh process every measurement runs in.
* :mod:`bench.runner` — the parent: one run, or the whole suite.
* :mod:`bench.tracing` / :mod:`bench.seams` — spans recorded from
  here, around the program's public seams.
* :mod:`bench.layers` / :mod:`bench.micro` / :mod:`bench.extras` —
  per-layer metrics: span tree, isolated drivers, ``a_over_b`` ratios.
* :mod:`bench.compare` — compare two result files.
* :mod:`bench.golden` — re-record ``bench/golden.json``.
"""

"""Rule battery: importing this package registers every shipped rule.

Rule modules are grouped by concern:

* :mod:`repro.lint.checks.determinism` — DET001/DET002/DET003, the
  seed-reproducibility contract.
* :mod:`repro.lint.checks.trace_safety` — TRACE001, traces are
  read-only inputs.
* :mod:`repro.lint.checks.parity` — DET005/PAR001/TRACE002, the
  cross-module serial==parallel rules.
* :mod:`repro.lint.checks.world` — DET007, the partitioned-world
  bus-only discipline.

Adding a rule means adding a :class:`~repro.lint.rules.Rule` subclass
decorated with :func:`~repro.lint.rules.register_rule` in one of these
modules (or a new module imported here) — the engine, CLI and
``--list-rules`` pick it up automatically.
"""

from repro.lint.checks import determinism, parity, trace_safety, world

__all__ = ["determinism", "trace_safety", "parity", "world"]

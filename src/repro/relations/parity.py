"""Differential parity for the metric layer.

One equality anchors the relation subsystem — the one place two
implementations of a predicate remain — stated here as a
mismatch-listing helper (empty list == proved for that trace),
enforced per-commit by ``tests/test_relations_parity.py`` and per-push
by the ``tools/gates.py relations`` CI gate:

* **spec == legacy** — the re-expressed paper predicates
  (read-your-writes, monotonic reads) flag exactly the reads the
  hand-written checkers flag, with identical evidence.
"""

from __future__ import annotations

from repro.core.anomalies.registry import check_all
from repro.core.trace import TestTrace
from repro.relations.batch import evaluate_metrics
from repro.relations.registry import (
    BUILTIN_SPECS,
    LEGACY_EQUIVALENTS,
)

__all__ = ["legacy_verdict_mismatches"]


def legacy_verdict_mismatches(trace: TestTrace) -> list[str]:
    """Spec-vs-legacy verdict differences for one trace.

    For each re-expressed predicate, the spec's nonzero samples and
    the legacy checker's observations must name the same violating
    reads with the same evidence; element order differs by
    construction (legacy groups by agent, specs follow canonical read
    order), so both sides are compared as sorted evidence keys.
    """
    report = check_all(trace)
    problems: list[str] = []
    for spec_name, kind in LEGACY_EQUIVALENTS.items():
        spec = BUILTIN_SPECS[spec_name]
        (result,) = evaluate_metrics(trace, (spec,))
        spec_keys = sorted(
            (sample.agent, sample.time,
             tuple(sample.details["missing"]),
             tuple(sample.details["observed"]))
            for sample in result.samples
        )
        legacy_keys = sorted(
            (obs.agent, obs.time,
             tuple(obs.details["missing"]),
             tuple(obs.details["observed"]))
            for obs in report.observations.get(kind, [])
        )
        if spec_keys != legacy_keys:
            problems.append(
                f"{trace.test_id}/{spec_name}: spec verdicts "
                f"{spec_keys} != legacy {legacy_keys}"
            )
        if result.value != len(legacy_keys):
            problems.append(
                f"{trace.test_id}/{spec_name}: value {result.value} "
                f"!= legacy observation count {len(legacy_keys)}"
            )
    return problems

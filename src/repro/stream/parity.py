"""Field-level diff of two distilled test records.

With one implementation of every predicate, window and metric, what
the tests and the ``stream`` CI gate compare is *feeds*: the record
``analyze_trace`` distills from a finished trace against the one the
live sequencer (or an archived event file) produced for the same
test.  :func:`record_mismatches` names the fields that differ; an
empty list means the records are equal.
"""

from __future__ import annotations

from repro.methodology.records import TestRecord

__all__ = ["record_mismatches"]


def record_mismatches(expected: TestRecord,
                      actual: TestRecord) -> list[str]:
    """Field-level diffs between two distilled test records."""
    mismatches: list[str] = []
    for name in ("test_id", "test_type", "reads_per_agent",
                 "writes_per_agent", "duration", "metrics"):
        left, right = getattr(expected, name), getattr(actual, name)
        if left != right:
            mismatches.append(f"{name}: {left!r} != {right!r}")
    if expected.report != actual.report:
        for kind in expected.report.observations:
            left_obs = expected.report.observations.get(kind, [])
            right_obs = actual.report.observations.get(kind, [])
            if left_obs != right_obs:
                mismatches.append(
                    f"report[{kind}]: {len(left_obs)} vs "
                    f"{len(right_obs)} observation(s)"
                )
    for name in ("content_windows", "order_windows"):
        left_map, right_map = getattr(expected, name), getattr(
            actual, name
        )
        if left_map == right_map and (
            list(left_map) == list(right_map)
        ):
            continue
        for pair in left_map:
            if left_map[pair] != right_map.get(pair):
                mismatches.append(
                    f"{name}[{pair}]: {left_map[pair]} != "
                    f"{right_map.get(pair)}"
                )
        if list(left_map) != list(right_map):
            mismatches.append(
                f"{name}: key insertion order differs "
                f"({list(left_map)} vs {list(right_map)})"
            )
    return mismatches

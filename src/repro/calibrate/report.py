"""Fidelity rendering: measured-vs-paper tables and ``fidelity.json``.

The ``repro-consistency calibrate`` subcommand (search winner vs.
baseline) and ``tools/gates.py fidelity`` print these tables.  The
export is plain sorted-keys JSON, so CI diffs stay readable.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.calibrate.objective import FidelityScore
from repro.calibrate.targets import TARGETS_VERSION
from repro.io import replace_file

__all__ = [
    "FIDELITY_SCHEMA_VERSION",
    "fidelity_table",
    "comparison_table",
    "write_fidelity_json",
]

FIDELITY_SCHEMA_VERSION = 1

#: Width of the term column: the longest row id, plus a gap.
_TERM_WIDTH = 48


def fidelity_table(score: FidelityScore) -> str:
    """One service's rows as an aligned measured-vs-paper table."""
    header = (f"{'term':{_TERM_WIDTH}s}{'measured':>10s}{'paper':>10s}"
              f"{'weight':>8s}{'loss':>8s}")
    lines = [
        f"{score.service}: weighted fidelity loss "
        f"{score.total:.4f}",
        header,
        "-" * len(header),
    ]
    for term in score.terms:
        row = term.claim
        lines.append(
            f"{row.id:{_TERM_WIDTH}s}{term.value:10.3f}"
            f"{row.paper:10.3f}{row.weight:8.2f}{term.loss:8.3f}"
        )
    return "\n".join(lines)


def comparison_table(baseline: FidelityScore,
                     calibrated: FidelityScore) -> str:
    """Row-by-row paper / default / calibrated comparison.

    Both scores must come from the same objective (same rows); the
    table shows, per row, whether calibration moved the measured
    value toward the paper.
    """
    header = (f"{'term':{_TERM_WIDTH}s}{'paper':>10s}{'default':>12s}"
              f"{'calibrated':>12s}")
    lines = [
        f"{calibrated.service}: fidelity loss default "
        f"{baseline.total:.4f} -> calibrated {calibrated.total:.4f}",
        header,
        "-" * len(header),
    ]
    calibrated_terms = {term.claim.id: term for term in calibrated.terms}
    for term in baseline.terms:
        other = calibrated_terms.get(term.claim.id)
        cell = f"{other.value:12.3f}" if other is not None \
            else f"{'-':>12s}"
        lines.append(
            f"{term.claim.id:{_TERM_WIDTH}s}{term.claim.paper:10.3f}"
            f"{term.value:12.3f}{cell}"
        )
    return "\n".join(lines)


def write_fidelity_json(path: str | Path,
                        scores: dict[str, FidelityScore],
                        extra: dict | None = None) -> Path:
    """Write the machine-readable fidelity document as sorted,
    indented JSON.

    ``scores`` maps a label (``"<service>.default"`` /
    ``"<service>.calibrated"``) to its score.
    """
    document = {
        "fidelity_schema_version": FIDELITY_SCHEMA_VERSION,
        "targets_version": TARGETS_VERSION,
        "scores": {label: score.to_jsonable()
                   for label, score in sorted(scores.items())},
    }
    if extra:
        document["extra"] = extra
    return replace_file(
        path, (json.dumps(document, indent=1, sort_keys=True) + "\n",))

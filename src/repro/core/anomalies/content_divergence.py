"""Content Divergence checker.

Paper definition (§III.2): two reads by clients ``c1`` and ``c2``
returning ``S1`` and ``S2`` exhibit a *content divergence* anomaly
when::

    ∃ x ∈ S1, y ∈ S2 : x ∉ S2 ∧ y ∉ S1

i.e. each client sees a write the other does not — a symmetric
difference in *both* directions.  One-directional staleness (one view a
subset of the other) is not divergence; that is just one client lagging
on a single timeline.

Following the paper, the reads compared may come from any point in the
test (its worked example even derives a divergence whose views never
coexisted, hence a zero-length *window*; windows are computed separately
in :mod:`repro.core.windows`).

Reporting granularity: the paper's Figure 8 reports divergence per
*agent pair* per test, so this checker emits **at most one observation
per unordered agent pair**, carrying the number of divergent read pairs
and the first piece of evidence.  ``details`` keys:

* ``divergent_read_pairs`` — how many (read, read) combinations of this
  agent pair diverged.
* ``example`` — mapping with ``left_only``/``right_only`` message ids
  and the two observed sequences from the first divergent pair found
  (agents in sorted order: "left" is the lexicographically smaller).

Counting and example selection are shared with order divergence:
:mod:`repro.core.anomalies.pairwise`.
"""

from __future__ import annotations

from repro.core.anomalies.base import CONTENT_DIVERGENCE
from repro.core.anomalies.pairwise import (
    DivergenceKind,
    PairwiseDivergenceChecker,
)

__all__ = ["ContentDivergenceChecker", "views_content_diverged", "CONTENT"]


def views_content_diverged(view_a: tuple[str, ...],
                           view_b: tuple[str, ...]) -> bool:
    """The paper's content-divergence predicate on two observed views."""
    set_a, set_b = set(view_a), set(view_b)
    return bool(set_a - set_b) and bool(set_b - set_a)


def _example(left_view: tuple[str, ...],
             right_view: tuple[str, ...]) -> dict:
    left_set, right_set = set(left_view), set(right_view)
    return {
        "left_only": tuple(sorted(left_set - right_set)),
        "right_only": tuple(sorted(right_set - left_set)),
        "left_observed": left_view,
        "right_observed": right_view,
    }


#: Content divergence as the pairwise view machine runs it.
CONTENT = DivergenceKind("content", views_content_diverged,
                         CONTENT_DIVERGENCE, _example)


class ContentDivergenceChecker(PairwiseDivergenceChecker):
    """Detects cross-missing writes between reads of different agents."""

    anomaly = CONTENT_DIVERGENCE
    kind = CONTENT

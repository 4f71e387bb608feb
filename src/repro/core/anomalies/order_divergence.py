"""Order Divergence checker.

Paper definition (§III.2): two reads by clients ``c1`` and ``c2``
returning ``S1`` and ``S2`` exhibit an *order divergence* anomaly
when::

    ∃ x, y ∈ S1, S2 : S1(x) ≺ S1(y) ∧ S2(y) ≺ S2(x)

i.e. two writes visible in *both* views appear in opposite relative
orders.

Like content divergence, this is reported per unordered agent pair per
test (at most one observation per pair), since that is the granularity
of the paper's Figures 3 and 10.  ``details`` keys:

* ``divergent_read_pairs`` — how many (read, read) combinations of this
  agent pair disagreed on some order.
* ``example`` — mapping with one ``inverted`` message-id pair (ordered
  as the lexicographically-smaller agent saw it) plus both observed
  sequences.
"""

from __future__ import annotations

from repro.core.anomalies.base import (
    ORDER_DIVERGENCE,
    AnomalyChecker,
    AnomalyObservation,
)
from repro.core.trace import ReadOp, TestTrace

__all__ = ["OrderDivergenceChecker", "views_order_diverged",
           "first_inversion"]


def first_inversion(view_a: tuple[str, ...],
                    view_b: tuple[str, ...]) -> tuple[str, str] | None:
    """Find one (x, y) with x before y in ``view_a`` but after in ``view_b``.

    Returns None when every pair of commonly-visible messages agrees.
    """
    return _first_descent(view_a, _positions(view_b))


def _positions(view: tuple[str, ...]) -> dict[str, int]:
    return {mid: i for i, mid in enumerate(view)}


def _first_descent(view_a: tuple[str, ...],
                   positions_b: dict[str, int],
                   ) -> tuple[str, str] | None:
    """:func:`first_inversion` against precomputed ``view_b`` positions.

    The scan walks the common messages in ``view_a`` order and looks for
    a descent in their ``view_b`` positions — an inversion exists iff
    the position sequence is not non-decreasing.
    """
    best_so_far: tuple[int, str] | None = None  # (pos_b, message_id)
    for mid in view_a:
        pos_b = positions_b.get(mid)
        if pos_b is None:
            continue
        if best_so_far is not None and pos_b < best_so_far[0]:
            return (best_so_far[1], mid)
        if best_so_far is None or pos_b > best_so_far[0]:
            best_so_far = (pos_b, mid)
    return None


def views_order_diverged(view_a: tuple[str, ...],
                         view_b: tuple[str, ...]) -> bool:
    """The paper's order-divergence predicate on two observed views."""
    return first_inversion(view_a, view_b) is not None


class OrderDivergenceChecker(AnomalyChecker):
    """Detects inverted relative orders between different agents' reads."""

    anomaly = ORDER_DIVERGENCE

    def check(self, trace: TestTrace) -> list[AnomalyObservation]:
        observations: list[AnomalyObservation] = []
        for first, second in trace.agent_pairs():
            left, right = sorted((first, second))
            result = self._check_pair(
                trace.reads_by(left), trace.reads_by(right)
            )
            if result is None:
                continue
            count, example, detecting_read = result
            observations.append(AnomalyObservation(
                anomaly=self.anomaly,
                agent=left,
                time=trace.corrected_response(detecting_read),
                pair=(left, right),
                details={
                    "divergent_read_pairs": count,
                    "example": example,
                },
            ))
        return observations

    @staticmethod
    def _check_pair(
        left_reads: list[ReadOp], right_reads: list[ReadOp]
    ) -> tuple[int, dict, ReadOp] | None:
        count = 0
        example: dict | None = None
        detecting_read: ReadOp | None = None
        # Agents poll, so most reads repeat a view: index each distinct
        # right-hand view once and decide each distinct view pair once.
        positions = {
            view: _positions(view)
            for view in dict.fromkeys(read.observed
                                      for read in right_reads)
        }
        decided: dict[tuple[str, ...],
                      dict[tuple[str, ...], tuple[str, str] | None]] = {}
        for left_read in left_reads:
            against = decided.setdefault(left_read.observed, {})
            for right_read in right_reads:
                right_view = right_read.observed
                if right_view in against:
                    inversion = against[right_view]
                else:
                    inversion = against[right_view] = _first_descent(
                        left_read.observed, positions[right_view]
                    )
                if inversion is None:
                    continue
                count += 1
                if example is None:
                    example = {
                        "inverted": inversion,
                        "left_observed": left_read.observed,
                        "right_observed": right_read.observed,
                    }
                    detecting_read = (
                        left_read
                        if left_read.response_local >=
                        right_read.response_local
                        else right_read
                    )
        if count == 0:
            return None
        assert example is not None and detecting_read is not None
        return count, example, detecting_read

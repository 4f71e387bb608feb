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

Counting and example selection are shared with content divergence:
:mod:`repro.core.anomalies.pairwise`.
"""

from __future__ import annotations

from repro.core.anomalies.base import ORDER_DIVERGENCE
from repro.core.anomalies.pairwise import (
    DivergenceKind,
    PairwiseDivergenceChecker,
)

__all__ = ["OrderDivergenceChecker", "views_order_diverged",
           "first_inversion", "ORDER"]


def first_inversion(view_a: tuple[str, ...],
                    view_b: tuple[str, ...]) -> tuple[str, str] | None:
    """Find one (x, y) with x before y in ``view_a`` but after in ``view_b``.

    Returns None when every pair of commonly-visible messages agrees.
    The scan walks the common messages in ``view_a`` order and looks for
    a descent in their ``view_b`` positions — an inversion exists iff
    the position sequence is not non-decreasing.
    """
    positions_b = {mid: i for i, mid in enumerate(view_b)}
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


def _example(left_view: tuple[str, ...],
             right_view: tuple[str, ...]) -> dict:
    return {
        "inverted": first_inversion(left_view, right_view),
        "left_observed": left_view,
        "right_observed": right_view,
    }


#: Order divergence as the pairwise view machine runs it.
ORDER = DivergenceKind("order", views_order_diverged,
                       ORDER_DIVERGENCE, _example)


class OrderDivergenceChecker(PairwiseDivergenceChecker):
    """Detects inverted relative orders between different agents' reads."""

    anomaly = ORDER_DIVERGENCE
    kind = ORDER

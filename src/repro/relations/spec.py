"""Declarative consistency-metric specs over visibility/arbitration.

The paper's six anomaly predicates are *code* — one checker module
each.  This module makes a consistency metric *data*: a
:class:`MetricSpec` names which relation supplies each read's expected
set (``expect``), how a read's value is computed against it
(``violation``), and how per-read values fold into one number per test
(``measure``).  The one evaluator (:mod:`repro.relations.streaming`)
reads a ``missing`` value off the §III checker that owns the expected
set and computes the two relation-only values with one pure function,
:func:`evaluate_read`, over a :class:`ReadContext` and the test's
:class:`Arbitration`.

Relations (ViSearch's vocabulary, specialized to the paper's traces):

* **visibility** — read ``r`` sees write ``w`` iff ``w``'s message id
  is in ``r.observed``; the view tuple itself is the read's *view
  order*.
* **arbitration** — the total order over a test's logged writes by
  ``(corrected invocation, recording index)``: the reference-frame
  order the substrates' timestamp keys approximate, and the order
  ``trace.writes()`` produces.
* **session relations** — per agent: its own completed writes (in
  session order) and the union of ids returned by its earlier reads:
  the read-your-writes / monotonic-reads checkers' state, not ours.

Vocabulary
----------
``expect``
    ``own_completed`` — the agent's own writes completed before the
    read invoked (session order);
    ``seen_before`` — ids any earlier read of the same agent returned;
    ``visible`` — the read's own view (for relation-only metrics that
    need no expected set).
``violation``
    ``missing`` — expected ids absent from the view (count);
    ``relaxation`` — ViSearch-style almost-serializable score: logged
    writes skipped below the view's arbitration frontier;
    ``inversion`` — staleness inversions: visible write pairs whose
    view order contradicts arbitration order.
``measure``
    ``count`` — number of reads with a nonzero value;
    ``sum`` — total value over all reads;
    ``max`` — worst single read (the relaxation bound ``k``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from repro.errors import ConfigurationError

__all__ = [
    "EXPECT_KINDS",
    "VIOLATION_KINDS",
    "MEASURE_KINDS",
    "MetricSpec",
    "MetricSample",
    "MetricResult",
    "Arbitration",
    "ReadContext",
    "evaluate_read",
    "aggregate",
]

EXPECT_KINDS = ("own_completed", "seen_before", "visible")
VIOLATION_KINDS = ("missing", "relaxation", "inversion")
MEASURE_KINDS = ("count", "sum", "max")


@dataclass(frozen=True)
class MetricSpec:
    """One consistency metric as data: a predicate over relations."""

    name: str
    expect: str
    violation: str
    measure: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("metric spec needs a name")
        if self.expect not in EXPECT_KINDS:
            raise ConfigurationError(
                f"metric {self.name!r}: unknown expect kind "
                f"{self.expect!r}; choose from {EXPECT_KINDS}"
            )
        if self.violation not in VIOLATION_KINDS:
            raise ConfigurationError(
                f"metric {self.name!r}: unknown violation kind "
                f"{self.violation!r}; choose from {VIOLATION_KINDS}"
            )
        if self.measure not in MEASURE_KINDS:
            raise ConfigurationError(
                f"metric {self.name!r}: unknown measure kind "
                f"{self.measure!r}; choose from {MEASURE_KINDS}"
            )
        if self.violation in ("relaxation", "inversion") and \
                self.expect != "visible":
            raise ConfigurationError(
                f"metric {self.name!r}: violation "
                f"{self.violation!r} is computed over the view "
                "itself; set expect='visible'"
            )

    @property
    def needs_arbitration(self) -> bool:
        """True when the value depends on the final write order.

        Arbitration ranks are total-order positions over *all* of a
        test's logged writes, so the evaluator defers these
        specs to test close; ``missing`` specs are final the moment
        the read arrives (per-agent prefix property).
        """
        return self.violation in ("relaxation", "inversion")


@dataclass(frozen=True)
class MetricSample:
    """One violating read: who, when (reference time), how bad."""

    agent: str
    time: float
    value: int
    details: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricResult:
    """One metric folded over one test's reads."""

    metric: str
    value: int
    samples: tuple[MetricSample, ...] = ()


@dataclass(frozen=True)
class Arbitration:
    """Total order over a test's logged writes.

    ``order`` holds message ids sorted by ``(corrected invocation,
    recording index)``; ``rank`` maps each id to its position.  Ids a
    read observed but no agent logged (pre-existing content, probe
    artifacts) are simply absent and skipped.
    """

    order: tuple[str, ...]
    rank: Mapping[str, int]

    @classmethod
    def from_keyed(
        cls, keyed: list[tuple[float, int, str]]
    ) -> "Arbitration":
        """Build from ``(corrected_invoke, seq, message_id)`` triples."""
        order = tuple(mid for _, _, mid in sorted(keyed))
        return cls(order=order,
                   rank={mid: i for i, mid in enumerate(order)})


class ReadContext(NamedTuple):
    """One read's view, parked until the arbitration order is final."""

    agent: str
    time: float
    observed: tuple[str, ...]


def evaluate_read(
    spec: MetricSpec, ctx: ReadContext, arbitration: Arbitration,
) -> tuple[int, dict]:
    """Value one read under a ``relaxation``/``inversion`` spec.  Pure.

    Returns ``(value, details)``; ``details`` is non-empty only for
    nonzero values and uses the relation-layer keys
    (``frontier``/``skipped``/``inverted``); a ``missing`` sample
    carries its checker observation's ``missing``/``observed``.
    """
    rank = arbitration.rank
    ranks = [rank[m] for m in ctx.observed if m in rank]
    if spec.violation == "relaxation":
        if not ranks:
            return 0, {}
        frontier = max(ranks)
        if len(set(ranks)) == frontier + 1:
            return 0, {}  # a rank prefix: nothing below the frontier
        visible = set(ctx.observed)
        skipped = tuple(m for m in arbitration.order[:frontier]
                        if m not in visible)
        return len(skipped), {
            "frontier": arbitration.order[frontier],
            "skipped": skipped,
        }
    # inversion: visible pairs whose view order contradicts arbitration.
    if ranks == sorted(ranks):
        return 0, {}  # in arbitration order, as almost every view is
    ranked = [m for m in ctx.observed if m in rank]
    inverted = tuple(
        (earlier, later)
        for i, earlier in enumerate(ranked)
        for later in ranked[i + 1:]
        if rank[earlier] > rank[later]
    )
    return len(inverted), {"inverted": inverted}


def aggregate(spec: MetricSpec, samples: list[MetricSample]) -> int:
    """Fold per-read samples (all nonzero) into the test-level value."""
    if spec.measure == "count":
        return len(samples)
    if spec.measure == "sum":
        return sum(sample.value for sample in samples)
    return max((sample.value for sample in samples), default=0)

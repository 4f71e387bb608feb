"""Declarative consistency-metric specs over visibility/arbitration.

The paper's six anomaly predicates are *code* — one checker module
each.  This module makes a consistency metric *data*: a
:class:`MetricSpec` names how a read's value is computed
(``violation``) and how per-read values fold into one number per test
(``measure``).  The one evaluator (:mod:`repro.relations.streaming`)
reads a ``missing`` value off the monotonic-reads checker and computes
the two relation-only values with one pure function,
:func:`evaluate_read`, over a :class:`ReadContext` and the test's
minimal admissible :class:`Arbitration`.

Relations (ViSearch's vocabulary, specialized to the paper's traces):

* **visibility** — read ``r`` sees write ``w`` iff ``w``'s message id
  is in ``r.observed``; the view tuple itself is the read's *view
  order*.
* **arbitration** — a total order over a test's logged writes.  An
  order is *admissible* when it keeps each agent's issue order and
  puts ``w`` before ``w'`` whenever ``w`` responded before ``w'`` was
  invoked (corrected times, so "real time" is the clock-delta
  estimate's).  A relation-only metric is the minimum of its test
  value over admissible orders, found by :func:`minimal_arbitration`.
* **session relations** — per agent, the union of ids returned by its
  earlier reads: the monotonic-reads checker's state, not ours.

Vocabulary
----------
``violation``
    ``missing`` — previously-seen ids absent from the view (the
    monotonic-reads checker's evidence);
    ``relaxation`` — ViSearch-style almost-serializable score: logged
    writes skipped below the view's arbitration frontier;
    ``inversion`` — staleness inversions: visible write pairs whose
    view order contradicts arbitration order.
``measure``
    ``sum`` — total value over all reads;
    ``max`` — worst single read (the relaxation bound ``k``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from repro.errors import AnalysisError, ConfigurationError

__all__ = [
    "VIOLATION_KINDS",
    "MEASURE_KINDS",
    "MetricSpec",
    "MetricSample",
    "MetricResult",
    "LoggedWrite",
    "Arbitration",
    "minimal_arbitration",
    "ReadContext",
    "evaluate_read",
    "aggregate",
]

VIOLATION_KINDS = ("missing", "relaxation", "inversion")
MEASURE_KINDS = ("sum", "max")
#: The most sets :func:`minimal_arbitration` may reach, far above a
#: campaign test's 27 (three agents of two writes): five sessions of six
#: overlapping writes reach 16,807 (~0.2 s), each further session 7x.
MAX_ARBITRATION_SETS = 20_000


@dataclass(frozen=True)
class MetricSpec:
    """One consistency metric as data: a predicate over relations."""

    name: str
    violation: str
    measure: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("metric spec needs a name")
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

    @property
    def needs_arbitration(self) -> bool:
        """True when the value depends on the final write order.

        Arbitration ranks are total-order positions over *all* of a
        test's logged writes, so the evaluator defers these
        specs to test close; ``missing`` specs are final the moment
        the read arrives (per-agent prefix property).
        """
        return self.violation != "missing"


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


class LoggedWrite(NamedTuple):
    """One logged write, keyed by its ``(invoke, seq)`` tie-break."""

    invoke: float  # corrected invocation time
    seq: int  # recording index within the test
    message_id: str
    agent: str
    time: float  # corrected response time


@dataclass(frozen=True)
class Arbitration:
    """Total order over a test's logged writes.

    ``order`` holds message ids; ``rank`` maps each id to its position.
    Ids a read observed but no agent logged (pre-existing content,
    probe artifacts) are simply absent and skipped.
    """

    order: tuple[str, ...]
    rank: Mapping[str, int] = field(init=False, repr=False,
                                    compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", {
            mid: i for i, mid in enumerate(self.order)})


def minimal_arbitration(
    writes: Iterable[LoggedWrite],
    views: Mapping[tuple[str, ...], int],
    violation: str,
    test_id: str = "?",
) -> Arbitration:
    """The admissible order with the least test value.  Pure.

    ``views`` maps each distinct read view to its number of reads;
    ``violation`` is ``relaxation`` (the test value is the worst
    read's, minimised as a bottleneck) or ``inversion`` (the sum over
    reads).  A dynamic program over the down-closed sets ``S`` of
    placed writes — at most the product of (writes per agent + 1) —
    prices placing write ``x`` right after ``S``:

    * relaxation: every view whose last-placed logged id is ``x``
      skipped the writes of ``S`` it does not show;
    * inversion: every still-unplaced write a read shows before ``x``
      is one inverted pair per such read.

    The order is rebuilt by placing, from each set, the earliest
    ``(invoke, seq)`` write whose completion is minimal from that set.
    For inversions that is the first minimal order in ``(invoke,
    seq)`` terms, so a test the invocation order already values at
    the minimum keeps that order.  For relaxation it minimises, from
    every set on the way, the worst read still to come, so it may
    leave the invocation order even where that order reaches ``k``.
    Past :data:`MAX_ARBITRATION_SETS` sets it raises AnalysisError
    naming ``test_id``.
    """
    ordered = sorted(writes)
    index = {write.message_id: x for x, write in enumerate(ordered)}
    # pred[x]: the agent's earlier writes and every write that
    # responded before x was invoked (it sorts earlier, by invoke).
    pred: list[int] = []
    session: dict[str, int] = {}
    for x, write in enumerate(ordered):
        own = session.get(write.agent, 0)
        pred.append(own | sum(1 << y for y in range(x)
                              if ordered[y].time < write.invoke))
        session[write.agent] = own | 1 << x
    # Each view's logged ids as write indices, in view order.
    shown: dict[tuple[int, ...], int] = {}
    for view, reads in views.items():
        logged = tuple(index[m] for m in view if m in index)
        shown[logged] = shown.get(logged, 0) + reads
    if violation == "relaxation":
        # x -> the masks of the views that show x.
        masks: list[list[int]] = [[] for _ in ordered]
        for logged in shown:
            mask = sum(1 << x for x in logged)
            for x in logged:
                masks[x].append(mask)

        def cost(placed: int, x: int) -> int:
            return max(((placed & ~mask).bit_count()
                        for mask in masks[x]
                        if mask & ~placed == 1 << x), default=0)
        step = max
    else:
        # x -> (y's bit, reads showing y before x) per such y.
        before: list[dict[int, int]] = [{} for _ in ordered]
        for logged, reads in shown.items():
            for i, y in enumerate(logged):
                for x in logged[i + 1:]:
                    before[x][1 << y] = before[x].get(1 << y, 0) + reads

        def cost(placed: int, x: int) -> int:
            return sum(reads for bit, reads in before[x].items()
                       if not placed & bit)
        step = operator.add

    # Forward: the reachable down-closed sets, layer by layer, and the
    # writes each may place next.
    moves: dict[int, list[int]] = {}
    layers: list[list[int]] = []
    layer = [0]
    for _ in ordered:
        layers.append(layer)
        reached: dict[int, None] = {}
        for placed in layer:
            moves[placed] = fits = [
                x for x in range(len(ordered))
                if not placed >> x & 1 and pred[x] & ~placed == 0]
            for x in fits:
                reached[placed | 1 << x] = None
            if len(moves) + len(reached) > MAX_ARBITRATION_SETS:
                raise AnalysisError(
                    f"test {test_id}: {len(session)} sessions of "
                    f"{len(ordered)} writes reach over "
                    f"{MAX_ARBITRATION_SETS:,} arbitration sets")
        layer = list(reached)
    # Backward: the least cost of completing each set.
    full = (1 << len(ordered)) - 1
    best = {full: 0}
    for sets in reversed(layers):
        for placed in sets:
            best[placed] = min(
                step(cost(placed, x), best[placed | 1 << x])
                for x in moves[placed])
    # Rebuild: from each set, the earliest (invoke, seq) write whose
    # completion is minimal from there.
    order: list[str] = []
    placed = 0
    while placed != full:
        x = next(x for x in moves[placed]
                 if step(cost(placed, x), best[placed | 1 << x])
                 == best[placed])
        order.append(ordered[x].message_id)
        placed |= 1 << x
    return Arbitration(tuple(order))


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
    if spec.measure == "sum":
        return sum(sample.value for sample in samples)
    return max((sample.value for sample in samples), default=0)

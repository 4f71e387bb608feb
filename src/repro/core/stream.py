"""Canonical stream order: how a test's operations reach the checkers.

Every predicate, window and metric in this repository is written once,
as an incremental ``open_test`` / ``observe`` / ``close_test`` consumer
of one operation at a time.  A *finished* trace is simply a stream that
has ended: :func:`run_to_completion` sorts it into canonical order and
feeds it through — which is all ``checker.check(trace)``,
``divergence_windows``, ``evaluate_metrics`` and ``replay_trace`` do.
Live feeds reach the same consumers through the watermark sequencer
(:class:`repro.stream.ingest.OpIngest`), which restores the same order
with a bounded reorder buffer.

Canonical stream order
----------------------
    key(op) = (corrected_response(op), 0 if write else 1, record_seq)

i.e. reference-frame response time, writes before reads at exact time
ties, remaining ties broken by recording order.  Two properties make
incremental evaluation exact under this order:

* **Per-agent prefix property** — one agent's operations share one
  clock delta, so canonical order restricted to an agent is its local
  response order: session-scoped state (completed writes, seen-sets)
  is always complete when the agent's next operation arrives.
* **Cross-agent availability** — every predicate compares an operation
  only against operations whose corrected response is no later than
  its own corrected invocation (or response); those have already
  arrived, the writes-first tie-break covering the inclusive boundary.

The tie-break is part of the definition, not an implementation detail:
*an operation observes the writes that responded at or before its own
response instant, and a write observes only reads that responded
strictly before it.*  So a read issued at the very instant one of its
author's writes was acknowledged is held to that write (read-your-
writes, monotonic writes), while a zero-duration write landing exactly
on the response instant of its author's read does **not** follow that
read (generic-mode writes-follow-reads derives no dependency from it).
``tests/test_checker_oracle.py`` pins one example per affected
predicate.

State accounting
----------------
Every consumer reports ``state_size()`` — the number of retained state
atoms (stored views, session entries, pending observations) across its
open tests — and drops a test's state whole at ``close_test``.  The
engine sums these into its telemetry so the bounded-memory contract is
*measured*, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

from repro.core.trace import Operation, TestTrace, WriteOp

__all__ = ["TestMeta", "StreamOp", "stream_order", "run_to_completion"]


@dataclass(frozen=True)
class TestMeta:
    """Per-test metadata the checkers need before the first operation.

    Everything here is known at test open time: the runner estimates
    clock deltas and fixes the WFR trigger map *before* agents start
    logging, so no consumer ever waits on trace completion for
    metadata.
    """

    __test__ = False  # not a pytest class, despite the name

    test_id: str
    service: str
    test_type: str
    agents: tuple[str, ...]
    clock_deltas: dict[str, float] = field(default_factory=dict)
    delta_uncertainty: dict[str, float] = field(default_factory=dict)
    wfr_triggers: dict[str, frozenset[str]] = field(
        default_factory=dict
    )

    @classmethod
    def from_trace(cls, trace: TestTrace) -> "TestMeta":
        return cls(
            test_id=trace.test_id,
            service=trace.service,
            test_type=trace.test_type,
            agents=trace.agents,
            clock_deltas=dict(trace.clock_deltas),
            delta_uncertainty=dict(trace.delta_uncertainty),
            wfr_triggers=dict(trace.wfr_triggers),
        )

    def corrected(self, agent: str, local_time: float) -> float:
        """Translate an agent-local instant into reference time."""
        return local_time - self.clock_deltas.get(agent, 0.0)

    def agent_pairs(self) -> list[tuple[str, str]]:
        """All unordered agent pairs, in the trace's stable order."""
        return [
            (first, second)
            for i, first in enumerate(self.agents)
            for second in self.agents[i + 1:]
        ]


class StreamOp(NamedTuple):
    """One operation positioned in the canonical stream.

    The leading three fields *are* the canonical sort key, so stream
    ops order — in a sort, or in the live sequencer's heap — exactly
    as the stream delivers them; ``seq`` (the operation's recording
    index within its test) is unique, so a comparison never reaches
    the payload.
    """

    time: float  # corrected (reference-frame) response time
    is_read: bool  # False sorts first: writes precede reads at ties
    seq: int
    op: Operation
    invoke: float  # corrected invocation time

    @property
    def is_write(self) -> bool:
        return not self.is_read

    @property
    def agent(self) -> str:
        return self.op.agent


def stream_order(trace: TestTrace,
                 meta: TestMeta | None = None) -> list[StreamOp]:
    """A finished trace's operations as a canonical-order stream.

    Only operations of ``meta.agents`` are streamed — all of them for
    the trace's own metadata; a meta narrowed to one agent pair yields
    just that pair's operations (``seq`` stays the recording index in
    the full trace).
    """
    meta = meta or TestMeta.from_trace(trace)
    deltas = {agent: meta.clock_deltas.get(agent, 0.0)
              for agent in meta.agents}
    stream = [
        StreamOp(op.response_local - delta,
                 not isinstance(op, WriteOp), seq, op,
                 op.invoke_local - delta)
        for seq, op in enumerate(trace.operations)
        if (delta := deltas.get(op.agent)) is not None
    ]
    stream.sort()
    return stream


def run_to_completion(consumers: Sequence[Any], trace: TestTrace,
                      meta: TestMeta | None = None) -> list:
    """Evaluate a finished trace: the online consumers, run to the end.

    Opens the test on every consumer, feeds each the operations of
    ``stream_order(trace, meta)`` and returns their ``close_test``
    results, in consumer order.  This is the one open → observe →
    close driver; the whole-trace entry points are thin wrappers.
    """
    meta = meta or TestMeta.from_trace(trace)
    for consumer in consumers:
        consumer.open_test(meta)
    for sop in stream_order(trace, meta):
        for consumer in consumers:
            consumer.observe(meta, sop)
    return [consumer.close_test(meta) for consumer in consumers]

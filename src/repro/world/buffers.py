"""Columnar per-cohort operation buffers.

At 10^5+ concurrent sessions the dominant allocation cost of a world
run would be per-operation trace objects held open for the lifetime of
every session.  Instead each cohort accumulates its operations into a
:class:`CohortBuffer` — parallel ``array``/list columns behind
``__slots__`` — and the frozen :class:`~repro.core.trace.WriteOp` /
:class:`~repro.core.trace.ReadOp` objects are materialized only at the
moment the cohort retires and its trace is flushed through the stream
engine.  The buffer for a 8-op cohort is a few hundred bytes; the op
objects exist only for the microseconds the flush takes.

Materialization sorts on a **value key** — ``(invoke, write-first,
agent, detail)`` — not on arrival order.  Arrival interleaving at the
home replica can depend on how bus deliveries and local events share a
shard simulator; the value key is a pure function of the operations
themselves, so the trace (and therefore every downstream digest) is
identical however the world was cut into shards.
"""

from __future__ import annotations

from array import array

from repro.core.trace import Operation, ReadOp, TestTrace, WriteOp

__all__ = ["CohortBuffer"]

_WRITE = 0
_READ = 1


class CohortBuffer:
    """Columnar accumulator for one cohort's operations."""

    __slots__ = ("cohort_id", "expected", "_kinds", "_agents",
                 "_details", "_invokes", "_responses")

    def __init__(self, cohort_id: int, expected: int) -> None:
        self.cohort_id = cohort_id
        #: Total operations the cohort will log before it can retire.
        self.expected = expected
        self._kinds = array("b")
        self._agents: list[str] = []
        #: message_id for writes; the observed id tuple for reads.
        self._details: list[str | tuple[str, ...]] = []
        self._invokes = array("d")
        self._responses = array("d")

    def __len__(self) -> int:
        return len(self._kinds)

    @property
    def complete(self) -> bool:
        return len(self._kinds) >= self.expected

    def add_write(self, agent: str, message_id: str, invoke: float,
                  response: float) -> None:
        self._kinds.append(_WRITE)
        self._agents.append(agent)
        self._details.append(message_id)
        self._invokes.append(invoke)
        self._responses.append(response)

    def add_read(self, agent: str, observed: tuple[str, ...],
                 invoke: float, response: float) -> None:
        self._kinds.append(_READ)
        self._agents.append(agent)
        self._details.append(observed)
        self._invokes.append(invoke)
        self._responses.append(response)

    # -- Materialization ----------------------------------------------

    def materialize(self, test_id: str, service: str,
                    test_type: str = "test1") -> TestTrace:
        """Build the cohort's trace; op objects are born here."""
        details = self._details
        # One decorated sort over the columns: the value key, then the
        # row (unique, so ties keep arrival order and nothing after it
        # is ever compared), then what the op is built from.
        rows = sorted(zip(
            self._invokes, self._kinds, self._agents,
            [detail if isinstance(detail, str) else "|".join(detail)
             for detail in details],
            range(len(details)), details, self._responses,
        ))
        operations: list[Operation] = [
            WriteOp(agent, detail, invoke, response, invoke, response)
            if kind == _WRITE else
            ReadOp(agent, tuple(detail), invoke, response, invoke,
                   response)
            for invoke, kind, agent, _, _, detail, response in rows
        ]
        agents = tuple(sorted(set(self._agents)))
        trace = TestTrace(
            test_id=test_id,
            service=service,
            test_type=test_type,
            agents=agents,
            clock_deltas={agent: 0.0 for agent in agents},
            delta_uncertainty={agent: 0.0 for agent in agents},
        )
        trace.extend(operations)
        return trace

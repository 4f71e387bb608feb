"""The operation-trace model that anomaly checkers run over.

The paper's §III frames a service interaction as *write* requests
(insert an event, e.g. post a message) and *read* requests (return the
current sequence of events).  A measurement test produces, per agent, a
log of these operations with their invocation/response times and, for
reads, the observed sequence of message ids.  :class:`TestTrace` bundles
one test's logs together with everything the offline analysis needs:

* the per-agent **clock deltas** estimated by the coordinator before the
  test (local = reference + delta), used to place operations from
  different agents on one timeline;
* the **writes-follow-reads trigger map** — the paper's Test 1 only
  treats (M2 -> M3) and (M4 -> M5) as causal pairs because those are the
  writes its design makes reactions to observations (§IV);
* optional **ground-truth times** filled in by the simulator so the
  methodology itself can be validated against perfect knowledge (a
  luxury the paper's live measurements did not have).

Times are in seconds.  ``*_local`` fields are readings of the issuing
agent's (possibly skewed) clock; ``corrected_*`` methods translate them
to the coordinator's reference frame using the estimated deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import AnalysisError

__all__ = ["WriteOp", "ReadOp", "Operation", "TestTrace"]


@dataclass(slots=True)
class WriteOp:
    """One write request issued by an agent.

    Attributes
    ----------
    agent:
        Name of the issuing agent (e.g. ``"oregon"``).
    message_id:
        Identifier of the inserted event (e.g. ``"M3"``); unique within
        a test.
    invoke_local / response_local:
        Invocation and response instants on the agent's local clock.
    true_invoke / true_response:
        Ground-truth instants (simulator only; None on real traces).
    """

    agent: str
    message_id: str
    invoke_local: float
    response_local: float
    true_invoke: float | None = None
    true_response: float | None = None

    def __post_init__(self) -> None:
        if self.response_local < self.invoke_local:
            raise AnalysisError(
                f"write {self.message_id} responded before invocation"
            )

    @property
    def is_write(self) -> bool:
        return True


@dataclass(slots=True)
class ReadOp:
    """One read request and the sequence of message ids it returned."""

    agent: str
    observed: tuple[str, ...]
    invoke_local: float
    response_local: float
    true_invoke: float | None = None
    true_response: float | None = None

    def __post_init__(self) -> None:
        if self.response_local < self.invoke_local:
            raise AnalysisError("read responded before invocation")
        if len(set(self.observed)) != len(self.observed):
            raise AnalysisError(
                f"read returned duplicate message ids: {self.observed!r}"
            )

    @property
    def is_write(self) -> bool:
        return False

    def saw(self, message_id: str) -> bool:
        """True if this read's sequence contains ``message_id``."""
        return message_id in self.observed

    def position(self, message_id: str) -> int:
        """Index of ``message_id`` in the observed sequence."""
        return self.observed.index(message_id)


#: Union type alias for items in a trace.
Operation = WriteOp | ReadOp


@dataclass
class TestTrace:
    """Everything one test instance logged, ready for offline analysis."""

    # Not a pytest test class, despite the name (it models one paper
    # "test instance").
    __test__ = False

    test_id: str
    service: str
    test_type: str
    agents: tuple[str, ...]
    operations: list[Operation] = field(default_factory=list)
    #: Estimated clock deltas: local_time = reference_time + delta.
    clock_deltas: dict[str, float] = field(default_factory=dict)
    #: Half-RTT uncertainty of each estimated delta (seconds).
    delta_uncertainty: dict[str, float] = field(default_factory=dict)
    #: Explicit causal pairs for the writes-follow-reads checker:
    #: message_id -> ids it causally depends on.  Empty means "derive
    #: dependencies generically from the author's prior reads".
    wfr_triggers: dict[str, frozenset[str]] = field(default_factory=dict)
    #: Live per-operation observers, notified by :meth:`record` in
    #: recording order.  Observability only: excluded from equality so
    #: a subscribed trace still compares equal to an unsubscribed one.
    observers: list[Callable[["TestTrace", Operation], None]] = field(
        default_factory=list, compare=False, repr=False
    )

    # -- Recording ---------------------------------------------------------

    def subscribe(
        self, observer: Callable[["TestTrace", Operation], None]
    ) -> None:
        """Call ``observer(trace, op)`` for every future recorded op."""
        self.observers.append(observer)

    def record(self, operation: Operation) -> None:
        """Append one logged operation."""
        if operation.agent not in self.agents:
            raise AnalysisError(
                f"operation from unknown agent {operation.agent!r}; "
                f"trace agents are {self.agents!r}"
            )
        self.operations.append(operation)
        for observer in self.observers:
            observer(self, operation)

    def extend(self, operations: Iterable[Operation]) -> None:
        for operation in operations:
            self.record(operation)

    # -- Clock correction ----------------------------------------------------

    def corrected(self, agent: str, local_time: float) -> float:
        """Translate an agent-local instant into reference time."""
        return local_time - self.clock_deltas.get(agent, 0.0)

    def corrected_response(self, operation: Operation) -> float:
        """Reference-frame response time of an operation."""
        return self.corrected(operation.agent, operation.response_local)

    def corrected_invoke(self, operation: Operation) -> float:
        """Reference-frame invocation time of an operation."""
        return self.corrected(operation.agent, operation.invoke_local)

    # -- Views over the log ---------------------------------------------------

    def writes(self) -> list[WriteOp]:
        """All writes, in reference-time invocation order."""
        ops = [op for op in self.operations if isinstance(op, WriteOp)]
        ops.sort(key=self.corrected_invoke)
        return ops

    def reads(self) -> list[ReadOp]:
        """All reads, in reference-time response order."""
        ops = [op for op in self.operations if isinstance(op, ReadOp)]
        ops.sort(key=self.corrected_response)
        return ops

    def writes_by(self, agent: str) -> list[WriteOp]:
        """``agent``'s writes in its session (local invocation) order."""
        ops = [op for op in self.operations
               if isinstance(op, WriteOp) and op.agent == agent]
        ops.sort(key=lambda op: op.invoke_local)
        return ops

    def reads_by(self, agent: str) -> list[ReadOp]:
        """``agent``'s reads in its session (local response) order."""
        ops = [op for op in self.operations
               if isinstance(op, ReadOp) and op.agent == agent]
        ops.sort(key=lambda op: op.response_local)
        return ops

    def session(self, agent: str) -> list[Operation]:
        """All of ``agent``'s operations in local invocation order."""
        ops = [op for op in self.operations if op.agent == agent]
        ops.sort(key=lambda op: op.invoke_local)
        return ops

    def message_ids(self) -> set[str]:
        """Ids of every write issued in this test."""
        return {op.message_id for op in self.operations
                if isinstance(op, WriteOp)}

    def agent_pairs(self) -> Iterator[tuple[str, str]]:
        """All unordered agent pairs, in a stable order."""
        for i, first in enumerate(self.agents):
            for second in self.agents[i + 1:]:
                yield (first, second)

    def __len__(self) -> int:
        return len(self.operations)

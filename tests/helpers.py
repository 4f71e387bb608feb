"""Shared helpers: hand-crafted traces and from-scratch stream oracles."""

from __future__ import annotations

# Oracles must not go through RandomSource, the code path under test.
from random import Random  # repro-lint: disable=DET001

from repro.core import ReadOp, TestTrace, WriteOp
from repro.errors import AnalysisError
from repro.sim.random_source import derive_seed

__all__ = ["DEFAULT_AGENTS", "write", "read", "make_trace",
           "assert_well_formed", "scratch_stream"]

DEFAULT_AGENTS = ("oregon", "tokyo", "ireland")


def write(agent: str, message_id: str, at: float,
          response: float | None = None) -> WriteOp:
    """A write invoked at ``at`` that completes 0.1s later by default."""
    return WriteOp(
        agent=agent,
        message_id=message_id,
        invoke_local=at,
        response_local=response if response is not None else at + 0.1,
    )


def read(agent: str, observed: tuple[str, ...] | list[str], at: float,
         response: float | None = None) -> ReadOp:
    """A read invoked at ``at`` that completes 0.1s later by default."""
    return ReadOp(
        agent=agent,
        observed=tuple(observed),
        invoke_local=at,
        response_local=response if response is not None else at + 0.1,
    )


def make_trace(operations, agents=DEFAULT_AGENTS, test_id="t-1",
               service="unit", test_type="test1", clock_deltas=None,
               wfr_triggers=None) -> TestTrace:
    """Bundle operations into a validated TestTrace."""
    trace = TestTrace(
        test_id=test_id,
        service=service,
        test_type=test_type,
        agents=tuple(agents),
        clock_deltas=clock_deltas or {},
        wfr_triggers=wfr_triggers or {},
    )
    trace.extend(operations)
    return trace


def assert_well_formed(trace: TestTrace) -> None:
    """Raise :class:`AnalysisError` if a write id repeats or a read
    observed an id no write of this test produced."""
    written: set[str] = set()
    for op in trace.writes():
        if op.message_id in written:
            raise AnalysisError(
                f"message id {op.message_id!r} written twice")
        written.add(op.message_id)
    for op in trace.reads():
        unknown = set(op.observed) - written
        if unknown:
            raise AnalysisError(
                f"read by {op.agent!r} observed message ids never "
                f"written in this test: {sorted(unknown)!r}")


def scratch_stream(seed: int, name: str) -> Random:
    """The stream ``RandomSource(seed).stream(name)`` must equal,
    re-derived from scratch."""
    return Random(derive_seed(seed, name))

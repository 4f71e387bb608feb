"""Discrete-event simulation kernel.

This subpackage provides the substrate everything else runs on: a
deterministic event loop with virtual time (:class:`Simulator`),
single-assignment result cells (:class:`Future` and combinators),
generator-based processes (:class:`Process`, :func:`spawn`), drifting
host clocks (:class:`DriftingClock`), and named deterministic random
streams (:class:`RandomSource`).

The kernel is intentionally free of any knowledge about networks or
services; those layers live in :mod:`repro.net` and
:mod:`repro.services`.
"""

from repro.sim.clock import DriftingClock, PerfectClock, make_host_clock
from repro.sim.event_loop import Simulator
from repro.sim.future import AllOf, AnyOf, Future, Quorum
from repro.sim.process import Process, spawn
from repro.sim.random_source import RandomSource

__all__ = [
    "Simulator",
    "Future",
    "AllOf",
    "AnyOf",
    "Quorum",
    "Process",
    "spawn",
    "DriftingClock",
    "PerfectClock",
    "make_host_clock",
    "RandomSource",
]

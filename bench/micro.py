"""Isolated micro-drivers: one layer's public functions and nothing else.

Each returns the cost of one operation, best of three batches, so a
layer's unit cost can be read without the rest of the stack around
it.  They run after the traced unit, with every seam restored, and
:func:`isolated` reports them at reference machine speed.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.net import JitterParams, LatencyModel, Network, paper_topology
from repro.net.topology import OREGON, VIRGINIA
from repro.obs import MetricsRegistry
from repro.sim import RandomSource, Simulator, spawn

from bench.calibration import kernel_seconds, reference_scale

__all__ = ["isolated", "sim_event_us", "sim_switch_us", "net_rpc_us",
           "router_resolve_us", "counter_inc_ns"]

_BATCHES = 3


def _best_per_op(batch: Callable[[], int]) -> float:
    """Seconds per operation of the fastest of a few batches."""
    best = float("inf")
    for _ in range(_BATCHES):
        start = time.perf_counter()
        operations = batch()
        best = min(best, (time.perf_counter() - start) / operations)
    return best


def sim_event_us(events: int = 20_000) -> float:
    """``schedule_after`` + ``run`` per event, microseconds."""
    def batch() -> int:
        sim = Simulator()
        for index in range(events):
            sim.schedule_after(index * 1e-3, int)
        sim.run()
        return events

    return _best_per_op(batch) * 1e6


def sim_switch_us(switches: int = 10_000) -> float:
    """One generator-process resumption (two processes ping-pong)."""
    def batch() -> int:
        sim = Simulator()

        def player():
            for _ in range(switches // 2):
                yield 1.0

        spawn(sim, player, name="ping")
        spawn(sim, player, name="pong", start_delay=0.5)
        sim.run()
        return switches

    return _best_per_op(batch) * 1e6


def net_rpc_us(calls: int = 3_000) -> float:
    """One echo RPC (request + reply + timeout event) over the paper
    topology, microseconds."""
    def batch() -> int:
        sim = Simulator()
        topology = paper_topology()
        topology.place_host("client", OREGON)
        topology.place_host("server", VIRGINIA)
        network = Network(sim, LatencyModel(
            topology, RandomSource(1).child("net"), JitterParams()))
        network.attach("client")
        network.attach("server",
                       rpc_handler=lambda payload, src: payload)
        for index in range(calls):
            network.rpc("client", "server", index)
        sim.run()
        return calls

    return _best_per_op(batch) * 1e6


def router_resolve_us(routes: list[tuple], rounds: int = 2_000) -> float:
    """``Router.resolve`` per lookup over the (router, method, path)
    triples the traced unit resolved, microseconds."""
    if not routes:
        return 0.0

    def batch() -> int:
        for _ in range(rounds):
            for router, method, path in routes:
                router.resolve(method, path)
        return rounds * len(routes)

    return _best_per_op(batch) * 1e6


def counter_inc_ns(increments: int = 50_000) -> float:
    """One labelled ``Counter.inc``, nanoseconds."""
    def batch() -> int:
        counter = MetricsRegistry(lambda: 0.0).counter(
            "bench.increments", host="a", method="GET")
        for _ in range(increments):
            counter.inc()
        return increments

    return _best_per_op(batch) * 1e9


def isolated(layers: frozenset[str], routes: list[tuple],
             kernel_iterations: int) -> dict:
    """The isolated metrics of the ``layers`` a workload crosses, 0 for
    the rest, at reference machine speed."""
    drivers = {
        "sim.event_us": ("sim", sim_event_us),
        "sim.switch_us": ("sim", sim_switch_us),
        "net.rpc_us": ("net", net_rpc_us),
        "webapi.resolve_us": ("webapi",
                              lambda: router_resolve_us(routes)),
        "obs.counter_inc_ns": ("obs", counter_inc_ns),
    }
    before = kernel_seconds(kernel_iterations)
    values = {name: driver() if layer in layers else 0.0
              for name, (layer, driver) in drivers.items()}
    scale = reference_scale(before, kernel_seconds(kernel_iterations))
    return {name: value * scale for name, value in values.items()}

"""A partitioned simulated world for million-session campaigns.

The paper's subjects serve millions of concurrent sessions; this
package is how the reproduction reaches that scale inside one
scenario.  A world is split into N shards, each owning an
author-sharded slice of sessions and replicas, connected by a
deterministic cross-shard message bus whose lamport-style
``(time, origin, seq)`` total order makes serial and sharded
execution byte-identical — the contract CI enforces through
``tools/gates.py world``.

Layering:

* :mod:`repro.world.spec` — the frozen description of a world
  (scale, placement, workload, propagation, partition nemeses);
* :mod:`repro.world.bus` — the total-ordered message bus; the *only*
  channel between replicas (lint rule DET007 rejects bypasses);
* :mod:`repro.world.buffers` — columnar ``__slots__`` per-cohort op
  buffers, materialized to trace objects only at flush;
* :mod:`repro.world.model` — replicas: feeds, cohort assembly,
  author-sharded rumor relay, state retirement;
* :mod:`repro.world.engine` — the epoch-barrier driver flushing
  retired cohorts through one bounded-memory stream engine.
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".scenario": ("world_from_scenario",),
    ".spec": ("WorldSpec", "WorldPartition"),
    ".bus": ("WorldBus", "BusMessage"),
    ".buffers": ("CohortBuffer",),
    ".model": ("WorldReplica",),
    ".engine": ("WorldEngine", "WorldResult", "run_world"),
})

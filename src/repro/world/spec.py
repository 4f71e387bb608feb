"""Declarative description of a partitioned simulated world.

A :class:`WorldSpec` fixes everything about a sharded-world run except
the seed: how many sessions the world carries, how many logical
replicas serve them, how the replicas are cut into physical shards,
the session workload shape, the rumor-propagation model, and any
partition nemeses.  The spec is a frozen value object so it can be
digested (:meth:`WorldSpec.digest`) and echoed into results — two runs
with equal spec + seed are byte-identical, whatever the shard count.

Placement vocabulary (all derived, never stored):

* a **session** ``s`` of cohort ``c`` is *homed* on a logical replica
  chosen by a stable BLAKE2b hash (:func:`author_shard`) — a function
  of the session identity and ``replicas`` only;
* a **cohort** of ``cohort_size`` sessions (one writer, the rest
  readers) is one measurement test; its trace is assembled on the
  writer's home replica;
* a **shard** owns a contiguous block of replicas
  (:meth:`replica_shard`); because every ordering decision keys on
  logical replica indices, the replica -> shard cut is invisible to
  results — the property ``tools/gates.py world`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro._hash import blake2b
from repro.errors import SimulationError
from repro.fleet.digest import canonical_json, sha256_hex

__all__ = ["WorldPartition", "WorldSpec", "author_shard"]


def author_shard(author: str, shards: int) -> int:
    """The stable home shard of ``author`` among ``shards`` slots.

    BLAKE2b over the author string — never Python's ``hash``, which
    varies per process (``PYTHONHASHSEED``) and would break the
    serial == sharded byte identity.  The slot depends only on
    ``(author, shards)``, so re-cutting a world onto a different
    number of physical shards moves no author.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    digest = blake2b(
        author.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % shards


@dataclass(frozen=True)
class WorldPartition:
    """A network partition nemesis spanning a set of replicas.

    While active (``start <= send_time < end``), any bus message
    crossing the cut — origin and target on opposite sides of
    ``side`` — is deferred: it is re-transmitted at heal time with its
    original latency.  Deferral is a pure function of the endpoints and
    times, so partitioned runs stay byte-identical across shard counts.
    """

    start: float
    end: float
    side: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.end <= self.start or self.start < 0:
            raise SimulationError(
                f"partition window [{self.start}, {self.end}) is empty "
                "or negative"
            )
        if not self.side:
            raise SimulationError("partition side must be non-empty")
        ordered = tuple(sorted(set(int(i) for i in self.side)))
        if ordered != self.side:
            object.__setattr__(self, "side", ordered)

    def crosses(self, origin: int, target: int) -> bool:
        return (origin in self.side) != (target in self.side)

    def active_at(self, send_time: float) -> bool:
        return self.start <= send_time < self.end


@dataclass(frozen=True)
class WorldSpec:
    """One sharded world: scale, placement, workload, propagation."""

    name: str = "world"
    #: Total concurrent sessions carried by the world.
    sessions: int = 1000
    #: Logical replicas — placement keys on this, never on ``shards``.
    replicas: int = 6
    #: Physical shards the replicas are cut into (1 = serial world).
    shards: int = 1
    #: Sessions per measurement cohort (1 writer + readers).
    cohort_size: int = 4
    writes_per_session: int = 2
    reads_per_session: int = 2
    #: Session start times spread uniformly over this window (s).
    arrival_window: float = 50.0
    #: Median think time between a session's operations (s).
    think_median: float = 40.0
    #: Fixed local service time (response - invoke) for every op (s).
    service_time: float = 2.0
    #: Median one-hop rumor propagation latency (s), lognormal.
    hop_median: float = 30.0
    hop_sigma: float = 0.4
    #: Ring-relay fanout for author-sharded rumor dissemination.
    fanout: int = 2
    #: Barrier quantum: the bus floor latency and epoch length (s).
    epoch: float = 10.0
    partitions: tuple[WorldPartition, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise SimulationError("world needs at least one session")
        if self.replicas < 2:
            raise SimulationError("world needs at least two replicas")
        if not 1 <= self.shards <= self.replicas:
            raise SimulationError(
                f"shards must be in [1, replicas={self.replicas}], "
                f"got {self.shards}"
            )
        if self.cohort_size < 2:
            raise SimulationError(
                "cohorts need a writer and at least one reader"
            )
        if self.writes_per_session < 1 or self.reads_per_session < 1:
            raise SimulationError(
                "sessions need at least one write and one read"
            )
        if self.epoch <= 0:
            raise SimulationError("epoch must be positive")
        if min(self.arrival_window, self.think_median,
               self.service_time, self.hop_median) <= 0:
            raise SimulationError("world time constants must be positive")
        if self.hop_sigma < 0:
            raise SimulationError("hop_sigma must be >= 0")
        if self.fanout < 1:
            raise SimulationError("fanout must be >= 1")
        if isinstance(self.partitions, list):
            object.__setattr__(self, "partitions",
                               tuple(self.partitions))
        for partition in self.partitions:
            bad = [i for i in partition.side
                   if not 0 <= i < self.replicas]
            if bad:
                raise SimulationError(
                    f"partition side indexes {bad} outside "
                    f"[0, {self.replicas})"
                )

    # -- Derived placement (logical — never topology-dependent) --------

    @property
    def cohort_count(self) -> int:
        return -(-self.sessions // self.cohort_size)

    def cohort_sessions(self, cohort: int) -> int:
        """Number of sessions in ``cohort`` (the last may be short)."""
        start = cohort * self.cohort_size
        return min(self.cohort_size, self.sessions - start)

    def home_replica(self, cohort: int) -> int:
        """The writer's (and the cohort trace's) home replica."""
        return author_shard(f"{self.name}/c{cohort}", self.replicas)

    def reader_replica(self, cohort: int, member: int,
                       home: int | None = None) -> int:
        """Home replica of reader ``member`` (1-based) of ``cohort``.

        Always distinct from the cohort home so cross-replica (and,
        depending on the cut, cross-shard) reads actually occur.  A
        caller placing a whole cohort passes the ``home`` it already
        hashed.
        """
        if home is None:
            home = self.home_replica(cohort)
        offset = author_shard(
            f"{self.name}/c{cohort}/s{member}", self.replicas - 1
        )
        return (home + 1 + offset) % self.replicas

    def replica_shard(self, replica: int) -> int:
        """The physical shard hosting ``replica`` (contiguous blocks)."""
        return replica * self.shards // self.replicas

    def with_topology(self, shards: int) -> "WorldSpec":
        """The same logical world on a different physical cut."""
        return replace(self, shards=shards)

    def digest(self) -> str:
        """Content digest binding results to the spec that made them."""
        return sha256_hex(canonical_json(self))

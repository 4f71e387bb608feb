"""Quorum replication (Dynamo-style), for the storage-system extension.

The paper's conclusions propose extending the methodology "so it can be
applied to large-scale storage systems", and its related work discusses
quorum stores at length (Wada et al., Bermbach & Tai, Bailis et al.'s
probabilistically bounded staleness).  This substrate supplies that
target: an N-replica store with configurable read/write quorum sizes,
so campaigns can measure how the anomaly signature moves along the
R/W knob — the classic result being that ``R + W > N`` buys
read-your-writes/monotonic behaviour at higher latency, while
``R = W = 1`` maximizes staleness.

Design: each client region has a *front-end coordinator* that fans
every operation out to all N replicas over the simulated network.

* **Write**: sent to all replicas; acknowledged to the client after
  ``write_quorum`` replica acks.  Remaining replicas apply the write
  when their copy arrives (read repair is implicit: every replica
  eventually receives every write unless partitioned, in which case
  periodic re-offers from the front-ends heal the gap).
* **Read**: version snapshots requested from all replicas; the
  response merges the first ``read_quorum`` snapshots (union, ordered
  by origin timestamp) — exactly the freshest-of-R semantics quorum
  stores provide.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.replication.ordering import timestamp_key
from repro.replication.store import VersionedStore, check_params
from repro.sim.event_loop import Simulator
from repro.sim.future import Future, Quorum
from repro.sim.random_source import RandomSource

__all__ = ["QuorumParams", "QuorumReplica", "QuorumStore"]


@dataclass(frozen=True)
class QuorumParams:
    """Quorum configuration: N replicas, R/W quorum sizes."""

    replicas: int = 3
    read_quorum: int = 1
    write_quorum: int = 1
    #: Per-operation RPC timeout (seconds).
    rpc_timeout: float = 5.0
    #: Median / log-sigma of a replica's apply (storage commit)
    #: latency.  This is what the quorum knob trades against: a W-ack
    #: write has committed on W replicas while the stragglers may lag
    #: by seconds, which R=1 readers observe as staleness.
    apply_delay_median: float = 0.25
    apply_delay_sigma: float = 1.0
    #: Version/entry retention horizon (seconds).
    retention: float = 600.0

    def __post_init__(self) -> None:
        check_params(
            self,
            positive=("rpc_timeout", "apply_delay_median", "retention"),
            sigmas=("apply_delay_sigma",),
            counts=("replicas", "read_quorum", "write_quorum"),
        )
        for name in ("read_quorum", "write_quorum"):
            if getattr(self, name) > self.replicas:
                raise ConfigurationError(
                    f"QuorumParams.{name} must be <= replicas="
                    f"{self.replicas}, got {getattr(self, name)!r}"
                )

    @property
    def is_strict(self) -> bool:
        """True when R + W > N (overlapping quorums)."""
        return self.read_quorum + self.write_quorum > self.replicas


class QuorumReplica:
    """One storage replica: applies writes, serves version snapshots.

    An "apply" commits after a sampled storage latency; the RPC ack is
    sent at commit time, so a W-quorum write really means W replicas
    have made the write visible.
    """

    def __init__(self, sim: Simulator, network: Network, host: str,
                 params: QuorumParams, rng: RandomSource) -> None:
        self._sim = sim
        self.host = host
        self._params = params
        self._rng = rng
        self._store = VersionedStore(now_fn=lambda: sim.now,
                                     retention=params.retention)
        network.attach(host, rpc_handler=self._handle_rpc)

    @property
    def store(self) -> VersionedStore:
        return self._store

    def _handle_rpc(self, payload, src):
        kind = payload.get("kind")
        if kind == "apply":
            ack: Future = Future(name=f"apply.{self.host}")
            delay = self._rng.lognormal(
                f"apply.{self.host}",
                median=self._params.apply_delay_median,
                sigma=self._params.apply_delay_sigma,
            )
            self._sim.schedule_after(
                delay, self._commit, payload, ack
            )
            return ack
        if kind == "snapshot":
            entries = self._store.entries()
            return {"entries": [(e.message_id, e.origin_ts)
                                for e in entries]}
        raise ValueError(f"unexpected payload {payload!r}")

    def _commit(self, payload, ack: Future) -> None:
        self._store.insert(
            payload["message_id"], payload["author"],
            payload["origin_ts"],
            sort_key=timestamp_key(payload["origin_ts"], 0,
                                   payload["message_id"]),
        )
        ack.resolve({"ack": True})


class QuorumStore:
    """The N-replica deployment plus per-region front-end coordinators.

    Front-ends are plain network hosts (one per client region) that
    issue the quorum fan-outs; clients talk to their local front-end
    through the web-API layer above.
    """

    def __init__(self, sim: Simulator, network: Network,
                 params: QuorumParams, replica_hosts: list[str],
                 frontend_hosts: list[str], rng: RandomSource) -> None:
        if len(replica_hosts) != params.replicas:
            raise ConfigurationError(
                f"expected {params.replicas} replica hosts, got "
                f"{len(replica_hosts)}"
            )
        self._sim = sim
        self._network = network
        self.params = params
        self.replicas = [
            QuorumReplica(sim, network, host, params,
                          rng.child(host))
            for host in replica_hosts
        ]
        self._replica_hosts = list(replica_hosts)
        for host in frontend_hosts:
            if not network.is_attached(host):
                network.attach(host)
        self._frontends = list(frontend_hosts)

    # -- Operations (issued from a front-end host) -----------------------

    def write(self, frontend: str, message_id: str,
              author: str) -> Future:
        """Fan a write out; resolves (origin_ts) after W acks."""
        self._check_frontend(frontend)
        origin_ts = self._sim.now
        acks = [
            self._network.rpc(frontend, host, {
                "kind": "apply",
                "message_id": message_id,
                "author": author,
                "origin_ts": origin_ts,
            }, timeout=self.params.rpc_timeout)
            for host in self._replica_hosts
        ]
        done: Future = Future(name=f"qwrite.{message_id}")
        Quorum(acks, k=self.params.write_quorum).add_callback(
            lambda q: done.fail(q.exception) if q.failed
            else done.resolve(origin_ts)
        )
        return done

    def read(self, frontend: str) -> Future:
        """Merge the first R snapshots; resolves to ordered ids."""
        self._check_frontend(frontend)
        snapshots = [
            self._network.rpc(frontend, host, {"kind": "snapshot"},
                              timeout=self.params.rpc_timeout)
            for host in self._replica_hosts
        ]
        done: Future = Future(name="qread")
        Quorum(snapshots, k=self.params.read_quorum).add_callback(
            lambda q: done.fail(q.exception) if q.failed
            else done.resolve(self._merge(q.value))
        )
        return done

    @staticmethod
    def _merge(snapshots: list[dict]) -> tuple[str, ...]:
        """Union of R snapshots, ordered by origin timestamp."""
        seen: dict[str, float] = {}
        for snapshot in snapshots:
            for message_id, origin_ts in snapshot["entries"]:
                seen.setdefault(message_id, origin_ts)
        ordered = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
        return tuple(message_id for message_id, _ts in ordered)

    def _check_frontend(self, frontend: str) -> None:
        if frontend not in self._frontends:
            raise ConfigurationError(
                f"unknown front-end {frontend!r}"
            )

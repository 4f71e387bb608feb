"""Synchronous primary-backup replication (the Blogger substrate).

The paper found **no anomalies of any type** in Blogger (§V) and
concludes it "appears to be offering a form of strong consistency",
which it calls a sensible choice given Blogger's write rate.  The
matching textbook design is a single primary that orders all writes and
acknowledges only after every backup has applied them; reads are served
by the primary (linearizable) or by any backup (safe here because
backups are never behind an acknowledged write).

Replication runs over the simulated network as real RPCs, so the write
latency a client observes includes the full primary-to-backup round
trip — which is exactly the performance cost the paper's trade-off
discussion attributes to strong consistency.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.replication.ordering import timestamp_key
from repro.replication.store import VersionedStore
from repro.sim.event_loop import Simulator
from repro.sim.future import AllOf, Future

__all__ = ["PrimaryBackupGroup"]

#: Seconds of version history the primary and every backup keep.
RETENTION = 600.0


class PrimaryBackupGroup:
    """A primary plus zero or more synchronously-updated backups."""

    def __init__(self, sim: Simulator, network: Network, primary_host: str,
                 backup_hosts: list[str] | None = None) -> None:
        self._sim = sim
        self._network = network
        self.primary_host = primary_host
        self.backup_hosts = list(backup_hosts or [])
        if primary_host in self.backup_hosts:
            raise ConfigurationError(
                "primary cannot also be listed as a backup"
            )
        self._primary_store = VersionedStore(
            now_fn=lambda: sim.now, retention=RETENTION
        )
        self._backup_stores: dict[str, VersionedStore] = {}
        network.attach(primary_host)  # participates as an RPC client
        for host in self.backup_hosts:
            store = VersionedStore(now_fn=lambda: sim.now,
                                   retention=RETENTION)
            self._backup_stores[host] = store
            network.attach(
                host,
                rpc_handler=self._make_backup_handler(store),
            )

    def _make_backup_handler(self, store: VersionedStore):
        def handler(payload, src):
            if payload.get("kind") != "apply":
                raise ValueError(f"unexpected payload {payload!r}")
            store.insert(
                payload["message_id"], payload["author"],
                payload["origin_ts"],
                sort_key=timestamp_key(
                    payload["origin_ts"], 0, payload["message_id"]
                ),
            )
            return {"ack": True}
        return handler

    # -- Client-facing operations ------------------------------------------

    def write(self, client: str, message_id: str) -> Future:
        """Apply a write at the primary; resolves once all backups ack.

        The resolved value is the write's origin timestamp.
        """
        origin_ts = self._sim.now
        obs = self._network.obs
        span = None
        if obs is not None:
            obs.metrics.counter("replication.writes_total",
                                host=self.primary_host).inc()
            if obs.tracer.keeps:
                span = obs.tracer.start("replication.write",
                                        host=self.primary_host)
        self._primary_store.insert(
            message_id, client, origin_ts,
            sort_key=timestamp_key(origin_ts, 0, message_id),
        )
        acks = [
            self._network.rpc(self.primary_host, host, {
                "kind": "apply",
                "message_id": message_id,
                "author": client,
                "origin_ts": origin_ts,
            })
            for host in self.backup_hosts
        ]
        done = Future(name=f"write {message_id}")
        AllOf(acks).add_callback(
            lambda all_acks: (
                done.fail(all_acks.exception)
                if all_acks.failed else done.resolve(origin_ts)
            )
        )
        if span is not None:
            done.add_callback(
                lambda fut: obs.tracer.finish(
                    span, backups=len(acks), ok=not fut.failed
                )
            )
        return done

    def read(self) -> tuple[str, ...]:
        """Serve a linearizable read from the primary."""
        return self._primary_store.view_now()

    def read_backup(self, host: str) -> tuple[str, ...]:
        """Read a backup's current state (for tests and diagnostics)."""
        return self._backup_stores[host].view_now()

    @property
    def store(self) -> VersionedStore:
        return self._primary_store

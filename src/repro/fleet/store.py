"""Persistent artifact store: shard records + campaign manifest.

Layout under one output directory::

    <root>/
      manifest.json           # spec hash + per-shard status/digests
      shards/
        0000_blogger_s1.jsonl     # one canonical-JSON record per line
      traces/
        0000_blogger_s1.ops.jsonl # op stream (streaming mode only)

Each shard file is the JSONL stream of its campaign's test records
(the :func:`repro.io.record_to_dict` encoding, one canonical-JSON
line per record).  The manifest binds the store to one
:class:`~repro.fleet.spec.FleetSpec` via its spec hash and records,
per shard, a completion status and the SHA-256 digest of the shard
file's bytes.

That digest is what makes checkpoint/resume safe: a shard counts as
done only if its manifest entry says ``complete`` *and* the file on
disk still hashes to the recorded digest.  Anything else — missing
entry, missing file, truncated or tampered bytes — classifies the
shard as work to (re)do.  The manifest and shards are written
temp-then-rename (:func:`repro.io.replace_file`), so a kill mid-update
never leaves a half-written manifest claiming shards it does not have.

This is the one digest-tracked checkpoint in the repository: a fleet
run (``fleet --store-out``), each hunt of the serve daemon and each
rung of a calibration search (``calibrate --store-out DIR`` keeps rung
``r`` in ``DIR/r<r>``) all resume through it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro._hash import tagged_sha256
from repro.errors import FleetError
from repro.fleet.digest import canonical_json
from repro.io import replace_file

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.spec import FleetSpec, ShardJob

__all__ = ["ArtifactStore", "STORE_VERSION", "MANIFEST_NAME"]

STORE_VERSION = 1
MANIFEST_NAME = "manifest.json"


class ArtifactStore:
    """One fleet run's on-disk artifacts, with resume bookkeeping."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._manifest: dict | None = None

    # -- Paths ----------------------------------------------------------

    @property
    def shards_dir(self) -> Path:
        return self.root / "shards"

    def shard_path(self, shard_id: str) -> Path:
        return self.shards_dir / f"{shard_id}.jsonl"

    @property
    def traces_dir(self) -> Path:
        """Per-shard operation streams (``stream=True`` fleets only)."""
        return self.root / "traces"

    def trace_path(self, shard_id: str) -> Path:
        """The shard's trace-event JSONL (``stream --from-trace``
        input).  Auxiliary artifact: written as ops happen, not
        digest-tracked, never consulted by resume."""
        return self.traces_dir / f"{shard_id}.ops.jsonl"

    @property
    def obs_dir(self) -> Path:
        """Per-shard observability snapshots (metrics + spans)."""
        return self.root / "obs"

    def obs_path(self, shard_id: str) -> Path:
        """The shard's obs export (digest-validated JSONL).

        Telemetry artifact: self-validating via its embedded digest
        header, not part of the resume contract — a missing or
        damaged obs file never forces a shard re-run.
        """
        return self.obs_dir / f"{shard_id}.obs.jsonl"

    # -- Manifest -------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _load_manifest(self) -> dict | None:
        path = self.manifest_path
        if not path.is_file():
            return None
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(manifest, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            raise FleetError(
                f"unreadable fleet manifest {path}: {exc}"
            ) from exc
        version = manifest.get("store_version")
        if version != STORE_VERSION:
            raise FleetError(
                f"unsupported fleet store version {version!r} in "
                f"{path} (expected {STORE_VERSION})"
            )
        for key, kind in (("spec_hash", str), ("shards", dict)):
            if not isinstance(manifest.get(key), kind):
                raise FleetError(
                    f"malformed fleet manifest {path}: "
                    f"{key!r} is missing or not a {kind.__name__}"
                )
        return manifest

    def _write_manifest(self) -> None:
        assert self._manifest is not None
        replace_file(self.manifest_path,
                     (json.dumps(self._manifest, indent=1,
                                 sort_keys=True),))

    @property
    def manifest(self) -> dict:
        if self._manifest is None:
            loaded = self._load_manifest()
            if loaded is None:
                raise FleetError(
                    f"fleet store {self.root} has no manifest; call "
                    "initialize(spec) first"
                )
            self._manifest = loaded
        return self._manifest

    def initialize(self, spec: "FleetSpec") -> None:
        """Bind the store to ``spec``, creating or validating it.

        A fresh directory gets a new manifest; an existing store must
        have been created by a spec with the same hash, otherwise its
        shards would be silently misattributed to the wrong campaigns.
        """
        spec_hash = spec.spec_hash()
        scenario_digests = {
            scenario.name: scenario.digest()
            for scenario in spec.scenarios
        }
        existing = self._load_manifest()
        if existing is not None:
            if existing["spec_hash"] != spec_hash:
                # Scenario content binds spec_hash, so a mismatch is
                # most often an edited scenario file: name both sides'
                # content digests to make that diagnosable from the
                # error alone.
                stored = existing.get("scenario_digests", {})
                detail = (
                    f" (store scenario digests {stored!r}, "
                    f"requested scenario digests "
                    f"{scenario_digests!r})"
                    if stored or scenario_digests else ""
                )
                raise FleetError(
                    f"fleet store {self.root} belongs to spec "
                    f"{existing['spec_hash'][:12]}..., not "
                    f"{spec_hash[:12]}...{detail}; use a fresh "
                    "output directory per spec"
                )
            self._manifest = existing
            return
        self._manifest = {
            "store_version": STORE_VERSION,
            "spec_hash": spec_hash,
            "scenario_digests": scenario_digests,
            "services": list(spec.services),
            "seeds": list(spec.seeds),
            "total_shards": spec.total_shards,
            "shards": {},
        }
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self._write_manifest()

    # -- Shard records --------------------------------------------------

    def write_shard(self, job: "ShardJob",
                    jsonable_records: Iterable[dict],
                    obs: dict | None = None) -> str:
        """Persist one completed shard; returns the recorded digest.

        The shard file is written in full before the manifest entry is
        committed, so an interruption between the two leaves the shard
        classified ``missing`` (no entry), never falsely complete.
        ``obs`` (a :meth:`repro.obs.ObsContext.snapshot`) is archived
        alongside as a digest-validated JSONL export.
        """
        records = list(jsonable_records)
        text = "".join(canonical_json(record) + "\n"
                       for record in records)
        replace_file(self.shard_path(job.shard_id), (text,))
        if obs is not None:
            from repro.obs.export import export_snapshot

            export_snapshot(obs, self.obs_path(job.shard_id))
        digest = tagged_sha256(text.encode())
        self.manifest["shards"][job.shard_id] = {
            "status": "complete", "digest": digest,
            "records": len(records), "service": job.service,
            "seed": job.seed, "label": job.label,
            "obs": obs is not None,
        }
        self._write_manifest()
        return digest

    def shard_state(self, shard_id: str) -> str:
        """``complete`` | ``missing`` | ``corrupt`` for one shard.

        ``corrupt`` means the manifest claims completion but the bytes
        on disk no longer hash to the recorded digest (truncated write,
        tampering, partial copy); the executor re-runs such shards.
        """
        return self._read_shard(shard_id)[0]

    def _read_shard(self, shard_id: str) -> tuple[str, bytes]:
        """The shard's state and the bytes it was judged on (empty
        unless ``complete``)."""
        entry = self.manifest["shards"].get(shard_id)
        if entry is None or entry.get("status") != "complete":
            return "missing", b""
        path = self.shard_path(shard_id)
        if not path.is_file():
            return "missing", b""
        data = path.read_bytes()
        if tagged_sha256(data) != entry.get("digest"):
            return "corrupt", b""
        return "complete", data

    def completed_shards(self) -> list[str]:
        """Shard ids that are complete *and* digest-valid, sorted."""
        return sorted(
            shard_id for shard_id in self.manifest["shards"]
            if self.shard_state(shard_id) == "complete"
        )

    def load_shard_records(self, shard_id: str) -> list[dict]:
        """The JSON-safe record dicts of one digest-valid shard,
        parsed from the very bytes whose digest was checked."""
        state, data = self._read_shard(shard_id)
        if state != "complete":
            raise FleetError(
                f"shard {shard_id!r} is {state} in store {self.root}"
            )
        return [json.loads(line) for line in data.decode().split("\n")
                if line.strip()]

    def load_shard_obs(self, shard_id: str) -> dict | None:
        """One shard's obs snapshot, or None if absent or damaged.

        Obs exports are telemetry, not results: a missing or
        digest-invalid file degrades to None rather than failing the
        resume (the records digest alone decides shard completeness).
        """
        from repro.errors import AnalysisError
        from repro.obs.export import load_snapshot

        path = self.obs_path(shard_id)
        if not path.is_file():
            return None
        try:
            return load_snapshot(path)
        except AnalysisError:
            return None

    def merged_obs(self, shard_ids: Iterable[str]
                   ) -> tuple[dict, list[str]]:
        """The snapshots of ``shard_ids`` merged in the order given,
        and the ids whose snapshot is absent or damaged (left out of
        the merge)."""
        from repro.obs.context import merge_obs_snapshots

        snapshots: list[dict] = []
        missing: list[str] = []
        for shard_id in shard_ids:
            snapshot = self.load_shard_obs(shard_id)
            if snapshot is None:
                missing.append(shard_id)
            else:
                snapshots.append(snapshot)
        return merge_obs_snapshots(snapshots), missing

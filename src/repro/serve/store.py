"""Persistent hunt store: lifecycle state + event feed + artifacts.

Layout under one service root::

    <root>/
      hunts/
        h0000/
          hunt.json      # HuntState snapshot (one-payload digest JSONL)
          events.jsonl   # append-only lifecycle feed (cursor = seq)
          store/         # the hunt's fleet ArtifactStore
            manifest.json
            shards/...

The discipline is the :class:`~repro.fleet.store.ArtifactStore`'s,
applied to serving state:

* ``hunt.json`` is one-payload digest JSONL (:mod:`repro.io`), so
  truncated writes or tampering classify the hunt as corrupt instead
  of silently feeding the scheduler a wrong state.  Updates go
  write-temp-then-rename.
* ``events.jsonl`` is append-only with a per-hunt monotonic ``seq``;
  the HTTP event feed pages it with an ``after`` cursor, which is also
  what makes follow-mode (poll for ``seq > last``) race-free.  An
  append validates the whole feed the first time it touches it and
  whenever the file is not the size this store left it at; otherwise
  it costs one ``stat`` and one write.
* ``store/`` is a plain fleet artifact store bound to the hunt's
  ``spec_hash`` — byte-identical to what a direct ``run_fleet`` with
  the same spec writes, which the parity gate asserts.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Iterator

from repro.errors import (
    AnalysisError,
    FleetError,
    InvalidRequestError,
    NotFoundError,
)
from repro.fleet.digest import canonical_json
from repro.fleet.store import ArtifactStore
from repro.io import read_digest_jsonl, write_digest_jsonl
from repro.serve.hunt import HuntState

__all__ = ["HuntStore", "HUNT_STORE_VERSION"]

HUNT_STORE_VERSION = 2

HUNT_FILE = "hunt.json"
EVENTS_FILE = "events.jsonl"
ARTIFACTS_DIR = "store"


class HuntStore:
    """Every hunt the campaign service knows about, on disk."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: hunt_id -> (feed size in bytes, last seq) as of this
        #: store's last validated read or append of that feed.
        self._feeds: dict[str, tuple[int, int]] = {}
        #: The API thread and the scheduling pass both append.
        self._append_lock = threading.Lock()

    # -- Paths ----------------------------------------------------------

    @property
    def hunts_dir(self) -> Path:
        return self.root / "hunts"

    def hunt_dir(self, hunt_id: str) -> Path:
        return self.hunts_dir / hunt_id

    def state_path(self, hunt_id: str) -> Path:
        return self.hunt_dir(hunt_id) / HUNT_FILE

    def events_path(self, hunt_id: str) -> Path:
        return self.hunt_dir(hunt_id) / EVENTS_FILE

    def artifact_root(self, hunt_id: str) -> Path:
        return self.hunt_dir(hunt_id) / ARTIFACTS_DIR

    def artifact_store(self, hunt_id: str) -> ArtifactStore:
        """The hunt's fleet artifact store (shards + manifest)."""
        return ArtifactStore(self.artifact_root(hunt_id))

    # -- Hunt state -----------------------------------------------------

    def _states(self) -> Iterator[HuntState]:
        """Every persisted hunt's state, in directory-name order."""
        if self.hunts_dir.is_dir():
            for entry in sorted(self.hunts_dir.iterdir()):
                if (entry / HUNT_FILE).is_file():
                    yield self.load(entry.name)

    def hunt_ids(self) -> list[str]:
        """Every persisted hunt id, in submission (seq) order."""
        return [hunt_id for _, hunt_id in sorted(
            (state.seq, state.hunt_id) for state in self._states())]

    def next_seq(self) -> int:
        """The submission sequence number for a new hunt."""
        return max((state.seq for state in self._states()),
                   default=-1) + 1

    def exists(self, hunt_id: str) -> bool:
        return self.state_path(hunt_id).is_file()

    def save(self, state: HuntState) -> None:
        """Persist one hunt's state (write-temp-then-rename)."""
        write_digest_jsonl(self.state_path(state.hunt_id),
                           (state.to_dict(),), kind="hunt",
                           schema_version=HUNT_STORE_VERSION)

    def load(self, hunt_id: str) -> HuntState:
        """One hunt's digest-validated state."""
        path = self.state_path(hunt_id)
        if not path.is_file():
            raise NotFoundError(f"no hunt {hunt_id!r}")
        try:
            (payload,) = read_digest_jsonl(
                path, kind="hunt", schema_version=HUNT_STORE_VERSION)
            return HuntState.from_dict(payload)
        except AnalysisError as exc:  # its message names the path
            raise FleetError(f"unreadable hunt state {exc}") from exc
        except (OSError, KeyError, TypeError, ValueError,
                InvalidRequestError) as exc:
            raise FleetError(f"unreadable hunt state {path}: "
                             f"{type(exc).__name__}: {exc}") from exc

    # -- Event feed -----------------------------------------------------

    def append_event(self, hunt_id: str, event: str,
                     **fields: Any) -> dict[str, Any]:
        """Append one lifecycle event; returns the written record.

        ``seq`` is assigned here — strictly monotonic per hunt — so a
        feed consumer's ``after`` cursor is a plain integer compare.
        """
        self.hunt_dir(hunt_id).mkdir(parents=True, exist_ok=True)
        path = self.events_path(hunt_id)
        with self._append_lock:
            try:
                size = path.stat().st_size
            except FileNotFoundError:
                size = 0
            known_size, last = self._feeds.get(hunt_id, (None, -1))
            if known_size != size:
                # First touch, or someone else wrote: trust nothing.
                last = -1
                for record in self._read_events(hunt_id):
                    last = record["seq"]
            record = {"seq": last + 1, "event": event,
                      "hunt_id": hunt_id, **fields}
            line = (canonical_json(record) + "\n").encode("utf-8")
            with path.open("ab") as handle:
                handle.write(line)
            self._feeds[hunt_id] = (size + len(line), last + 1)
        return record

    def _read_events(self, hunt_id: str) -> Iterator[dict[str, Any]]:
        """Every record of the feed file, validated line by line.

        A line that does not decode to an object with an integer
        ``seq`` (a kill mid-append leaves such a tail) fails closed:
        skipping it would hand out its ``seq`` twice.
        """
        path = self.events_path(hunt_id)
        if not path.is_file():
            return
        with path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict) or \
                            not isinstance(record.get("seq"), int):
                        raise ValueError(
                            "not an object with an integer seq")
                except ValueError as exc:
                    raise FleetError(
                        f"unreadable hunt event {path}:{number}: "
                        f"{exc}"
                    ) from exc
                yield record

    def events(self, hunt_id: str,
               after: int = -1) -> Iterator[dict[str, Any]]:
        """Lifecycle events with ``seq > after``, in order."""
        if not self.exists(hunt_id):
            raise NotFoundError(f"no hunt {hunt_id!r}")
        for record in self._read_events(hunt_id):
            if record["seq"] > after:
                yield record

    # -- Artifact browsing ----------------------------------------------

    def artifact_names(self, hunt_id: str) -> list[str]:
        """Relative paths of every artifact file, sorted."""
        if not self.exists(hunt_id):
            raise NotFoundError(f"no hunt {hunt_id!r}")
        root = self.artifact_root(hunt_id)
        if not root.is_dir():
            return []
        return sorted(
            str(path.relative_to(root))
            for path in root.rglob("*") if path.is_file()
        )

    def artifact_bytes(self, hunt_id: str, name: str) -> bytes:
        """One artifact file's raw bytes (path-traversal safe)."""
        root = self.artifact_root(hunt_id).resolve()
        candidate = (root / name).resolve()
        if root not in candidate.parents and candidate != root:
            raise NotFoundError(f"no artifact {name!r}")
        if not candidate.is_file():
            raise NotFoundError(f"no artifact {name!r}")
        return candidate.read_bytes()

"""Persistent trial store: digest-validated batches + search manifest.

Layout under one output directory::

    <root>/
      manifest.json        # search key + per-batch status/digests
      trials/
        r0.jsonl           # digest-validated JSONL, one trial per line
      fleet/
        r0/                # the rung's fleet ArtifactStore (records,
                           # obs snapshots, its own manifest)

The store shares the fleet :class:`~repro.fleet.store.ArtifactStore`'s
manifest core (:class:`~repro.fleet.store.ManifestStore`), so the
contract is the same batch-for-shard: the manifest binds the directory
to exactly one search via
:func:`~repro.calibrate.search.search_key`, each batch
file is written through :func:`repro.io.write_digest_jsonl` (canonical
JSON, embedded digest header) *and* its byte digest is recorded in the
manifest, and a batch counts as done only while both digests still
verify.  Manifest updates are write-to-temp-then-rename, so a kill
mid-update can never leave a manifest claiming trials it lost.

Resume therefore works at two granularities: a digest-valid batch is
returned without re-running anything, while a damaged or missing batch
falls back to the rung's fleet store, which resumes shard-by-shard.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import CalibrationError
from repro.fleet.store import ManifestStore
from repro.io import read_digest_jsonl, write_digest_jsonl

__all__ = ["TrialStore", "TRIAL_STORE_VERSION", "TRIALS_KIND"]

TRIAL_STORE_VERSION = 1
#: ``kind`` tag of the digest-validated batch files.
TRIALS_KIND = "calibrate-trials"
TRIALS_SCHEMA_VERSION = 1


class TrialStore(ManifestStore):
    """One calibration search's on-disk trials, with resume."""

    _error = CalibrationError
    _version = TRIAL_STORE_VERSION
    _binding = "search_key"
    _units = "batches"
    _noun = "trial store"
    _manifest_noun = "trial-store manifest"
    _version_noun = "trial-store version"
    _run_noun = "search"
    _initialize_arg = "search_key"

    # -- Paths ----------------------------------------------------------

    @property
    def trials_dir(self) -> Path:
        return self.root / "trials"

    def batch_path(self, batch_id: str) -> Path:
        return self.trials_dir / f"{batch_id}.jsonl"

    _unit_path = batch_path

    def fleet_dir(self, batch_id: str) -> Path:
        """The rung's fleet artifact-store directory."""
        return self.root / "fleet" / batch_id

    # -- Manifest -------------------------------------------------------

    @property
    def search_key(self) -> str:
        return self.manifest["search_key"]

    def initialize(self, search_key: str) -> None:
        """Bind the store to one search, creating or validating it."""
        self._bind(search_key, self.trials_dir)

    # -- Batches --------------------------------------------------------

    def write_batch(self, batch_id: str, rung: int, num_tests: int,
                    trial_payloads: list[dict]) -> str:
        """Persist one completed rung; returns the recorded digest.

        The batch file is fully written before its manifest entry is
        committed, so an interruption between the two leaves the batch
        classified ``missing``, never falsely complete.
        """
        path = self.batch_path(batch_id)
        write_digest_jsonl(path, trial_payloads, kind=TRIALS_KIND,
                           schema_version=TRIALS_SCHEMA_VERSION)
        return self._commit_unit(batch_id, trials=len(trial_payloads),
                                 rung=rung, num_tests=num_tests)

    def batch_state(self, batch_id: str) -> str:
        """``complete`` | ``missing`` | ``corrupt`` for one batch."""
        return self._unit_state(batch_id)

    def completed_batches(self) -> list[str]:
        """Batch ids that are complete *and* digest-valid, sorted."""
        return self._completed_units()

    def load_batch(self, batch_id: str) -> list[dict]:
        """The trial payloads of one digest-valid batch, in order."""
        state = self.batch_state(batch_id)
        if state != "complete":
            raise CalibrationError(
                f"batch {batch_id!r} is {state} in store {self.root}"
            )
        return read_digest_jsonl(self.batch_path(batch_id),
                                 kind=TRIALS_KIND,
                                 schema_version=TRIALS_SCHEMA_VERSION)

"""The campaign service: hunts end to end, minus the transport.

:class:`CampaignService` is the application core the HTTP layer wraps:
submit/pause/resume/cancel hunts, drive scheduling passes over the
worker pool, and answer status/results/artifact queries.  It owns a
:class:`~repro.serve.store.HuntStore` (all state is on disk, so a
service restart resumes exactly where the last pass checkpointed) and
delegates execution to :func:`~repro.serve.scheduler.run_hunts`.

The determinism boundary runs through this class: everything *above*
it (request handling, scheduling order, pause timing) may depend on
wall clock and thread timing; everything *below* a shard boundary is a
pure function of the hunt spec.  Consequently a hunt's artifact store
and merged ``fleet_signature`` are byte-identical to a direct
``run_fleet`` of the same spec — whatever the pool width or the
pause/resume history.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Callable, Iterator

from repro.errors import InvalidRequestError, NotFoundError
from repro.fleet.executor import DEFAULT_MAX_RETRIES, ShardRun, ShardRunner
from repro.fleet.store import ArtifactStore
from repro.obs.events import (
    HuntEvent,
    HuntStateChanged,
    HuntSubmitted,
    ShardEvent,
    feed_record,
)
from repro.serve.hunt import HuntSpec, HuntState
from repro.serve.scheduler import HuntOutcome, run_hunts
from repro.serve.store import HuntStore

__all__ = ["CampaignService"]

EventFn = Callable[[ShardEvent | HuntEvent], None]


class CampaignService:
    """Hunt lifecycle + scheduling over one on-disk hunt store."""

    def __init__(self, root: str, *,
                 workers: int = 1,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 on_event: EventFn | None = None) -> None:
        self.store = HuntStore(root)
        self.workers = workers
        self.max_retries = max_retries
        self._on_event = on_event or (lambda event: None)
        #: hunt_id -> "pause" | "cancel", read by the scheduler's
        #: control poll; written by the API thread mid-pass.
        self._control: dict[str, str] = {}
        #: Hunts a scheduling pass holds: it may still append to their
        #: feeds, whatever their status says.
        self._passing: set[str] = set()
        self._lock = threading.Lock()

    # -- Submission and lifecycle ---------------------------------------

    def submit(self, spec: HuntSpec, owner: str = "") -> HuntState:
        """Queue a new hunt; returns its persisted state."""
        with self._lock:
            seq = self.store.next_seq()
            state = HuntState(
                hunt_id=f"h{seq:04d}", spec=spec, seq=seq,
                shards_total=spec.total_shards, owner=owner,
            )
            self.store.save(state)
            self._emit(HuntSubmitted(hunt_id=state.hunt_id,
                                     services=spec.services,
                                     shards=state.shards_total))
        return state

    def hunt(self, hunt_id: str) -> HuntState:
        return self.store.load(hunt_id)

    def hunts(self) -> list[HuntState]:
        """Every hunt, in submission order."""
        return [self.store.load(hunt_id)
                for hunt_id in self.store.hunt_ids()]

    def pause(self, hunt_id: str) -> HuntState:
        """Park a hunt's remaining shards (in-flight ones finish)."""
        with self._lock:
            state = self.store.load(hunt_id)
            if state.status == "running":
                # A pass may be mid-flight; the scheduler parks the
                # queue at its next control poll, and the pass-end
                # bookkeeping reconciles the progress counters.
                self._control[hunt_id] = "pause"
            return self._transition(state, "paused")

    def resume(self, hunt_id: str) -> HuntState:
        """Re-queue a paused hunt (completed shards stay done)."""
        with self._lock:
            state = self.store.load(hunt_id)
            self._control.pop(hunt_id, None)
            if state.status != "paused":
                raise InvalidRequestError(
                    f"hunt {hunt_id!r} is {state.status}, not paused"
                )
            return self._transition(state, "queued")

    def cancel(self, hunt_id: str) -> HuntState:
        """Abandon a hunt's remaining shards permanently."""
        with self._lock:
            state = self.store.load(hunt_id)
            if state.status == "running":
                self._control[hunt_id] = "cancel"
            return self._transition(state, "cancelled")

    def _transition(self, state: HuntState, target: str,
                    **changes: Any) -> HuntState:
        advanced = state.advance(target, **changes)
        # Record first: whoever reads the new state finds its record
        # already in the feed (see feed_closed).
        self._emit(HuntStateChanged(
            hunt_id=state.hunt_id, previous=state.status,
            status=advanced.status,
            signature=advanced.fleet_signature,
            error=advanced.error,
        ))
        self.store.save(advanced)
        return advanced

    # -- Scheduling passes ----------------------------------------------

    def runnable_hunts(self) -> list[HuntState]:
        """Hunts a pass would pick up: queued, plus ``running`` ones
        left behind by a crashed pass (checkpoint/resume)."""
        return [state for state in self.hunts()
                if state.status in ("queued", "running")]

    def run_pending(self, *,
                    shard_runner: ShardRunner | None = None,
                    shard_timeout: float | None = None
                    ) -> list[HuntOutcome]:
        """One scheduling pass: drain every runnable hunt's shards.

        Returns the per-hunt outcomes; states, events, and artifact
        stores are persisted as a side effect.  Safe to call in a
        loop — a pass with nothing runnable returns empty.
        """
        with self._lock:
            pending = self.runnable_hunts()
            runs = []
            for state in pending:
                if state.status == "queued":
                    state = self._transition(state, "running")
                spec = state.spec.fleet_spec()
                artifact_store = self.store.artifact_store(
                    state.hunt_id
                )
                artifact_store.initialize(spec)
                runs.append(ShardRun(
                    jobs=tuple(spec.jobs()),
                    store=artifact_store,
                    max_retries=self.max_retries,
                    stream=state.spec.stream,
                    hunt_id=state.hunt_id,
                ))
            self._passing.update(run.hunt_id for run in runs)
        if not runs:
            return []
        try:
            outcomes = run_hunts(
                runs, workers=self.workers, shard_runner=shard_runner,
                shard_timeout=shard_timeout,
                control=self._control_verdict, on_event=self._emit,
            )
            with self._lock:
                for outcome in outcomes:
                    self._finalize(outcome)
        finally:
            with self._lock:
                self._passing.difference_update(
                    run.hunt_id for run in runs)
        return outcomes

    def _control_verdict(self, hunt_id: str) -> str:
        return self._control.get(hunt_id, "run")

    def _finalize(self, outcome: HuntOutcome) -> None:
        state = self.store.load(outcome.hunt_id)
        self._control.pop(outcome.hunt_id, None)
        done_count = len(self.store.artifact_store(
            outcome.hunt_id
        ).completed_shards())
        changes: dict[str, Any] = {
            "shards_done": done_count,
            "retries": state.retries + outcome.retries,
        }
        if outcome.status == "done":
            changes["fleet_signature"] = outcome.signature()
        elif outcome.status == "failed":
            changes["error"] = outcome.error
        if state.status == outcome.status:
            # The API already moved the state (pause/cancel landed
            # mid-pass); just persist the progress counters.
            self.store.save(replace(state, **changes))
            return
        try:
            self._transition(state, outcome.status, **changes)
        except InvalidRequestError:
            # The API raced the pass into a state the outcome cannot
            # legally follow (e.g. cancelled just as the last shard
            # landed).  The API-chosen state stands; keep the
            # counters.
            self.store.save(replace(state, **changes))

    # -- Queries ---------------------------------------------------------

    def _completed_shards(self, hunt_id: str
                          ) -> tuple[ArtifactStore, list[str]]:
        """The hunt's artifact store and its complete shard ids, in
        spec merge order.

        The store is created by the first scheduling pass; before that
        every shard is pending and the list is empty.
        """
        state = self.store.load(hunt_id)
        artifact_store = self.store.artifact_store(hunt_id)
        if not artifact_store.manifest_path.is_file():
            return artifact_store, []
        return artifact_store, [
            job.shard_id for job in state.spec.fleet_spec().jobs()
            if artifact_store.shard_state(job.shard_id) == "complete"
        ]

    def hunt_result_items(self, hunt_id: str) -> list[dict[str, Any]]:
        """Completed test records, flat, in spec merge order.

        Each item carries its shard id and the record's JSON-safe
        encoding, keyed for cursor pagination as
        ``<shard_id>/<test_id>``.
        """
        artifact_store, shard_ids = self._completed_shards(hunt_id)
        return [
            {"key": f"{shard_id}/{record['test_id']}",
             "shard_id": shard_id, "record": record}
            for shard_id in shard_ids
            for record in artifact_store.load_shard_records(shard_id)
        ]

    def hunt_obs(self, hunt_id: str) -> dict[str, Any]:
        """The hunt's merged obs snapshot, in spec merge order.

        Completed shards' obs exports are merged by
        :meth:`ArtifactStore.merged_obs`, the loader
        ``repro-consistency obs`` runs over an artifact directory, so
        the served snapshot is byte-identical to the offline one.  Shards
        whose telemetry is absent or damaged are listed in
        ``missing`` — obs files degrade, they never fail the query.
        """
        artifact_store, shard_ids = self._completed_shards(hunt_id)
        snapshot, missing = artifact_store.merged_obs(shard_ids)
        return {
            "hunt_id": hunt_id,
            "shards": [shard_id for shard_id in shard_ids
                       if shard_id not in missing],
            "missing": missing,
            "snapshot": snapshot,
        }

    def events(self, hunt_id: str,
               after: int = -1) -> Iterator[dict[str, Any]]:
        return self.store.events(hunt_id, after=after)

    def feed_closed(self, hunt_id: str) -> bool:
        """Whether no record will be appended to the hunt's feed any
        more: it is terminal and no pass holds it.  Read before the
        feed, it makes a drained page of that feed final."""
        return self.store.load(hunt_id).is_terminal and \
            hunt_id not in self._passing

    def artifact_names(self, hunt_id: str) -> list[str]:
        return self.store.artifact_names(hunt_id)

    def artifact_bytes(self, hunt_id: str, name: str) -> bytes:
        if not self.store.exists(hunt_id):
            raise NotFoundError(f"no hunt {hunt_id!r}")
        return self.store.artifact_bytes(hunt_id, name)

    def _emit(self, event: ShardEvent | HuntEvent) -> None:
        """Append ``event`` to its hunt's feed, then forward it: the
        feed and ``on_event`` see one sequence."""
        self.store.append_event(**feed_record(event))
        self._on_event(event)

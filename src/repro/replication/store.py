"""Versioned write stores shared by all replication substrates.

A replica's externally visible state is a *sequence of writes* (§III:
"read requests ... return a sequence of events that have been inserted
into the state").  Because our service models serve reads from stale
backends and lagged followers, a replica must answer not only "what is
your state now" but "what was your state at time t".  :class:`VersionedStore`
therefore records a new immutable version (an ordered tuple of message
ids) after every mutation, and :meth:`VersionedStore.view_at` retrieves
the version in force at any instant by binary search.

Memory stays bounded across long campaigns via a retention horizon:
versions older than ``retention`` seconds are pruned, as are entries for
writes older than the horizon (the measurement harness only ever asks
about the current test's messages, mirroring how the paper's agents
parse only their own posts out of API responses).

The order is *maintained, not rebuilt*: live entries sit in one list
kept sorted by ``(sort_key, seq)`` — a new write is bisected into
place, a repair removes and re-inserts one entry, and entries leave
through an age heap when they cross the horizon.  A mutation therefore
costs one tuple copy of that list (the new immutable version) instead
of a sort plus a retention scan, and :meth:`VersionedStore.entries`
costs a list copy.  ``seq`` breaks ``sort_key`` ties, which is the
order a stable sort over arrival-ordered entries produces.

:func:`check_params` is the one range check every substrate's
``*Params`` runs in ``__post_init__``.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = ["StoredWrite", "VersionedStore", "DoublingPrune",
           "check_params"]


def check_params(params: Any, *, probabilities: tuple[str, ...] = (),
                 positive: tuple[str, ...] = (),
                 sigmas: tuple[str, ...] = (),
                 counts: tuple[str, ...] = ()) -> None:
    """Fail closed on a substrate ``*Params`` field outside its range.

    Probabilities lie in [0, 1]; cadences, medians, means, delays,
    timeouts and retention are > 0 (a zero cadence reschedules itself
    at one instant forever); log-sigmas are >= 0; counts are >= 1.
    NaN passes none of these.  The error names the class and field.
    """
    for names, holds, rule in (
        (probabilities, lambda value: 0.0 <= value <= 1.0, "in [0, 1]"),
        (positive, lambda value: value > 0, "> 0"),
        (sigmas, lambda value: value >= 0, ">= 0"),
        (counts, lambda value: value >= 1, ">= 1"),
    ):
        for name in names:
            value = getattr(params, name)
            if not holds(value):
                raise ConfigurationError(
                    f"{type(params).__name__}.{name} must be {rule}, "
                    f"got {value!r}"
                )


class DoublingPrune:
    """Amortised pruning of a side table that grows with the writes.

    A substrate may keep per-write bookkeeping (the eventual store's
    backend windows) that is dead weight once the write is older than
    the retention horizon.  Scanning the table for stale values on every
    insert is O(n) per insert for as long as it legitimately holds
    that many live keys, so a scan runs only when the table has
    reached ``floor`` keys *and* doubled since the last scan left it:
    O(1) amortised per insert, and the table stays within 2x of its
    live size (or under ``floor``).  A scan deletes exactly the keys
    whose value ``is_stale`` — when it runs is the only thing the
    schedule decides.
    """

    def __init__(self, floor: int) -> None:
        self._floor = floor
        self._scan_at = floor

    def __call__(self, table: dict,
                 is_stale: Callable[[Any], bool]) -> None:
        if len(table) < self._scan_at:
            return
        for key in [key for key, value in table.items()
                    if is_stale(value)]:
            del table[key]
        self._scan_at = max(self._floor, 2 * len(table))


@dataclass
class StoredWrite:
    """One write as a replica stores it.

    Attributes
    ----------
    message_id:
        The client-visible event id.
    author:
        The writing client.
    origin_ts:
        Timestamp assigned where the write was first accepted (the
        service-side creation time used by ordering policies).
    seq:
        Arrival sequence number at *this* replica — monotonically
        increasing; breaks ``sort_key`` ties.
    sort_key:
        The key this replica currently orders the write by.  Eventual
        substrates mutate this when a late write is "repaired" into its
        canonical position.
    """

    message_id: str
    author: str
    origin_ts: float
    seq: int
    sort_key: tuple


def _position(entry: StoredWrite) -> tuple[tuple, int]:
    """Total order of live entries: ``sort_key``, arrival breaks ties."""
    return (entry.sort_key, entry.seq)


class VersionedStore:
    """An ordered write store that remembers every past version.

    Parameters
    ----------
    now_fn:
        Zero-argument callable returning the current (ground-truth)
        time; used to stamp versions and drive retention.
    retention:
        Seconds of version/entry history to keep.  Must comfortably
        exceed a test's duration plus the largest read staleness.
    """

    def __init__(self, now_fn: Callable[[], float],
                 retention: float) -> None:
        if retention <= 0:
            raise ConfigurationError("retention must be positive")
        self._now_fn = now_fn
        self._retention = retention
        self._entries: dict[str, StoredWrite] = {}
        #: The live entries, always sorted by :func:`_position`.
        self._order: list[StoredWrite] = []
        #: Min-heap of (origin_ts, seq, message_id) over the live
        #: entries: retention is by origin timestamp, which no ordering
        #: policy is obliged to follow.
        self._by_age: list[tuple[float, int, str]] = []
        self._next_seq = 0
        #: Parallel arrays: version i was in force from _version_times[i].
        self._version_times: list[float] = []
        self._versions: list[tuple[str, ...]] = []

    # -- Mutation -----------------------------------------------------------

    def insert(self, message_id: str, author: str, origin_ts: float,
               sort_key: tuple) -> StoredWrite:
        """Insert a write at ``sort_key``; duplicate ids are ignored.

        Idempotence matters because anti-entropy may deliver the same
        write through several paths.
        """
        existing = self._entries.get(message_id)
        if existing is not None:
            return existing
        entry = StoredWrite(
            message_id=message_id,
            author=author,
            origin_ts=origin_ts,
            seq=self._next_seq,
            sort_key=sort_key,
        )
        self._next_seq += 1
        self._entries[message_id] = entry
        bisect.insort(self._order, entry, key=_position)
        heapq.heappush(self._by_age, (origin_ts, entry.seq, message_id))
        self._record_version()
        return entry

    def reorder(self, message_id: str, sort_key: tuple) -> None:
        """Change one write's position (eventual-repair support)."""
        entry = self._entries.get(message_id)
        if entry is None:
            return  # pruned or never arrived; nothing to repair
        if entry.sort_key == sort_key:
            return
        del self._order[self._index_of(entry)]
        entry.sort_key = sort_key
        bisect.insort(self._order, entry, key=_position)
        self._record_version()

    def _index_of(self, entry: StoredWrite) -> int:
        return bisect.bisect_left(self._order, _position(entry),
                                  key=_position)

    def _record_version(self) -> None:
        now = self._now_fn()
        # Prune first so the new version reflects post-retention state.
        self._prune(now)
        ordered = tuple([entry.message_id for entry in self._order])
        if (self._version_times and self._version_times[-1] == now):
            # Same-instant mutations collapse into one version.
            self._versions[-1] = ordered
        else:
            self._version_times.append(now)
            self._versions.append(ordered)

    def _prune(self, now: float) -> None:
        horizon = now - self._retention
        # Keep at least one version at or before the horizon so view_at
        # still resolves for times just inside the retention window.
        cut = bisect.bisect_right(self._version_times, horizon) - 1
        if cut > 0:
            del self._version_times[:cut]
            del self._versions[:cut]
        by_age = self._by_age
        while by_age and by_age[0][0] < horizon:
            entry = self._entries.pop(heapq.heappop(by_age)[2])
            del self._order[self._index_of(entry)]

    # -- Queries -----------------------------------------------------------

    def view_now(self) -> tuple[str, ...]:
        """The current ordered sequence of message ids."""
        return self._versions[-1] if self._versions else ()

    def view_at(self, when: float) -> tuple[str, ...]:
        """The ordered sequence in force at time ``when``."""
        index = bisect.bisect_right(self._version_times, when) - 1
        if index < 0:
            return ()
        return self._versions[index]

    def contains(self, message_id: str) -> bool:
        return message_id in self._entries

    def entry(self, message_id: str) -> StoredWrite | None:
        return self._entries.get(message_id)

    def entries(self) -> list[StoredWrite]:
        """All live entries in current order."""
        return list(self._order)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def version_count(self) -> int:
        """Number of retained versions (for tests and diagnostics)."""
        return len(self._versions)

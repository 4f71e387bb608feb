"""Interest-ranked feed reads (the Facebook Feed substrate).

The paper explains Facebook Feed's extreme anomaly rates by the
*semantics of the service* (§V): "the reply to a read contains a subset
of the writes, which are not the most recent ones, but a selection of
writes based on a criteria that depends on the expected interest of
these writes for the user issuing the read operation."  Order
divergence is near 100% at every location, read-your-writes violations
occur in 99% of tests, monotonic writes in 89%, monotonic reads in 46%.

This module implements that semantic:

* A single logical backing store holds every post in timestamp order —
  Facebook's backing graph store is not where the anomalies come from.
* Each post becomes *visible to each reader* only after an independent
  **indexing lag** (feed pipelines fan posts out to per-user feed
  indexes asynchronously; the author's own index is not updated
  synchronously either, which is what makes read-your-writes fail).
* A read computes, per visible post, an **interest score** =
  recency + reader-specific noise resampled every read, returns the
  top ``feed_size`` posts in score order, and independently drops any
  post with small probability (selection churn).  Score noise larger
  than typical inter-post age gaps reorders freely (order divergence,
  monotonic-writes reordering); selection churn makes already-seen
  posts vanish (monotonic reads) and fuels content divergence.

A read is an *exact two-phase top-k*: the reply is the one an
exhaustive scan would give, but a read samples only the posts new
since the reader's last read, sorts nothing but its candidates, and
scores only the posts that can still enter the reply.  What it owes
every indexed post is one ``drop`` draw.

* **Reader state.**  Each reader that has read keeps the entries it
  has indexed (in store order), a heap of entries sampled but not yet
  indexed (by index time), and a cursor into the store's insert log.
  A read samples ``index.{reader}`` only for the posts logged since
  the reader's last read, in store order, promotes the pending entries
  ``now`` has reached by bisecting them into place, and forgets what
  retention pruned.  Retention prunes at *write* time, so this state
  follows store membership, never ``now - retention``.
* **Phase 1 — the draws that have an order.**  Exactly one
  ``drop.{reader}`` draw per indexed entry, in store order.  Both
  ``index.*`` and ``drop.*`` are sequential streams: which value an
  entry gets depends on how many draws came before it, so these draws
  may never be skipped, reordered or short-circuited — every campaign
  signature depends on it.
* **Phase 2 — the draws that have none.**  Interest noise is seeded by
  name from ``(reader, post, epoch)``; evaluating it for one post
  neither consumes nor shifts anything another post sees, so it may be
  skipped for posts that cannot make the reply.  Survivors are visited
  in descending *base* score (``-recency_weight * age``): store order
  is origin-time order, and float subtraction and scaling are
  monotone, so that is reverse store order when ``recency_weight > 0``
  and store order otherwise — no sort.  The scan stops at the first
  survivor with ``base + GAUSS_MAX_SIGMAS * noise_sd`` strictly below
  the current ``feed_size``-th best score: every later survivor has a
  base no larger, and no ``gauss`` draw exceeds that many sigmas
  (:data:`repro.sim.random_source.GAUSS_MAX_SIGMAS` — Box-Muller over
  53-bit uniforms gives ``|z| <= sqrt(-2 ln 2**-53) ~= 8.572``), so
  none of them can score as high as the reply's last post, ties
  included.  The bound is a theorem about the generator, not a
  tolerance; float rounding is monotone, so it survives the additions.
  The scored candidates then go through the same
  ``(-score, message_id)`` sort and cut as ever.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from operator import attrgetter

from repro.replication.ordering import timestamp_key
from repro.replication.store import (
    StoredWrite,
    VersionedStore,
    check_params,
)
from repro.sim.event_loop import Simulator
from repro.sim.random_source import GAUSS_MAX_SIGMAS, RandomSource

__all__ = ["RankedFeedParams", "RankedFeedStore"]

#: Store order of live entries.  This store never reorders, and live
#: sort keys are distinct (they end in the message id), so the key
#: alone is the order ``VersionedStore`` keeps.
_store_order = attrgetter("sort_key")


@dataclass(frozen=True)
class RankedFeedParams:
    """Tunables for the ranked-feed substrate (defaults fit FB Feed)."""

    #: Maximum number of posts returned by one read.
    feed_size: int = 10
    #: Median / log-sigma of the per-(post, reader) indexing lag (s).
    index_lag_median: float = 0.6
    index_lag_sigma: float = 0.65
    #: Weight of recency in the interest score (per second of age).
    #: Any real number: at ``<= 0`` newest is not best, which the
    #: read's stop rule does not assume.
    recency_weight: float = 1.0
    #: Standard deviation of the per-epoch interest noise, in
    #: age-equivalent seconds.  Comparable to typical inter-post gaps,
    #: so reorderings are routine but not universal.
    noise_sd: float = 0.15
    #: Interest scores are cached: the noise term for a (reader, post)
    #: pair is resampled only once per this many seconds, so a
    #: reader's feed order is stable between consecutive reads and
    #: flips at epoch boundaries.
    noise_period: float = 2.0
    #: Probability an otherwise-visible post is dropped from one read
    #: by the selection criteria (selection churn).
    drop_prob: float = 0.004
    #: Version/entry retention horizon (seconds).
    retention: float = 600.0

    def __post_init__(self) -> None:
        check_params(
            self,
            probabilities=("drop_prob",),
            positive=("index_lag_median", "noise_period", "retention"),
            sigmas=("index_lag_sigma", "noise_sd"),
            counts=("feed_size",),
        )


@dataclass(slots=True)
class _ReaderFeed:
    """One reader's feed index, advanced by each of its reads."""

    #: Insert-log position of the first post this reader has not
    #: sampled (absolute: counts the log entries already retired).
    cursor: int = 0
    #: Live entries whose index time has come, in store order.
    indexed: list[StoredWrite] = field(default_factory=list)
    #: Min-heap of ``(index time, seq, entry)`` for live entries
    #: sampled but not yet indexed.
    pending: list[tuple[float, int, StoredWrite]] = field(
        default_factory=list)


class RankedFeedStore:
    """A logical post store read through a per-user ranking pipeline."""

    def __init__(self, sim: Simulator, rng: RandomSource,
                 params: RankedFeedParams) -> None:
        self._sim = sim
        self._rng = rng
        self._params = params
        self._store = VersionedStore(
            now_fn=lambda: sim.now, retention=params.retention
        )
        #: The live entries in insert order.  Writes happen at
        #: ``sim.now`` and retention prunes oldest-first, so what an
        #: insert prunes is always a prefix of this log.
        self._log: list[StoredWrite] = []
        #: How many entries have left the front of ``_log``.
        self._log_start = 0
        #: reader -> its feed index, made at the reader's first read.
        self._readers: dict[str, _ReaderFeed] = {}
        #: (reader, author) -> latest index time so far; the fanout
        #: pipeline consumes each author's posts in order, so a later
        #: post never enters a reader's index before an earlier one —
        #: which is why indexing lag causes read-your-writes but not
        #: monotonic-writes violations.
        self._index_floor: dict[tuple[str, str], float] = {}
        #: Memoized epoch noise, ``{epoch: {(reader, message_id):
        #: noise}}``.  Simulated time only moves forward, so asking for
        #: an epoch retires every older one.
        self._noise_cache: dict[int, dict[tuple[str, str], float]] = {}

    @property
    def store(self) -> VersionedStore:
        return self._store

    def _live(self, entry: StoredWrite) -> bool:
        """Whether ``entry`` is still in the store (not pruned)."""
        return self._store.entry(entry.message_id) is entry

    # -- Writes -----------------------------------------------------------

    def write(self, author: str, message_id: str) -> float:
        """Publish a post; returns its origin timestamp."""
        origin_ts = self._sim.now
        fresh = not self._store.contains(message_id)
        entry = self._store.insert(
            message_id, author, origin_ts,
            sort_key=timestamp_key(origin_ts, 0, message_id),
        )
        if fresh:  # the store ignores a duplicate id; so does the log
            log = self._log
            log.append(entry)
            # Retire what this insert pruned; the new entry is live.
            pruned = 0
            while not self._live(log[pruned]):
                pruned += 1
            del log[:pruned]
            self._log_start += pruned
        return origin_ts

    # -- Reads ------------------------------------------------------------

    def read(self, reader: str) -> tuple[str, ...]:
        """One ranked read for ``reader`` (highest interest first)."""
        params = self._params
        now = self._sim.now
        indexed = self._catch_up(reader, now)
        # Phase 1: ordered draws, one per indexed entry in store order.
        drop_draw = self._rng.stream(f"drop.{reader}").random
        drop_prob = params.drop_prob
        survivors = [entry for entry in indexed
                     if drop_draw() >= drop_prob]
        # Phase 2: order-free noise, only where it can change the reply,
        # visiting survivors in descending base score.
        if params.recency_weight > 0:
            survivors.reverse()
        falloff = -params.recency_weight
        feed_size = params.feed_size
        noise_sd = params.noise_sd
        reach = GAUSS_MAX_SIGMAS * noise_sd
        epoch = int(now / params.noise_period)
        memo = self._epoch_noise(epoch) if noise_sd else None
        best: list[float] = []  # min-heap of the feed_size best scores
        ranked: list[tuple[float, str]] = []  # (-score, message_id)
        for entry in survivors:
            base = falloff * (now - entry.origin_ts)
            if len(best) == feed_size and base + reach < best[0]:
                break  # nor can anything after it
            message_id = entry.message_id
            noise = memo.get((reader, message_id)) if memo is not None else 0.0
            if noise is None:
                # Deterministic in (seed, reader, post, epoch): the same
                # value within an epoch (scores are cached
                # server-side), resampled at epoch boundaries.
                noise = memo[reader, message_id] = self._rng.ephemeral(
                    f"interest.{reader}.{message_id}.{epoch}"
                ).gauss(0.0, noise_sd)
            score = base + noise
            ranked.append((-score, message_id))
            if len(best) < feed_size:
                heapq.heappush(best, score)
            elif score > best[0]:
                heapq.heapreplace(best, score)
        ranked.sort()
        return tuple([message_id
                      for _rank, message_id in ranked[:feed_size]])

    def _catch_up(self, reader: str, now: float) -> list[StoredWrite]:
        """``reader``'s indexed entries at ``now``, in store order.

        Samples the posts logged since the reader's last read, promotes
        the pending entries ``now`` has reached and forgets the entries
        retention pruned.
        """
        feed = self._readers.get(reader)
        if feed is None:
            feed = self._readers[reader] = _ReaderFeed()
        indexed = feed.indexed
        pending = feed.pending
        live = self._live
        # First sight, in store order: a post written since the last
        # read may sort before one already sampled ("M10" < "M9" at
        # one instant), so the new posts are sorted among themselves.
        log = self._log
        unread = feed.cursor - self._log_start
        if unread < len(log):
            for entry in sorted(log[max(unread, 0):], key=_store_order):
                when = self._sample_index_time(entry, reader)
                heapq.heappush(pending, (when, entry.seq, entry))
            feed.cursor = self._log_start + len(log)
        # Retention prunes oldest first and store order is origin
        # order, so what it took from ``indexed`` is a prefix.
        pruned = 0
        while pruned < len(indexed) and not live(indexed[pruned]):
            pruned += 1
        del indexed[:pruned]
        while pending and pending[0][0] <= now:
            entry = heapq.heappop(pending)[2]
            if live(entry):
                bisect.insort(indexed, entry, key=_store_order)
        if pending and not all(live(item[2]) for item in pending):
            # Pruned before its index time: it will never be indexed.
            pending[:] = [item for item in pending if live(item[2])]
            heapq.heapify(pending)
        return indexed

    def _epoch_noise(self, epoch: int) -> dict[tuple[str, str], float]:
        """The interest-noise memo of ``epoch``; retires older epochs."""
        memo = self._noise_cache.get(epoch)
        if memo is None:
            for old in [e for e in self._noise_cache if e < epoch]:
                del self._noise_cache[old]
            memo = self._noise_cache[epoch] = {}
        return memo

    def _sample_index_time(self, entry: StoredWrite,
                           reader: str) -> float:
        """First sight of ``entry`` by ``reader``: draw its index time."""
        lag = self._rng.lognormal(
            f"index.{reader}",
            median=self._params.index_lag_median,
            sigma=self._params.index_lag_sigma,
        )
        # Per-author FIFO: never indexed before a post sampled earlier.
        # (Posts are sampled in store order, so a session predecessor
        # is sampled first unless both were written at one instant.)
        floor_key = (reader, entry.author)
        when = max(entry.origin_ts + lag,
                   self._index_floor.get(floor_key, float("-inf")))
        self._index_floor[floor_key] = when
        return when

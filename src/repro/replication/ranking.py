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

A read is an *exact two-phase top-k*: its cost follows the reply it
returns, not the history the store retains, and the reply is the one
an exhaustive scan would give.

* **Phase 1 — the draws that have an order.**  One pass over the
  retained entries in store order samples ``index.{reader}`` for every
  entry the reader has not met and takes exactly one ``drop.{reader}``
  draw per indexed entry.  Both are sequential streams: which value an
  entry gets depends on how many draws came before it, so this pass
  may never skip, reorder or short-circuit — every campaign signature
  depends on it.  It is kept cheap instead (one dict lookup and one
  bound ``random()`` per entry).
* **Phase 2 — the draws that have none.**  Interest noise is seeded by
  name from ``(reader, post, epoch)``; evaluating it for one post
  neither consumes nor shifts anything another post sees, so it may be
  skipped for posts that cannot make the reply.  Survivors are visited
  in descending *base* score (``-recency_weight * age``; sorted, so no
  assumption that newest is best) and the scan stops at the first one
  with ``base + GAUSS_MAX_SIGMAS * noise_sd`` strictly below the
  current ``feed_size``-th best score: every later survivor has a
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

import heapq
from dataclasses import dataclass

from repro.replication.ordering import timestamp_key
from repro.replication.store import (
    DoublingPrune,
    StoredWrite,
    VersionedStore,
    check_params,
)
from repro.sim.event_loop import Simulator
from repro.sim.random_source import GAUSS_MAX_SIGMAS, RandomSource

__all__ = ["RankedFeedParams", "RankedFeedStore"]


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
        #: (message_id, reader) -> time the post enters that reader's
        #: feed index.  Sampled lazily per reader on first read attempt.
        self._visible_at: dict[tuple[str, str], float] = {}
        #: (reader, author) -> latest index time so far; the fanout
        #: pipeline consumes each author's posts in order, so a later
        #: post never enters a reader's index before an earlier one —
        #: which is why indexing lag causes read-your-writes but not
        #: monotonic-writes violations.
        self._index_floor: dict[tuple[str, str], float] = {}
        self._prune_visible_at = DoublingPrune(8192)
        #: Memoized epoch noise, ``{epoch: {(reader, message_id):
        #: noise}}``.  Simulated time only moves forward, so asking for
        #: an epoch retires every older one.
        self._noise_cache: dict[int, dict[tuple[str, str], float]] = {}

    @property
    def store(self) -> VersionedStore:
        return self._store

    # -- Writes -----------------------------------------------------------

    def write(self, author: str, message_id: str) -> float:
        """Publish a post; returns its origin timestamp."""
        origin_ts = self._sim.now
        self._store.insert(
            message_id, author, origin_ts,
            sort_key=timestamp_key(origin_ts, 0, message_id),
        )
        return origin_ts

    # -- Reads ------------------------------------------------------------

    def read(self, reader: str) -> tuple[str, ...]:
        """One ranked read for ``reader`` (highest interest first)."""
        params = self._params
        now = self._sim.now
        # Phase 1: ordered draws, one pass in store order.
        visible_at = self._visible_at
        drop_prob = params.drop_prob
        drop_draw = self._rng.stream(f"drop.{reader}").random
        falloff = -params.recency_weight
        survivors: list[tuple[float, str]] = []
        for entry in self._store.entries():
            message_id = entry.message_id
            when = visible_at.get((message_id, reader))
            if when is None:
                when = self._sample_index_time(entry, reader)
            if when > now:
                continue  # not yet indexed into this reader's feed
            if drop_draw() < drop_prob:
                continue  # selection churn
            survivors.append((falloff * (now - entry.origin_ts),
                              message_id))
        # Phase 2: order-free noise, only where it can change the reply.
        survivors.sort(reverse=True)
        feed_size = params.feed_size
        reach = GAUSS_MAX_SIGMAS * params.noise_sd
        epoch = int(now / params.noise_period)
        best: list[float] = []  # min-heap of the feed_size best scores
        scored: list[tuple[float, str]] = []
        for base, message_id in survivors:
            if len(best) == feed_size and base + reach < best[0]:
                break  # nor can anything after it
            score = base + self._interest_noise(reader, message_id,
                                                epoch)
            scored.append((score, message_id))
            if len(best) < feed_size:
                heapq.heappush(best, score)
            elif score > best[0]:
                heapq.heapreplace(best, score)
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return tuple(message_id
                     for _score, message_id in scored[:feed_size])

    def _interest_noise(self, reader: str, message_id: str,
                        epoch: int) -> float:
        """Epoch-stable interest noise for one (reader, post) pair.

        Deterministic in (seed, reader, post, epoch): the same value
        within an epoch (scores are cached server-side), resampled at
        epoch boundaries.
        """
        if self._params.noise_sd == 0:
            return 0.0
        memo = self._noise_cache.get(epoch)
        if memo is None:
            for old in [e for e in self._noise_cache if e < epoch]:
                del self._noise_cache[old]
            memo = self._noise_cache[epoch] = {}
        noise = memo.get((reader, message_id))
        if noise is None:
            noise = memo[reader, message_id] = self._rng.ephemeral(
                f"interest.{reader}.{message_id}.{epoch}"
            ).gauss(0.0, self._params.noise_sd)
        return noise

    def _sample_index_time(self, entry: StoredWrite,
                           reader: str) -> float:
        """First sight of ``entry`` by ``reader``: draw its index time."""
        lag = self._rng.lognormal(
            f"index.{reader}",
            median=self._params.index_lag_median,
            sigma=self._params.index_lag_sigma,
        )
        when = entry.origin_ts + lag
        # Per-author FIFO: never indexed before a session
        # predecessor.  (Entries are scanned in timestamp order, so
        # predecessors are always sampled first.)
        floor_key = (reader, entry.author)
        floor = self._index_floor.get(floor_key, float("-inf"))
        when = max(when, floor)
        self._index_floor[floor_key] = when
        self._visible_at[entry.message_id, reader] = when
        horizon = entry.origin_ts - self._params.retention
        self._prune_visible_at(self._visible_at,
                               lambda indexed: indexed < horizon)
        return when

"""Substrate reads: cost per ranked read vs. retained history.

A Facebook-Feed reply holds ``feed_size`` posts however many the
store retains, and a campaign keeps a full retention window of them
(``retention = 600`` s).  This benchmark builds one
:class:`~repro.replication.RankedFeedStore` holding 50, 200 and 800
retained posts, lets three readers poll it while posts keep arriving,
and records what a read costs at each size.

What must hold **exactly**: the replies (a digest of every reply, in
order) and the number of name-seeded generators a read constructs for
interest noise — counted by a ``RandomSource`` subclass here, through
the public ``ephemeral`` seam.  That count follows the reply, not the
store: it must be flat from 50 to 800 retained posts.

What is reported and banded by ``tools/bench_check.py``: reads/s at
each size and the 800-over-50 cost ratio.  The ordered draw a read
owes every indexed post (one ``drop`` draw) keeps that ratio above 1;
neither index sampling (new posts only) nor scoring adds to it.
"""

import hashlib
import time

from repro.replication import RankedFeedParams, RankedFeedStore
from repro.sim import RandomSource, Simulator

from benchmarks.conftest import BENCH_SEED

RETAINED = (50, 200, 800)
READERS = ("oregon", "tokyo", "ireland")
#: Seconds between posts: 800 of them span 400 s, inside retention.
POST_GAP = 0.5
ROUNDS = 100
REPEATS = 3


class CountingSource(RandomSource):
    """Counts ``ephemeral`` generator constructions."""

    constructions = 0

    def ephemeral(self, name):
        self.constructions += 1
        return super().ephemeral(name)


def poll(retained):
    """One store at ``retained`` posts, polled for ROUNDS rounds."""
    sim = Simulator()
    rng = CountingSource(BENCH_SEED)
    store = RankedFeedStore(sim, rng, RankedFeedParams())
    posts = 0

    def post():
        nonlocal posts
        store.write(READERS[posts % len(READERS)], f"M{posts}")
        posts += 1
        sim.run_until(sim.now + POST_GAP)

    for _ in range(retained):
        post()
    digest = hashlib.blake2b(digest_size=16)
    read_s = 0.0
    for _ in range(ROUNDS):
        post()
        t0 = time.perf_counter()
        replies = [store.read(reader) for reader in READERS]
        read_s += time.perf_counter() - t0
        digest.update(repr(replies).encode("utf-8"))
    reads = ROUNDS * len(READERS)
    return {
        "retained_posts": len(store.store) - ROUNDS,
        "reads": reads,
        "replies_blake2b": digest.hexdigest(),
        "ephemeral_constructions": rng.constructions,
        "ephemeral_per_read": rng.constructions / reads,
    }, read_s


def test_ranked_read_cost_follows_the_reply(bench_json_writer):
    sizes = {}
    seconds = {}
    for retained in RETAINED:
        runs = [poll(retained) for _ in range(REPEATS)]
        exact, _ = runs[0]
        assert all(run[0] == exact for run in runs), "nondeterministic"
        assert exact["retained_posts"] == retained
        seconds[retained] = min(read_s for _, read_s in runs)
        sizes[str(retained)] = {
            **exact,
            "reads_per_s": exact["reads"] / seconds[retained],
        }
    ratio = seconds[RETAINED[-1]] / seconds[RETAINED[0]]

    print(f"\nRanked feed reads ({len(READERS)} readers, "
          f"{ROUNDS} rounds, best of {REPEATS}):")
    for retained in RETAINED:
        row = sizes[str(retained)]
        print(f"  {retained:4d} retained  {row['reads_per_s']:10,.0f} "
              f"reads/s  {row['ephemeral_per_read']:.2f} "
              "generators/read")
    print(f"  read cost at {RETAINED[-1]} / at {RETAINED[0]}: "
          f"{ratio:.2f}x for {RETAINED[-1] // RETAINED[0]}x the store")

    path = bench_json_writer("substrate_reads", {
        "seed": BENCH_SEED,
        "readers": len(READERS),
        "rounds": ROUNDS,
        "sizes": sizes,
        "read_800_over_50": ratio,
    })
    print(f"  written to {path}")

    # Scoring work follows the reply: flat in the store size.
    per_read = [sizes[str(retained)]["ephemeral_per_read"]
                for retained in RETAINED]
    assert max(per_read) <= 1.1 * min(per_read)
    # And a 16x store may not cost anywhere near 16x per read.
    assert ratio < (RETAINED[-1] / RETAINED[0]) / 2

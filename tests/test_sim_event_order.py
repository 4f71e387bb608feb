"""Event-log oracle: same events, same order, same draws.

One Test 1 + one Test 2 campaign per service, with the public
``Simulator.schedule_at`` wrapped so every event appends
``(fire time, callback __qualname__)`` as it fires.  The SHA-256 of
that log, the event count, the final clock and the ``getstate()`` of
every named stream under the ``net`` / ``service`` child sources were
recorded at the commit *before* the kernel's heap entries, drain loop
and process switch were rewritten (PR 19); a kernel change that keeps
signatures but reorders two same-instant events, or moves one draw
from one stream to another, fails here.

The googleplus stream count and stream-state digest were re-recorded
once, when the backend "flicker" draw (probability 0 in every profile)
was deleted: its two ``backend.<dc>.flicker`` streams are gone, and
the old digest recomputed without those two rows is the new one — no
other stream, and no event, moved.

Both event counts and log digests were re-recorded once, when a
network stopped scheduling one timeout event per RPC and began
keeping one deadline FIFO per timeout value with a single armed
``Network._expire`` event.  No RPC times out in either campaign, so
the old log without its ``Network._timeout_rpc`` rows and the new
log without its ``Network._expire`` rows are the same log (blogger
SHA-256 ``9163243e…``, googleplus ``b51d5285…``): blogger's 171 timeout
rows became 3 expiry rows (1,045 -> 877 events), googleplus's 243
became 7 (3,433 -> 3,197).  The final clock and every stream state
are unchanged.
"""

import hashlib

import pytest

from repro.methodology import CampaignConfig, run_campaign
from repro.sim import RandomSource, Simulator

SEED = 19

#: service -> (events_processed, final sim.now, event-log digest,
#:             streams that drew, stream-state digest)
PINNED = {
    "blogger": (
        877, "300.0",
        "ae2c180d1db5a91b35c99b435a1c73fa5a3fe34dcb0610e571d5fcadd7ea3a58",
        17,
        "db9ac945bf307dcc2ba8a822f84704b9e70d56ca7ce00342f776e43041595dca",
    ),
    "googleplus": (
        3197, "300.0",
        "cc3ce6a7c94a23e0d6e4ca3b7607a9a4e79b7779708bd1da24ce3e1cbfb9f2df",
        35,
        "6798725e57fdec05761402fde46d402c55e4ea9a0f26b84e730cbe982602f997",
    ),
}


def observe_campaign(service, monkeypatch):
    """Run the campaign; return what the kernel and the streams did."""
    log = hashlib.sha256()
    sims = []
    paths = {SEED: ""}  # source seed -> "/child/grandchild" lineage
    streams = {}
    original_schedule_at = Simulator.schedule_at
    original_child = RandomSource.child
    original_stream = RandomSource.stream

    def fire(sim, name, callback, args):
        log.update(f"{sim.now!r} {name}\n".encode())
        callback(*args)

    def schedule_at(self, time, callback, *args):
        if self not in sims:
            sims.append(self)
        name = getattr(callback, "__qualname__", type(callback).__name__)
        return original_schedule_at(self, time, fire, self, name,
                                    callback, args)

    def child(self, name):
        made = original_child(self, name)
        paths[made.seed] = f"{paths[self.seed]}/{name}"
        return made

    def stream(self, name):
        found = original_stream(self, name)
        streams[f"{paths[self.seed]}/{name}"] = found
        return found

    monkeypatch.setattr(Simulator, "schedule_at", schedule_at)
    monkeypatch.setattr(RandomSource, "child", child)
    monkeypatch.setattr(RandomSource, "stream", stream)
    run_campaign(service, CampaignConfig(num_tests=1, seed=SEED))

    (sim,) = sims
    drew = sorted(path for path in streams
                  if path.startswith(("/net/", "/service/")))
    states = hashlib.sha256()
    for path in drew:
        states.update(f"{path} {streams[path].getstate()!r}\n".encode())
    return (sim.events_processed, repr(sim.now), log.hexdigest(),
            len(drew), states.hexdigest())


@pytest.mark.parametrize("service", sorted(PINNED))
def test_event_log_and_stream_states_are_pinned(service, monkeypatch):
    assert observe_campaign(service, monkeypatch) == PINNED[service]

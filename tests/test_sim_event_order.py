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
        1045, "300.0",
        "5ce2f0512d8272e4af051f96dc45ad2f9d1b2f11e1076ffe88085e127d2f17ca",
        17,
        "db9ac945bf307dcc2ba8a822f84704b9e70d56ca7ce00342f776e43041595dca",
    ),
    "googleplus": (
        3433, "300.0",
        "ff288ec53699932c8cf72fdf68de8c81aeb2a6fd9c569c7d965f377c626082be",
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

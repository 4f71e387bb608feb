"""World oracle: same draws, same bus order, same counts.

A small world and ``gossip_world.toml`` at 400 sessions, each calm and
under a partition whose side spans the shard cut, each at ``shards`` 1
and 4.  After the run the test pins the ``getstate()`` of every
replica's ``hop`` and ``ship`` stream, a digest of the bus delivery
sequence ``(deliver_time, origin, seq, target, kind)`` as
``WorldBus.drain_until`` handed it out, and the result's counters and
signature.  Everything below was recorded at the commit *before* the
bus became a heap and replicas / cohorts started carrying what they
had been re-deriving per operation (PR 23); a world change that keeps
the signature but moves one draw between streams, or swaps two
deliveries inside a barrier, fails here.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.scenario import load_scenario
from repro.sim import RandomSource
from repro.world import (
    WorldBus,
    WorldPartition,
    WorldSpec,
    run_world,
    world_from_scenario,
)

SEED = 23
SCENARIO = "examples/scenarios/gossip_world.toml"

SMALL = WorldSpec(
    name="oracle", sessions=60, replicas=6, cohort_size=4,
    writes_per_session=2, reads_per_session=2,
    arrival_window=30.0, think_median=20.0, hop_median=15.0,
    fanout=2, epoch=10.0,
)

#: Side (0, 3) straddles every contiguous cut of 6 or 8 replicas into
#: 4 shards, and the window covers the bulk of both worlds' traffic.
CUT = WorldPartition(start=10.0, end=80.0, side=(0, 3))


def specs():
    scenario = world_from_scenario(load_scenario(SCENARIO),
                                   sessions=400)
    return {
        "small/calm": SMALL,
        "small/cut": replace(SMALL, partitions=(CUT,)),
        "scenario/calm": scenario,
        "scenario/cut": replace(scenario, partitions=(CUT,)),
    }


#: case -> (stream-state digest, bus-sequence digest, events_processed,
#:          bus_messages, bus_deferred, epochs, peak_open_state,
#:          max_stream_state, signature)
PINNED = {
    "scenario/calm": (
        "52ea863b5449acb44b3c4bb83fae15d550d89e3e35afa11c7e24710cd1443e61",
        "b501771fe8b2ff6585bfebc9a0cf0ae19c3bfe41233b613d4a51549abe048760",
        2222, 1822, 0, 17, 378, 1,
        "06fb8a87c45ffdb9eee40497df85b0c944b69f1e8bbfd2cea2cd7d55cce21843",
    ),
    "scenario/cut": (
        "371842c5a555c65b00505550ebddf356bb6400dd5542bf695f9a57bc920298d7",
        "a4e3a3b966ced8636272136a31660c6b325ca7df01f7d4427577fcd7aeb3b7d9",
        2282, 1882, 348, 21, 384, 1,
        "fc2c0f7730713cdcc65bb286f920ba29c2055335e739d37c274eea9e771300ab",
    ),
    "small/calm": (
        "38532b8e5d170b3d8b1961f3208cd2ba2e9653d024a0f273d3730b312571e8d7",
        "889c1476b525172f1c1b290f6ff7f2e5c57f0072057a1f129f6213863cfb928f",
        621, 501, 0, 15, 212, 3,
        "80ba6dc0590ae84bdded39ddf37a67c351e62cb49d0625bb66c0230fd5a801db",
    ),
    "small/cut": (
        "37cb10f9fdd49d3ad0ddc9425b73ce9e197da798989fb55fd22880d0dd80b27d",
        "81d5538220079e6e552fb1f9f8a69275feb5febbe2a35fe59bc51f4d9f50c4c6",
        607, 487, 141, 18, 167, 3,
        "bc6cafbb0ed7d458a74b09fc5c250633aad1827795d06f38af8a6b5e6b4f1a03",
    ),
}


def observe_world(spec, monkeypatch):
    """Run the world; return what the streams, the bus and the engine did."""
    sources = {}
    deliveries = hashlib.sha256()
    original_child = RandomSource.child
    original_drain = WorldBus.drain_until

    def child(self, name):
        made = original_child(self, name)
        if name.startswith("replica."):
            sources[int(name.removeprefix("replica."))] = made
        return made

    def drain_until(self, horizon):
        due = original_drain(self, horizon)
        for message in due:
            deliveries.update(
                f"{message.deliver_time!r} {message.origin} "
                f"{message.seq} {message.target} {message.kind}\n"
                .encode())
        return due

    monkeypatch.setattr(RandomSource, "child", child)
    monkeypatch.setattr(WorldBus, "drain_until", drain_until)
    result = run_world(spec, seed=SEED)

    assert sorted(sources) == list(range(spec.replicas))
    states = hashlib.sha256()
    for index in sorted(sources):
        for name in ("hop", "ship"):
            # A stream nobody drew from reads as its seeded state.
            state = sources[index].stream(name).getstate()
            states.update(f"{index} {name} {state!r}\n".encode())
    return (states.hexdigest(), deliveries.hexdigest(),
            result.events_processed, result.bus_messages,
            result.bus_deferred, result.epochs, result.peak_open_state,
            result.max_stream_state, result.signature)


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("case", sorted(specs()))
def test_streams_bus_order_and_counts_are_pinned(case, shards,
                                                 monkeypatch):
    spec = specs()[case].with_topology(shards)
    assert observe_world(spec, monkeypatch) == PINNED[case]


def test_the_cut_bites_in_both_worlds():
    """The partitioned rows pin deferral only if deferral happened."""
    for case, pinned in PINNED.items():
        deferred = pinned[4]
        assert (deferred > 0) == case.endswith("/cut"), case

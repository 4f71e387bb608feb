"""Stream oracle: same records, same order, same state, op by op.

Every test of the corpus below is pushed through a
:class:`~repro.stream.engine.StreamEngine` that, after each
``observe`` and ``close_test``, logs ``state_size()``; each closed
record is logged as the sha256 of ``canonical_json(record_to_dict(r))``
and each live emission by its ``repr``.  The corpus:

* ``gossip_world.toml`` at 400 sessions and the small two-writes-per-
  session world of ``test_world_oracle``, each through the world
  engine's own ``StreamEngine(horizon=1)``;
* ``run_campaign(service, CampaignConfig(num_tests=2, seed=11))``
  traces of the four services, every test of a service open at once
  and interleaved by stream time, on one engine with a horizon of 3
  (so the ring evicts) and every relation metric;
* two hand-built traces: agents' first writes arriving in reverse
  agent order with one read violating every writer session (monotonic
  writes lists writers in agent order within one read), and
  read-your-writes / monotonic-reads firing for several agents in
  non-agent order (both list observations agent by agent).

``test_checker_oracle.py`` compares observations as multisets; this
file pins their *order* and the engine's atom accounting.  The values
below were recorded before the per-test checker state became lazily
allocated and the pair table a shared layout; a change that keeps
every signature but reorders one record's observations, or moves one
``state_size()`` reading, fails here.  The four ``campaign/*`` cases'
record digests, size digests and maxima were re-recorded once, when
the graded metrics became minima over admissible arbitrations and the
two metrics that re-counted checker observations went: their records
without the ``metrics`` key hash as before, and their ``state_size()``
readings, less the metric layer's own atoms, are unchanged.
"""

import hashlib
import heapq
from dataclasses import replace

import pytest

from repro.core.stream import TestMeta, stream_order
from repro.fleet.digest import canonical_json
from repro.io import record_to_dict
from repro.methodology.config import CampaignConfig
from repro.methodology.runner import run_campaign
from repro.relations import metric_names, resolve_metrics
from repro.scenario import load_scenario
from repro.stream.engine import StreamEngine
from repro.world import WorldEngine, world_from_scenario
from tests.helpers import make_trace, read, write
from tests.test_world_oracle import SCENARIO, SEED, SMALL

SERVICES = ("blogger", "googleplus", "facebook_feed", "facebook_group")


class RecordingEngine(StreamEngine):
    """A :class:`StreamEngine` that logs what each call left behind."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.sizes: list[int] = []
        self.records: list[str] = []
        self.emissions = hashlib.sha256()

    def observe(self, meta, sop):
        emission = super().observe(meta, sop)
        self.sizes.append(self.state_size())
        if emission:
            self.emissions.update(repr(emission).encode("utf-8"))
        return emission

    def close_test(self, meta, trace=None):
        record = super().close_test(meta, trace)
        self.sizes.append(self.state_size())
        self.records.append(hashlib.sha256(
            canonical_json(record_to_dict(record)).encode("utf-8")
        ).hexdigest())
        return record

    def pinned(self) -> tuple:
        """(records, record digest, sizes, size digest, max size,
        emission digest)."""
        return (
            len(self.records),
            hashlib.sha256(
                "\n".join(self.records).encode("ascii")).hexdigest(),
            len(self.sizes),
            hashlib.sha256(
                ",".join(map(str, self.sizes)).encode("ascii")
            ).hexdigest(),
            max(self.sizes),
            self.emissions.hexdigest(),
        )


def replay_interleaved(engine: StreamEngine, traces) -> None:
    """Every trace open at once, operations merged by stream order.

    A test opens at its first operation and closes after its last;
    ties between tests go to the earlier trace.
    """
    metas = [TestMeta.from_trace(trace) for trace in traces]
    streams = [stream_order(trace, meta)
               for trace, meta in zip(traces, metas)]
    remaining = [len(stream) for stream in streams]
    merged = heapq.merge(*(
        [(sop.time, index, position, sop)
         for position, sop in enumerate(stream)]
        for index, stream in enumerate(streams)))
    opened = set()
    for _time, index, _position, sop in merged:
        meta = metas[index]
        if index not in opened:
            opened.add(index)
            engine.open_test(meta)
        engine.observe(meta, sop)
        remaining[index] -= 1
        if not remaining[index]:
            engine.close_test(meta)


def world_case(spec) -> RecordingEngine:
    engine = RecordingEngine(horizon=1)
    result = WorldEngine(spec, SEED, stream_engine=engine).run()
    assert max(engine.sizes) >= result.max_stream_state
    return engine


def campaign_case(service: str) -> RecordingEngine:
    result = run_campaign(service, replace(
        CampaignConfig(num_tests=2, seed=11), keep_traces=True))
    engine = RecordingEngine(
        horizon=3, metrics=resolve_metrics(metric_names()))
    replay_interleaved(engine, [record.trace
                                for record in result.records])
    return engine


AGENTS = ("oregon", "tokyo", "ireland")


def writers_reversed() -> RecordingEngine:
    """First writes land ireland, tokyo, oregon; then ireland's read
    sees every session's two writes inverted and tokyo's sees two
    sessions' later writes without their earlier ones."""
    trace = make_trace([
        write("ireland", "i1", 0.0), write("ireland", "i2", 1.0),
        write("tokyo", "t1", 2.0), write("tokyo", "t2", 3.0),
        write("oregon", "o1", 4.0), write("oregon", "o2", 5.0),
        read("ireland", ["o2", "o1", "t2", "t1", "i2", "i1"], 6.0),
        read("tokyo", ["i2", "t2", "t1", "o2"], 7.0),
        read("oregon", ["o1", "o2", "t1", "t2", "i1", "i2"], 8.0),
    ], agents=AGENTS, test_id="mw-reversed")
    engine = RecordingEngine(horizon=4)
    replay_interleaved(engine, [trace])
    return engine


def sessions_out_of_order() -> RecordingEngine:
    """Read-your-writes and monotonic reads fire ireland, tokyo,
    oregon, then ireland again — never in agent order."""
    trace = make_trace([
        write("oregon", "o1", 0.0), write("tokyo", "t1", 0.0),
        write("ireland", "i1", 0.0),
        read("ireland", ["o1", "t1"], 1.0),
        read("tokyo", ["o1", "i1"], 2.0),
        read("oregon", ["t1", "i1"], 3.0),
        read("ireland", ["i1"], 4.0),
        read("tokyo", ["t1"], 5.0),
        read("oregon", ["o1", "t1", "i1"], 6.0),
        read("oregon", ["o1"], 7.0),
        read("ireland", ["o1"], 8.0),
    ], agents=AGENTS, test_id="sessions-shuffled")
    engine = RecordingEngine(horizon=4)
    replay_interleaved(engine, [trace])
    return engine


def cases():
    scenario = world_from_scenario(load_scenario(SCENARIO),
                                   sessions=400)
    yield "world/scenario", lambda: world_case(scenario)
    yield "world/small", lambda: world_case(SMALL)
    for service in SERVICES:
        yield f"campaign/{service}", lambda s=service: campaign_case(s)
    yield "hand/writers_reversed", writers_reversed
    yield "hand/sessions_out_of_order", sessions_out_of_order


#: case -> RecordingEngine.pinned()
PINNED = {
    "world/scenario": (
        100,
        "e5c1ffcac2c1beeb0c83b3be18ea2eb0ec69d629cd4c0c61cb6f56aa2e3a920d",
        500,
        "05ec64fbe30c4260961923645db6570f407be6355a66d5f9de41fed817ce0c35",
        33,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "world/small": (
        15,
        "51bc2e12a9d31dc62e9e58649b84277f9c5ffe1642165c5f21566ba1b4b8461e",
        135,
        "fedb67c8862c7e4d58213f7f1096aa7c79fad1bd4c6af8efb3fd89c5ea3b0088",
        45,
        "dd9914fc706f2b9d46f092521fa234205145321735f71dc3e39d17431be46835",
    ),
    "campaign/blogger": (
        4,
        "cd865e338d4e4f378b3238f88cbead41a2814f1e6d40afccce01ea51036167e8",
        207,
        "e2fbd93055b612738dcbcc390936b0d8e88efcab7823daf4fd30ff8d1b534227",
        170,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "campaign/googleplus": (
        4,
        "173ed9c840000f0484954ef26940b7e4a0fc94bb7caa8c0c067535433a241fe6",
        502,
        "267ae66138f0dc178b589064474a3490f0413470af52bf740eac0ab65c1e758b",
        269,
        "53f54bf92d69008c297b41ee009058ef368b3c7ab172dcb76000e8572a17fdd2",
    ),
    "campaign/facebook_feed": (
        4,
        "5e76bb34f5d351ac7dc9a0fb3372a3fd5a826f508fba0054f431acdfd8d01fbe",
        363,
        "a4aa800d4e1258660a8a63a517d5492b0e2519eadfaf7461ea76574c395e0b4d",
        431,
        "f950d6150a5e48f850e8fd85008ef21222dae9de3716e1e43f913e49e763537a",
    ),
    "campaign/facebook_group": (
        4,
        "06eb38e5b730c109afb40dfdfd28bdf9847463001eb3a215857bb5d4dce6f933",
        380,
        "82adc89211c49b17de99fda297910117f3f4340c5ef9cd3702c5217e61c0e263",
        461,
        "f45c81143b7498d52a2db9b93ddf0df0cab1932c8ee0d2e867c1deea901e2757",
    ),
    "hand/writers_reversed": (
        1,
        "618f5fc69eecae81156d5ed2af70184d4498d244eb418766ad4cb1e106f13de3",
        10,
        "76f31f33fa63d3cca19f4a6db8d93c1db87aa847a28692f9f473dbf8d7ffd35b",
        79,
        "a8caca6d92a8e73f2df64911078ac7c45abc36ecae4bbc111ebe3b73f89dc533",
    ),
    "hand/sessions_out_of_order": (
        1,
        "a8a0ee8d2967fb6402b6703ab03a33669273632b75f10b93bdfc031853d93931",
        12,
        "2c3a20a02640a8a19f049a1f436b371acabe5b6dad7f6eb5416e22d628f97ffa",
        90,
        "abb59fe0b2facc1a03e6e1c4dd50ebec38dc2c69d80a0170f524e2a2d9a7525d",
    ),
}


def fired(engine, anomaly):
    """(agent, detail, time) of the last record's ``anomaly`` list."""
    return [(obs.agent, obs.details.get("writer"), obs.time)
            for obs in engine.results[-1].report.observations[anomaly]]


def test_monotonic_writes_lists_writers_in_agent_order():
    assert fired(writers_reversed(), "monotonic_writes") == [
        ("ireland", "oregon", 6.1), ("ireland", "tokyo", 6.1),
        ("ireland", "ireland", 6.1), ("tokyo", "oregon", 7.1),
        ("tokyo", "tokyo", 7.1), ("tokyo", "ireland", 7.1)]


def test_session_checkers_list_agent_by_agent():
    engine = sessions_out_of_order()
    assert fired(engine, "read_your_writes") == [
        ("oregon", None, 3.1), ("tokyo", None, 2.1),
        ("ireland", None, 1.1), ("ireland", None, 8.1)]
    assert fired(engine, "monotonic_reads") == [
        ("oregon", None, 7.1), ("tokyo", None, 5.1),
        ("ireland", None, 4.1), ("ireland", None, 8.1)]


@pytest.mark.parametrize("name,build", list(cases()),
                         ids=[name for name, _ in cases()])
def test_stream_oracle(name, build):
    assert build().pinned() == PINNED[name]

"""A page-sized Google+ read is *exactly* the exhaustive scan's page.

``DatacenterReplica.read(newest=k)`` walks the backend's view newest
first and stops after ``k`` visible ids, and the Google+ list handler
asks for ``limit + 1`` on a first page.  The exhaustive scan it
replaced lives here, as the oracle: a replica subclass whose ``read``
filters the whole view and ignores ``newest``.  Two Google+ services
are built from one seed, one on each replica class, and driven
through the same random history of writes, replication rounds, merge
stalls and stale snapshots.  After every read the replies must be
equal, the list handler's pages must be equal (with and without
``cursor`` / ``limit``, bad limits included), and every replica RNG
stream must be in the same state: the draw sequence does not depend
on how far a read walks.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.replication.eventual as eventual
from repro.errors import InvalidRequestError
from repro.net import JitterParams, LatencyModel, Network, paper_topology
from repro.replication import EventualParams
from repro.services import GooglePlusService
from repro.services.googleplus import GooglePlusParams
from repro.sim import RandomSource, Simulator
from repro.webapi.http import ApiRequest

DATACENTERS = ("gplus-dc-us", "gplus-dc-eu")
AUTHORS = ("oregon", "tokyo", "ireland")

#: Every mechanism the read filters on, made frequent: slow and
#: stalled backend fanout, stale snapshots, merge stalls on both
#: datacenters, stragglers, and a retention short enough to prune.
BUSY = EventualParams(
    sync_interval=0.4, sync_delay_median=0.8, sync_delay_sigma=1.0,
    backend_count=3, backend_lag_prob=0.5, backend_lag_median=1.0,
    backend_verylag_prob=0.1, backend_verylag_mean=3.0,
    straggler_prob=0.3, straggler_extra_mean=2.0,
    stale_snapshot_prob=0.5, stale_snapshot_age_mean=1.0,
    tail_insert_prob=0.5, repair_delay_mean=3.0,
    antientropy_interval=2.0, antientropy_min_age=3.0,
    session_order_violation_prob=0.5, retention=20.0,
)


class ExhaustiveReplica(eventual.DatacenterReplica):
    """The pre-page read: filter the whole view, whatever ``newest``."""

    def read(self, newest=None):
        now = self._sim.now
        backend = self._rng.stream(f"lb.{self.host}").randrange(
            self._params.backend_count
        )
        as_of = now
        if self._rng.bernoulli(f"stale.{self.host}",
                               self._params.stale_snapshot_prob):
            as_of = now - self._rng.exponential(
                f"stale.{self.host}.age",
                self._params.stale_snapshot_age_mean,
            )
        backend_visible = self._backend_visible
        served = []
        for message_id in self._store.view_at(as_of):
            visible = backend_visible.get(message_id)
            if visible is not None and as_of < visible[backend]:
                continue
            served.append(message_id)
        return tuple(served)


def build(seed, replica_class):
    sim = Simulator()
    topology = paper_topology()
    rng = RandomSource(seed=seed)
    network = Network(sim, LatencyModel(topology, rng.child("net"),
                                        JitterParams(sigma=0.1)))
    params = GooglePlusParams(replication_us=BUSY, replication_eu=BUSY)
    with mock.patch.object(eventual, "DatacenterReplica", replica_class):
        service = GooglePlusService(sim, topology, network, rng, params)
    replicas = {dc: service._group.replica(dc) for dc in DATACENTERS}
    assert all(type(replica) is replica_class
               for replica in replicas.values())
    handlers = {dc: service._make_list_handler(dc) for dc in DATACENTERS}
    return sim, replicas, handlers


def stream_states(replicas):
    return {dc: {name: stream.getstate()
                 for name, stream in replica._rng._streams.items()}
            for dc, replica in replicas.items()}


def page(handler, request):
    try:
        return handler(request, None)
    except InvalidRequestError as exc:
        return ("400", str(exc))


#: Cursor choice: absent, the id of the n-th write, or an unknown id.
cursors = st.one_of(st.none(), st.integers(0, 40), st.just("gone"))
#: Limit choice: absent, a page size, or a bad value the handler 400s.
limits = st.one_of(st.none(), st.integers(1, 8),
                   st.sampled_from([0, -1, "3", True, 2.0]))
steps = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 1), st.integers(0, 2),
              st.integers(1, 4)),
    st.tuples(st.just("advance"),
              st.floats(0.0, 3.0, allow_nan=False)),
    st.tuples(st.just("read"), st.integers(0, 1),
              st.one_of(st.none(), st.integers(1, 6)), cursors, limits,
              st.integers(1, 4)),
), min_size=1, max_size=60)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), history=steps)
# A stale snapshot from before a tail-inserted write's repair: the
# view in force at ``as_of`` has the two writes in the other order.
@example(seed=9687, history=[("write", 1, 0, 1), ("write", 0, 0, 1),
                             ("advance", 2.0), ("advance", 2.5),
                             ("read", 0, None, None, None, 1)])
def test_page_read_is_the_exhaustive_scans_page(seed, history):
    sim, replicas, handlers = build(seed, eventual.DatacenterReplica)
    twin_sim, twins, twin_handlers = build(seed, ExhaustiveReplica)
    written = []
    for step in history:
        kind = step[0]
        if kind == "write":
            _, dc, author, count = step
            for _ in range(count):
                message_id = f"M{len(written)}"
                written.append(message_id)
                for replicas_ in (replicas, twins):
                    replicas_[DATACENTERS[dc]].accept_write(
                        message_id, AUTHORS[author])
        elif kind == "advance":
            sim.run_until(sim.now + step[1])
            twin_sim.run_until(twin_sim.now + step[1])
        else:
            _, dc, newest, cursor, limit, first_limit = step
            host = DATACENTERS[dc]
            full = twins[host].read()
            reply = replicas[host].read(newest)
            assert reply == (full if newest is None else full[-newest:])
            params = {}
            if cursor is not None:
                params["cursor"] = (
                    cursor if isinstance(cursor, str)
                    else written[cursor % len(written)] if written
                    else "none-yet")
            if limit is not None:
                params["limit"] = limit
            # The drawn request, then a small first page (the case the
            # handler shortens) on the same history.
            for query in (params, {"limit": first_limit}):
                request = ApiRequest("GET", "/plusDomains/moments", query)
                assert (page(handlers[host], request)
                        == page(twin_handlers[host], request))
        assert sim.now == twin_sim.now
        assert stream_states(replicas) == stream_states(twins)


def test_a_first_page_walks_only_what_it_returns():
    """The handler's first page stops the walk at ``limit + 1`` ids."""
    sim, replicas, handlers = build(7, eventual.DatacenterReplica)
    replica = replicas["gplus-dc-us"]
    for index in range(30):
        replica.accept_write(f"M{index}", "oregon")
    sim.run_until(sim.now + 60.0)
    asked = []
    original = replica.read

    def spy(newest=None):
        asked.append(newest)
        return original(newest)

    replica.read = spy
    handler = handlers["gplus-dc-us"]
    body = handler(ApiRequest("GET", "/plusDomains/moments",
                              {"limit": 4}), None)
    assert len(body["messages"]) == 4 and body["next_cursor"] is not None
    handler(ApiRequest("GET", "/plusDomains/moments", {}), None)
    handler(ApiRequest("GET", "/plusDomains/moments",
                       {"cursor": body["next_cursor"], "limit": 4}), None)
    assert asked == [5, 26, None]

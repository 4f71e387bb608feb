"""Observation-level oracle for the six checkers.

There is one implementation of each §III predicate — an incremental
checker run to completion by ``check(trace)`` — so nothing is left to
compare it *with* inside ``src/``.  This file is the reference
instead: literal, order-free transcriptions of the paper's formulas
that name every violating read with its evidence (not just "did the
anomaly occur", which ``test_property_checkers.py`` covers), compared
against ``check(trace)`` on

* hypothesis traces with per-agent clock skew and explicit WFR
  trigger maps (the ``arbitrary_traces`` strategy, extended);
* hypothesis traces on an integer time grid, where exact ties —
  including zero-duration reads — are the common case;
* the 30 seeded adversarial ``random_trace`` s of
  ``test_stream_parity.py``.

The oracles quantify over ``trace.operations`` directly and never
sort into stream order, so they are blind to how the checkers traverse
a trace.  The one thing they share with the implementation is the
*definition* of the exact-tie case (:mod:`repro.core.stream`), which
``TestTieBreakIsTheDefinition`` also pins by example.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReadOp, WriteOp, check_all
from repro.core.anomalies import default_checkers
from repro.core.anomalies.content_divergence import views_content_diverged
from repro.core.stream import run_to_completion
from repro.core.windows import WindowTracker
from repro.relations import (
    StreamingMetricEvaluator,
    metric_names,
    resolve_metrics,
)
from tests.helpers import make_trace, read, write
from tests.test_property_checkers import AGENTS, arbitrary_traces
from tests.test_stream_parity import random_trace


# -- Literal transcriptions ---------------------------------------------------


def _indexed(trace, kind, agent=None):
    """(recording index, op) of one kind, optionally of one agent."""
    return [(i, op) for i, op in enumerate(trace.operations)
            if isinstance(op, kind) and agent in (None, op.agent)]


def _session_writes(trace, agent):
    """An agent's writes in session order (invocation, then log order)."""
    return [w for _, w in sorted(
        _indexed(trace, WriteOp, agent),
        key=lambda iw: (iw[1].invoke_local, iw[0]))]


def _session_reads(trace, agent):
    """An agent's reads in session order (response, then log order)."""
    return [r for _, r in sorted(
        _indexed(trace, ReadOp, agent),
        key=lambda ir: (ir[1].response_local, ir[0]))]


def oracle_ryw(trace):
    """∃ x ∈ W : x ∉ S, W = c's writes completed when c's read began."""
    found = Counter()
    for _, r in _indexed(trace, ReadOp):
        missing = tuple(
            w.message_id for w in _session_writes(trace, r.agent)
            if w.response_local <= r.invoke_local
            and w.message_id not in r.observed)
        if missing:
            found[r.agent, trace.corrected_response(r), missing] += 1
    return found


def oracle_mw(trace):
    """∃ x, y ∈ W : W(x) ≺ W(y) ∧ y ∈ S ∧ (x ∉ S ∨ S(y) ≺ S(x))."""
    found = Counter()
    for _, r in _indexed(trace, ReadOp):
        for writer in trace.agents:
            session = [
                w.message_id for w in _session_writes(trace, writer)
                if trace.corrected_response(w)
                <= trace.corrected_invoke(r)]
            missing, reordered = [], []
            for i, x in enumerate(session):
                for y in session[i + 1:]:
                    if y not in r.observed:
                        continue
                    if x not in r.observed:
                        if x not in missing:
                            missing.append(x)
                    elif r.observed.index(y) < r.observed.index(x):
                        reordered.append((x, y))
            if missing or reordered:
                found[r.agent, trace.corrected_response(r), writer,
                      tuple(missing), tuple(reordered)] += 1
    return found


def oracle_mr(trace):
    """∃ x ∈ S1 : x ∉ S2 for an earlier read S1 of the same client."""
    found = Counter()
    for agent in trace.agents:
        reads = _session_reads(trace, agent)
        for j, second in enumerate(reads):
            missing = {x for first in reads[:j] for x in first.observed
                       if x not in second.observed}
            if missing:
                found[agent, trace.corrected_response(second),
                      tuple(sorted(missing))] += 1
    return found


def _follows(trace, w):
    """Ids ``w`` causally follows (trigger map, else prior reads).

    Generic mode: what the author observed in reads that completed
    before ``w`` was invoked *and* responded strictly before ``w`` did
    — the canonical-order definition of the exact tie.
    """
    if trace.wfr_triggers:
        return trace.wfr_triggers.get(w.message_id, frozenset())
    return {
        x for _, r in _indexed(trace, ReadOp, w.agent)
        if r.response_local <= w.invoke_local
        and trace.corrected_response(r) < trace.corrected_response(w)
        for x in r.observed
    } - {w.message_id}


def oracle_wfr(trace):
    """w ∈ S2 ∧ ∃ x ∈ S1 : x ∉ S2, w written after observing S1."""
    follows = {w.message_id: _follows(trace, w)
               for _, w in _indexed(trace, WriteOp)}
    found = Counter()
    for _, r in _indexed(trace, ReadOp):
        for message_id in r.observed:
            missing = set(follows.get(message_id, ())) - set(r.observed)
            if missing:
                found[r.agent, trace.corrected_response(r), message_id,
                      tuple(sorted(missing))] += 1
    return found


def _content_diverged(s1, s2):
    """∃ x ∈ S1, y ∈ S2 : x ∉ S2 ∧ y ∉ S1."""
    return any(x not in s2 for x in s1) and any(y not in s1 for y in s2)


def _order_diverged(s1, s2):
    """∃ x, y ∈ S1, S2 : S1(x) ≺ S1(y) ∧ S2(y) ≺ S2(x)."""
    common = [x for x in s1 if x in s2]
    return any(s1.index(x) < s1.index(y) and s2.index(y) < s2.index(x)
               for x in common for y in common)


def oracle_divergence(trace, diverged):
    """Per sorted agent pair: divergent (read, read) count, first pair."""
    found = {}
    for first, second in trace.agent_pairs():
        left, right = sorted((first, second))
        pairs = [(ra, rb) for ra in _session_reads(trace, left)
                 for rb in _session_reads(trace, right)
                 if diverged(ra.observed, rb.observed)]
        if pairs:
            ra, rb = pairs[0]
            later = ra if ra.response_local >= rb.response_local else rb
            found[left, right] = (len(pairs), ra.observed, rb.observed,
                                  trace.corrected_response(later))
    return found


# -- check(trace) reduced to the same shape -----------------------------------


def assert_matches_oracles(trace):
    report = check_all(trace).observations

    def keyed(kind, *evidence):
        return Counter(
            (obs.agent, obs.time, *(obs.details[k] for k in evidence))
            for obs in report[kind])

    assert keyed("read_your_writes", "missing") == oracle_ryw(trace)
    assert keyed("monotonic_writes", "writer", "missing",
                 "reordered") == oracle_mw(trace)
    assert keyed("monotonic_reads", "missing") == oracle_mr(trace)
    assert keyed("writes_follow_reads", "write",
                 "missing_dependencies") == oracle_wfr(trace)
    for kind, diverged in (("content_divergence", _content_diverged),
                           ("order_divergence", _order_diverged)):
        assert {
            obs.pair: (obs.details["divergent_read_pairs"],
                       obs.details["example"]["left_observed"],
                       obs.details["example"]["right_observed"],
                       obs.time)
            for obs in report[kind]
        } == oracle_divergence(trace, diverged)
        assert all(obs.agent == obs.pair[0] for obs in report[kind])


# -- Corpora -------------------------------------------------------------------


@st.composite
def skewed_traces(draw):
    """``arbitrary_traces`` plus clock skew and explicit WFR triggers."""
    trace = draw(arbitrary_traces())
    trace.clock_deltas = {
        agent: draw(st.floats(-3.0, 3.0)) for agent in AGENTS}
    if draw(st.booleans()):
        ids = sorted(trace.message_ids())
        trace.wfr_triggers = draw(st.dictionaries(
            st.sampled_from(ids),
            st.frozensets(st.sampled_from(ids), min_size=1, max_size=2),
            max_size=3))
    return trace


@st.composite
def gridded_traces(draw):
    """Integer instants and skews: exact ties everywhere.

    Reads may take zero time and often repeat an earlier view; writes
    always take positive time (every real trace's do, and a
    zero-duration write is the tie the canonical order *defines* —
    pinned by example below).
    """
    operations, issued, views = [], [], []
    for index in range(draw(st.integers(3, 14))):
        agent = draw(st.sampled_from(AGENTS))
        at = float(draw(st.integers(0, 6)))
        if issued and draw(st.booleans()):
            # Agents poll: half the reads repeat an earlier view, so
            # multiplicity counting is exercised, not just reached.
            if views and draw(st.booleans()):
                observed = draw(st.sampled_from(views))
            else:
                observed = draw(st.permutations(draw(st.lists(
                    st.sampled_from(issued), unique=True))))
                views.append(observed)
            operations.append(read(
                agent, observed, at,
                response=at + draw(st.integers(0, 2))))
        else:
            issued.append(f"m{index}")
            operations.append(write(
                agent, issued[-1], at,
                response=at + draw(st.integers(1, 2))))
    return make_trace(operations, agents=AGENTS, clock_deltas={
        agent: float(draw(st.integers(-2, 2))) for agent in AGENTS})


class TestChecksMatchOracles:
    @settings(max_examples=200, deadline=None)
    @given(trace=skewed_traces())
    def test_skewed_arbitrary_traces(self, trace):
        assert_matches_oracles(trace)

    @settings(max_examples=300, deadline=None)
    @given(trace=gridded_traces())
    def test_heavily_tied_traces(self, trace):
        assert_matches_oracles(trace)

    @pytest.mark.parametrize("seed", range(30))
    def test_adversarial_random_traces(self, seed):
        assert_matches_oracles(random_trace(seed))

    def test_polling_agents_count_every_read_pair(self):
        """Repeated views on both sides: 2 x 3 divergent read pairs for
        content, and the same views in swapped order for order."""
        writes = [write("ireland", "m1", 0.0), write("ireland", "m2", 0.0)]
        for left, right in ((("m1",), ("m2",)),
                            (("m1", "m2"), ("m2", "m1"))):
            trace = make_trace(writes + [
                read("tokyo", right, 1.0), read("tokyo", right, 2.0),
                read("oregon", left, 3.0), read("tokyo", right, 4.0),
                read("oregon", left, 5.0),
            ])
            assert_matches_oracles(trace)
            counts = [obs.details["divergent_read_pairs"]
                      for obs in check_all(trace).observations[
                          "content_divergence" if len(left) == 1
                          else "order_divergence"]]
            assert counts == [6]


class TestTieBreakIsTheDefinition:
    """One example per predicate whose verdict hangs on the exact tie
    canonical stream order defines: writes first."""

    def test_ryw_read_at_the_ack_instant_is_held_to_the_write(self):
        trace = make_trace([
            read("oregon", (), 1.0, response=1.0),
            write("oregon", "m1", 0.5, response=1.0),
        ])
        (obs,) = check_all(trace).observations["read_your_writes"]
        assert obs.details["missing"] == ("m1",)

    def test_mw_read_at_the_ack_instant_sees_the_session_prefix(self):
        trace = make_trace([
            write("oregon", "m1", 0.0, response=0.5),
            read("tokyo", ("m2",), 1.0, response=1.0),
            write("oregon", "m2", 0.6, response=1.0),
        ])
        (obs,) = check_all(trace).observations["monotonic_writes"]
        assert obs.details["writer"] == "oregon"
        assert obs.details["missing"] == ("m1",)

    def test_wfr_zero_duration_write_does_not_follow_a_tied_read(self):
        """Generic mode: m2 lands exactly on the response instant of
        its author's read of m1, so it does not follow that read —
        seeing m2 without m1 is no anomaly.  One tick later it is."""
        def trace(write_at):
            return make_trace([
                write("oregon", "m1", 0.0),
                read("tokyo", ("m1",), 0.5, response=1.0),
                write("tokyo", "m2", write_at, response=write_at),
                read("ireland", ("m2",), 2.0),
            ])

        tied = check_all(trace(1.0)).observations
        assert tied["writes_follow_reads"] == []
        (obs,) = check_all(trace(1.5)).observations[
            "writes_follow_reads"]
        assert obs.details["write"] == "m2"
        assert obs.details["missing_dependencies"] == ("m1",)


class TestStateDrains:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_consumer_is_empty_after_close(self, seed):
        trace = random_trace(seed)
        consumers = [
            *default_checkers(),
            WindowTracker("content", views_content_diverged),
            StreamingMetricEvaluator(resolve_metrics(metric_names())),
        ]
        run_to_completion(consumers, trace)
        assert [c.state_size() for c in consumers] == [0] * len(consumers)
        for checker in default_checkers():
            checker.check(trace)
            assert checker.state_size() == 0

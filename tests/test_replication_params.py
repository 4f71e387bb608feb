"""Every substrate ``*Params`` field fails closed on a bad value.

A scenario's ``[service.params]`` reaches these dataclasses directly,
so a value out of range must be a :class:`ConfigurationError` naming
the field at construction — not a run that hangs (a zero cadence
reschedules itself at one instant forever) or dies mid-campaign on an
untyped ``ValueError`` from a random draw.
"""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.replication import (
    EventualParams,
    GossipParams,
    GroupStoreParams,
    QuorumParams,
    RankedFeedParams,
)

#: (params class, field, a value its range refuses) — one row per
#: field: probabilities get 1.5, times 0.0, sigmas -0.1, counts 0.
ROWS = [
    (EventualParams, "sync_interval", 0.0),
    (EventualParams, "sync_delay_median", 0.0),
    (EventualParams, "sync_delay_sigma", -0.1),
    (EventualParams, "backend_count", 0),
    (EventualParams, "backend_lag_prob", 1.5),
    (EventualParams, "backend_lag_median", 0.0),
    (EventualParams, "backend_lag_sigma", -0.1),
    (EventualParams, "backend_verylag_prob", 1.5),
    (EventualParams, "backend_verylag_mean", 0.0),
    (EventualParams, "straggler_prob", 1.5),
    (EventualParams, "straggler_extra_mean", 0.0),
    (EventualParams, "stale_snapshot_prob", 1.5),
    (EventualParams, "stale_snapshot_age_mean", 0.0),
    (EventualParams, "tail_insert_prob", 1.5),
    (EventualParams, "repair_delay_mean", 0.0),
    (EventualParams, "antientropy_interval", 0.0),
    (EventualParams, "antientropy_min_age", 0.0),
    (EventualParams, "session_order_violation_prob", 1.5),
    (EventualParams, "retention", 0.0),
    (GossipParams, "gossip_interval", 0.0),
    (GossipParams, "fanout", 0),
    (GossipParams, "rumor_delay_median", 0.0),
    (GossipParams, "rumor_delay_sigma", -0.1),
    (GossipParams, "antientropy_interval", 0.0),
    (GossipParams, "antientropy_min_age", 0.0),
    (GossipParams, "read_lb_prob", 1.5),
    (GossipParams, "retention", 0.0),
    (RankedFeedParams, "feed_size", 0),
    (RankedFeedParams, "index_lag_median", 0.0),
    (RankedFeedParams, "index_lag_sigma", -0.1),
    (RankedFeedParams, "noise_sd", -0.1),
    (RankedFeedParams, "noise_period", 0.0),
    (RankedFeedParams, "drop_prob", 1.5),
    (RankedFeedParams, "retention", 0.0),
    (GroupStoreParams, "commit_delay", 0.0),
    (GroupStoreParams, "lag_spike_prob", 1.5),
    (GroupStoreParams, "lag_spike_mean", 0.0),
    (GroupStoreParams, "stale_read_prob", 1.5),
    (GroupStoreParams, "stale_read_age", 0.0),
    (GroupStoreParams, "antientropy_interval", 0.0),
    (GroupStoreParams, "retention", 0.0),
    (QuorumParams, "replicas", 0),
    (QuorumParams, "read_quorum", 0),
    (QuorumParams, "write_quorum", 0),
    (QuorumParams, "rpc_timeout", 0.0),
    (QuorumParams, "apply_delay_median", 0.0),
    (QuorumParams, "apply_delay_sigma", -0.1),
    (QuorumParams, "retention", 0.0),
]

#: Fields with no range: any real number means something.
FREE = {(RankedFeedParams, "recency_weight")}


def row_id(row):
    cls, name, value = row
    return f"{cls.__name__}.{name}={value}"


@pytest.mark.parametrize("cls, name, value", ROWS, ids=map(row_id, ROWS))
def test_bad_value_is_refused_by_name(cls, name, value):
    with pytest.raises(ConfigurationError,
                       match=rf"^{cls.__name__}\.{name} must be "):
        cls(**{name: value})


@pytest.mark.parametrize("cls", sorted({row[0] for row in ROWS},
                                       key=lambda cls: cls.__name__))
def test_every_field_has_a_row(cls):
    covered = {name for owner, name, _value in ROWS if owner is cls}
    free = {name for owner, name in FREE if owner is cls}
    fields = {entry.name for entry in dataclasses.fields(cls)}
    assert covered | free == fields
    cls()  # the defaults are in range


@pytest.mark.parametrize("name", ["straggler_prob", "sync_interval",
                                  "sync_delay_sigma"])
def test_nan_is_refused(name):
    with pytest.raises(ConfigurationError, match=name):
        EventualParams(**{name: math.nan})


@pytest.mark.parametrize("name", ["read_quorum", "write_quorum"])
def test_quorum_cannot_exceed_the_replicas(name):
    with pytest.raises(ConfigurationError,
                       match=rf"QuorumParams\.{name} must be <= "
                             r"replicas=3, got 4"):
        QuorumParams(**{name: 4})

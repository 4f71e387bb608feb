"""Obs export oracle: the same telemetry, byte for byte.

``tools/gates.py obs`` compares two runs of the *same* code with each
other, so a change to how spans or metrics are stored or written that
moves every export alike passes it.  This test pins the SHA-256 of the
``export_snapshot`` bytes of one small campaign per paper service, and
of a two-shard fleet's merged export at ``jobs=2`` (shards merged in
spec order across worker processes).  The digests were recorded while
the tracer still kept ``Span`` objects and rebuilt their dicts at every
snapshot; a change that keeps every campaign signature but drops,
reorders or re-encodes one span or metric fails here.
"""

import hashlib

import pytest

from repro.fleet import FleetSpec, run_fleet
from repro.methodology import CampaignConfig, run_campaign
from repro.obs.export import export_snapshot

CONFIG = CampaignConfig(num_tests=2, seed=11)

#: service -> (export sha256, spans)
PINNED = {
    "blogger": (
        "3564e4e867a96827db7f91e2679956e36d0c5f27c88e1018e2e782c5dfab2a95",
        225,
    ),
    "facebook_feed": (
        "7174ece42646054ab62b47a0e3df44b15a64df34ad9b770be4d798d5f4bac8f6",
        363,
    ),
    "facebook_group": (
        "922a392d4f60700d59b88cad5d3daf67dea1621594d30a6a40c712a0528bb0c6",
        380,
    ),
    "googleplus": (
        "5b29f3d22e6e4aef97bbf4691b19861648a33b339bb9a5a47f943386890bf5b4",
        498,
    ),
}

#: Two blogger shards (seeds 11 and 12) merged in spec order.
FLEET_PINNED = (
    "b03115ce7a7f7f3dbaa90a70683c3822ea2874c99270268682b680b0c32f2407",
    453,
)


def export_digest(snapshot, tmp_path):
    path = tmp_path / "oracle.obs.jsonl"
    export_snapshot(snapshot, path)
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            len(snapshot["spans"]))


@pytest.mark.parametrize("service", sorted(PINNED))
def test_campaign_export_bytes_are_pinned(service, tmp_path):
    snapshot = run_campaign(service, CONFIG, spans=True).obs
    assert export_digest(snapshot, tmp_path) == PINNED[service]


def test_two_shard_fleet_merged_export_is_pinned(tmp_path):
    spec = FleetSpec(services=("blogger",), base_config=CONFIG,
                     seeds=(11, 12))
    merged = run_fleet(spec, jobs=2).merged_obs()
    assert export_digest(merged, tmp_path) == FLEET_PINNED

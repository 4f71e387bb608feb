"""One contract for every on-disk store: damaged bytes fail closed.

The fleet :class:`ArtifactStore` (which is also the checkpoint of
every calibration rung) and the serve :class:`HuntStore` take bytes
from outside the program.  Whatever is wrong with a file — not JSON,
JSON of the wrong shape, a foreign binding, a digest that no longer
verifies, a feed line torn by a kill mid-append — the store must
raise its own typed error naming the file, never a bare
``AttributeError`` / ``KeyError`` / ``json.JSONDecodeError``.  One
table holds both stores to that.
"""

import json

import pytest

from repro.errors import FleetError
from repro.fleet import ArtifactStore, FleetSpec
from repro.methodology import CampaignConfig
from repro.serve import HuntSpec, HuntState, HuntStore

SPEC = FleetSpec(
    services=("blogger",), seeds=(1,),
    base_config=CampaignConfig(num_tests=1, seed=0,
                               test_types=("test1",)),
)
JOB = SPEC.jobs()[0]
SHARD_FILE = f"shards/{JOB.shard_id}.jsonl"
HUNT_FILE = "hunts/h0000/hunt.json"
EVENTS_FILE = "hunts/h0000/events.jsonl"


def build_fleet(root):
    store = ArtifactStore(root)
    store.initialize(SPEC)
    store.write_shard(JOB, [{"test_id": "t0"}])


def probe_fleet(root):
    store = ArtifactStore(root)
    store.initialize(SPEC)
    store.load_shard_records(JOB.shard_id)


def build_hunt(root):
    store = HuntStore(root)
    spec = HuntSpec(services=("blogger",), num_tests=1,
                    test_types=("test1",))
    store.save(HuntState(hunt_id="h0000", spec=spec))
    store.append_event("h0000", "tick")


def probe_hunt(root):
    store = HuntStore(root)
    store.load("h0000")
    list(store.events("h0000"))
    store.append_event("h0000", "tick")


STORES = {
    "fleet": (build_fleet, probe_fleet),
    "hunt": (build_hunt, probe_hunt),
}


def document(**fields):
    return json.dumps(fields).encode("utf-8")


EVENT = b'{"event":"tick","hunt_id":"h0000","seq":0}\n'

#: (store, file, bytes written over it, expected error, what the
#: message must name).
DAMAGE_CASES = (
    ("fleet", "manifest.json", b"{not json",
     FleetError, "manifest.json"),
    ("fleet", "manifest.json", b"[]",
     FleetError, "manifest.json"),
    ("fleet", "manifest.json",
     document(store_version=99, spec_hash="x", shards={}),
     FleetError, "manifest.json"),
    ("fleet", "manifest.json", document(store_version=1),
     FleetError, "manifest.json"),
    ("fleet", "manifest.json",
     document(store_version=1, spec_hash=SPEC.spec_hash()),
     FleetError, "manifest.json"),
    ("fleet", "manifest.json",
     document(store_version=1, spec_hash="f" * 64, shards={}),
     FleetError, "belongs to spec ffffffffffff"),
    ("fleet", SHARD_FILE, b'{"test_id": "tampered"}\n',
     FleetError, "corrupt"),
    ("hunt", HUNT_FILE, b"{not json", FleetError, "hunt.json"),
    ("hunt", HUNT_FILE, b"[]", FleetError, "hunt.json"),
    ("hunt", HUNT_FILE, document(store_version=99),
     FleetError, "hunt.json"),
    ("hunt", HUNT_FILE,
     document(store_version=1, digest="sha256:0", hunt={}),
     FleetError, "hunt.json"),
    ("hunt", EVENTS_FILE, EVENT + b'{"seq": 1, "eve',
     FleetError, "events.jsonl:2"),
    ("hunt", EVENTS_FILE, EVENT + b'{"event": "tick"}\n',
     FleetError, "events.jsonl:2"),
    ("hunt", EVENTS_FILE, b"[]\n", FleetError, "events.jsonl:1"),
)


def test_damaged_store_files_raise_the_typed_error(tmp_path):
    for number, (kind, name, damage, error, names) in \
            enumerate(DAMAGE_CASES):
        case = f"case {number}: {kind} {name} <- {damage[:32]!r}"
        build, probe = STORES[kind]
        root = tmp_path / f"case{number}"
        build(root)
        probe(root)  # healthy as built: the damage is what raises
        assert (root / name).is_file(), case
        (root / name).write_bytes(damage)
        with pytest.raises(error) as caught:
            probe(root)
        message = str(caught.value)
        assert names in message, f"{case}: {message}"
        assert str(root) in message, f"{case}: {message}"

"""One contract for every on-disk store: damaged bytes fail closed.

The fleet :class:`ArtifactStore` (which is also the checkpoint of
every calibration rung), the serve :class:`HuntStore` and a saved
campaign file (``run --campaign-out``, read back by ``report``) take
bytes from outside the program.  Whatever is wrong with a file — not
JSON, JSON of the wrong shape, a foreign binding, a digest that no
longer verifies, a feed line torn by a kill mid-append — the store
must raise its own typed error naming the file, never a bare
``AttributeError`` / ``KeyError`` / ``json.JSONDecodeError``.  One
table holds every store to that.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import AnalysisError, FleetError
from repro.fleet import ArtifactStore, FleetSpec
from repro.io import (
    SCHEMA_VERSION,
    load_campaign,
    save_campaign,
    write_digest_jsonl,
)
from repro.methodology import CampaignConfig, run_campaign
from repro.obs.export import export_snapshot
from repro.serve import HuntSpec, HuntState, HuntStore
from repro.serve.store import HUNT_STORE_VERSION

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


CAMPAIGN = run_campaign("blogger", CampaignConfig(
    num_tests=1, seed=0, test_types=("test1",)))
CAMPAIGN_FILE = "campaign.jsonl"


def build_campaign(root):
    save_campaign(CAMPAIGN, root / CAMPAIGN_FILE)


def probe_campaign(root):
    load_campaign(root / CAMPAIGN_FILE)


STORES = {
    "fleet": (build_fleet, probe_fleet),
    "hunt": (build_hunt, probe_hunt),
    "campaign": (build_campaign, probe_campaign),
}


def written(write) -> bytes:
    """The bytes ``write(path)`` leaves at a fresh ``path``."""
    with tempfile.TemporaryDirectory() as scratch:
        return write(Path(scratch) / "f").read_bytes()


def digest_valid(payloads, kind, schema_version) -> bytes:
    return written(lambda path: write_digest_jsonl(
        path, payloads, kind=kind, schema_version=schema_version))


HUNT_LACKING_STATUS = digest_valid(
    [{"hunt_id": "h0000", "spec": {"services": ["blogger"]}}],
    "hunt", HUNT_STORE_VERSION)

CAMPAIGN_BYTES = written(lambda path: save_campaign(CAMPAIGN, path))
_, CAMPAIGN_HEAD, CAMPAIGN_RECORD = [
    json.loads(line) for line in CAMPAIGN_BYTES.splitlines()]
#: One byte of the last record line, flipped.
FLIPPED = bytearray(CAMPAIGN_BYTES)
FLIPPED[-3] ^= 1
LACKING_DURATION = digest_valid(
    [CAMPAIGN_HEAD, {key: value for key, value
                     in CAMPAIGN_RECORD.items() if key != "duration"}],
    "campaign", SCHEMA_VERSION)
#: A digest-valid file whose config names a metric the registry no
#: longer has (``read_your_writes`` was one until the checkers' own
#: counts replaced it).
NAMING_A_REMOVED_METRIC = digest_valid(
    [{**CAMPAIGN_HEAD, "config": {**CAMPAIGN_HEAD["config"],
                                  "metrics": ["read_your_writes"]}},
     CAMPAIGN_RECORD],
    "campaign", SCHEMA_VERSION)
#: What ``save_campaign`` wrote before campaign files were digest JSONL.
VERSION_ONE = json.dumps(
    {"schema_version": 1, **CAMPAIGN_HEAD, "records": [CAMPAIGN_RECORD]},
    indent=1, sort_keys=True).encode()
OBS_EXPORT = written(lambda path: export_snapshot(CAMPAIGN.obs, path))


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
    ("hunt", HUNT_FILE, HUNT_LACKING_STATUS, FleetError,
     "hunt.json: KeyError: 'status'"),
    ("campaign", CAMPAIGN_FILE, CAMPAIGN_BYTES[:-20], AnalysisError,
     "digest"),
    ("campaign", CAMPAIGN_FILE, bytes(FLIPPED), AnalysisError, "digest"),
    ("campaign", CAMPAIGN_FILE, LACKING_DURATION, AnalysisError,
     "campaign.jsonl: line 3: malformed campaign line: "
     "KeyError: 'duration'"),
    ("campaign", CAMPAIGN_FILE, NAMING_A_REMOVED_METRIC, AnalysisError,
     "campaign.jsonl: line 2: malformed campaign line: "
     "ConfigurationError: unknown consistency metric "
     "'read_your_writes'"),
    ("campaign", CAMPAIGN_FILE, VERSION_ONE, AnalysisError,
     "campaign.jsonl: unreadable digest header"),
    ("campaign", CAMPAIGN_FILE, OBS_EXPORT, AnalysisError,
     "kind 'obs' is not 'campaign'"),
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


def test_report_on_a_missing_campaign_file_is_one_line(tmp_path,
                                                       capsys):
    path = tmp_path / "nope.jsonl"
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"report: {path}: cannot read: ")


def test_report_on_a_damaged_campaign_file_is_one_line(tmp_path,
                                                       capsys):
    path = tmp_path / CAMPAIGN_FILE
    path.write_bytes(CAMPAIGN_BYTES[:-20])
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("report: ")
    assert str(path) in line


def test_report_on_a_campaign_naming_a_removed_metric_is_one_line(
        tmp_path, capsys):
    path = tmp_path / CAMPAIGN_FILE
    path.write_bytes(NAMING_A_REMOVED_METRIC)
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"report: {path}: line 2: ")
    assert "read_your_writes" in line

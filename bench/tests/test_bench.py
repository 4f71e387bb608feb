"""The benchmark's own checks, at toy scale (< 30 s).

One ``--smoke`` suite run executes every workload and the traced path;
the rest of the file reads what it left behind, or drives single
pieces in-process.
"""

import json
import re
import subprocess
import sys

import pytest

from bench import compare
from bench.calibration import NOMINAL_S, rescaled
from bench.seams import _HANDOVER_SEAMS, UNIT_SEAMS, patched
from bench.spec import ROOT, SIZES, load_contract, workload_names
from bench.tracing import END, START, Tracer, read_spans, self_times
from bench.workloads import WORKLOADS

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

CONTRACT = load_contract()
NAMES = workload_names(CONTRACT)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *map(str, args)], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """One traced smoke suite: (result dict, output directory)."""
    out_dir = tmp_path_factory.mktemp("bench-out")
    done = _bench("--smoke", "--trace", "--repeats", 1, "--seconds",
                  0.1, "--seed", 5, "--out-dir", out_dir)
    assert done.returncode == 0, done.stderr
    result = json.loads((out_dir / "result-seed5.json").read_text())
    return result, out_dir, done.stdout


# -- The contract file --------------------------------------------------


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert NAMES == ["campaign_blogger", "campaign_gplus",
                     "campaign_feed", "replay_batch", "replay_stream",
                     "world_gossip"]
    assert len(CONTRACT["end_to_end"]) <= 16
    assert len(CONTRACT["per_layer"]) <= 128
    names = NAMES + [metric["name"] for section in
                     ("end_to_end", "per_layer")
                     for metric in CONTRACT[section]]
    assert len(set(names)) == len(names)
    assert all(NAME_RE.fullmatch(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for section in ("end_to_end", "per_layer"):
        for metric in CONTRACT[section]:
            assert UNIT_RE.fullmatch(metric["unit"])
            assert metric["better"] in ("lower", "higher")
    setup = [metric for metric in CONTRACT["end_to_end"]
             if metric["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(metric["bound"] for metric
                                   in CONTRACT["end_to_end"])}]
    assert set(WORKLOADS) == set(NAMES)
    assert all(set(sizes) == set(SIZES["full"])
               for sizes in SIZES.values())
    assert SIZES["full"]["campaign_gplus"] == 15


# -- Every metric, every workload ---------------------------------------


def test_suite_emits_every_metric_with_its_unit(smoke):
    result, _, stdout = smoke
    header = result["header"]
    assert {"nproc", "python", "loadavg_1m", "commit"} <= set(header)
    for name in NAMES:
        entry = result["workloads"][name]
        assert entry["failed_share"] == 0, name
        assert entry["signature"] == entry["traced_signature"]
        for section, key in (("end_to_end", "median"),
                             ("per_layer", "value")):
            for metric in CONTRACT[section]:
                emitted = entry[section][metric["name"]]
                assert emitted["unit"] == metric["unit"]
                assert isinstance(emitted[key], (int, float))
                assert metric["name"] in stdout
        assert entry["end_to_end"]["signature_stable"]["median"] == 1
        for metric in ("wall_s", "ops_per_s", "peak_rss_mb", "setup_s"):
            assert entry["end_to_end"][metric]["median"] > 0


def test_layers_off_a_workloads_path_report_no_work(smoke):
    result, _, _ = smoke
    for name in ("replay_batch", "replay_stream"):
        layers = result["workloads"][name]["per_layer"]
        for metric, value in layers.items():
            if metric.split(".")[0] in ("sim", "net", "webapi"):
                assert value["value"] == 0, (name, metric)
        assert layers["relations.eval_s"]["value"] > 0
        assert layers["io.parse_s"]["value"] > 0
        assert layers["fleet.shards"]["value"] == 8
    gossip = result["workloads"]["world_gossip"]["per_layer"]
    assert gossip["world.max_stream_state"]["value"] == 1
    assert gossip["webapi.requests"]["value"] == 0
    feed = result["workloads"]["campaign_feed"]["per_layer"]
    assert feed["replication.reads"]["value"] > 0
    assert feed["webapi.requests"]["value"] >= \
        feed["agents.ops"]["value"] > 0
    for name in NAMES:
        layers = result["workloads"][name]["per_layer"]
        assert 0 <= layers["trace.unattributed_share"]["value"] < 1
        assert layers["trace.overhead_ratio"]["value"] > 0


def test_both_replay_paths_reproduce_the_same_records(smoke):
    result, _, _ = smoke
    workloads = result["workloads"]
    assert workloads["replay_batch"]["signature"] == \
        workloads["replay_stream"]["signature"]
    assert workloads["replay_batch"]["ops"] == \
        workloads["replay_stream"]["ops"]


def test_contract_line_of_a_single_run(tmp_path):
    done = _bench("--workload", "campaign_blogger", "--seed", 4,
                  "--seconds", 0.1, "--trace", 0, "--smoke",
                  "--out-dir", tmp_path)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {metric["name"] for metric
                                    in CONTRACT["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "bench").mkdir()
    for source in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / source.name).write_text(source.read_text())
    done = _bench("--workload", "world_gossip", "--seed", 1, "--seconds",
                  1, "--trace", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# -- Span trees ---------------------------------------------------------


def test_span_trees_are_well_formed(smoke):
    _, out_dir, _ = smoke
    for name in NAMES:
        spans = read_spans(out_dir / f"trace-{name}.jsonl")
        assert spans[0][0] == "unit" and spans[0][3] == -1
        roots = 0.0
        for index, (_, start, end, parent) in enumerate(spans):
            assert end >= start
            if parent < 0:
                roots += end - start
                continue
            assert parent < index
            assert spans[parent][START] <= start
            assert end <= spans[parent][END]
        own = self_times(spans)
        assert min(own) >= -1e-9
        assert sum(own) == pytest.approx(roots, rel=0.01)


def test_self_times_subtract_direct_children_only():
    spans = [["unit", 0.0, 10.0, -1], ["sim.run_until", 1.0, 7.0, 0],
             ["net.rpc", 2.0, 4.0, 1], ["io.load", 8.0, 9.0, 0]]
    assert self_times(spans) == [3.0, 4.0, 2.0, 1.0]


# -- Seams --------------------------------------------------------------


def _seam_attributes():
    return [(owner, attribute) for owner, attribute, *_ in
            UNIT_SEAMS + _HANDOVER_SEAMS]


def test_seams_are_public_and_restored_when_the_workload_raises():
    before = [vars(owner)[attribute]
              for owner, attribute in _seam_attributes()]
    assert not any(attribute.startswith("_")
                   for _, attribute in _seam_attributes())
    with pytest.raises(RuntimeError):
        with patched(Tracer()):
            patched_now = [vars(owner)[attribute]
                           for owner, attribute in _seam_attributes()]
            assert all(new is not old for new, old
                       in zip(patched_now, before))
            raise RuntimeError("workload failed")
    after = [vars(owner)[attribute]
             for owner, attribute in _seam_attributes()]
    assert all(new is old for new, old in zip(after, before))


# -- Correctness wiring -------------------------------------------------


def test_corrupt_archive_line_is_a_failed_share_not_a_traceback(tmp_path):
    batch, stream = WORKLOADS["replay_batch"], WORKLOADS["replay_stream"]
    archive = batch.prepare(7, SIZES["smoke"], tmp_path, fresh=True)
    clean = batch.unit(archive)
    assert clean.failed == 0 and clean.attempted == 16
    assert stream.unit(archive).signature == clean.signature

    path = archive.store.trace_path(archive.jobs[0].shard_id)
    lines = path.read_text().splitlines()
    lines[5] = lines[5][: len(lines[5]) // 2]
    path.write_text("\n".join(lines) + "\n")
    for workload in (batch, stream):
        damaged = workload.unit(archive)
        assert 0 < damaged.failed < damaged.attempted
        assert damaged.signature != clean.signature


def test_signature_drift_is_a_note_not_a_failure(tmp_path, monkeypatch,
                                                 capsys):
    from bench import runner

    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({
        "seed": 3, "size": "full",
        "workloads": {"world_gossip": {"signature": "a" * 64,
                                       "ops": 5000,
                                       "world.epochs": 21}}}))
    monkeypatch.setattr(runner, "GOLDEN", golden)
    outcome = {"signatures": ["b" * 64], "ops": 5000, "attempted": 10,
               "failed": 0}
    run = runner._settle(outcome, "world_gossip", 3, "full")
    assert run["signature_drift"] and run["correct"]
    assert "signature_drift" in capsys.readouterr().err
    assert not runner._settle(outcome, "world_gossip", 4,
                              "full")["signature_drift"]
    outcome["signatures"] = ["a" * 64]
    assert not runner._settle(outcome, "world_gossip", 3, "full",
                              {"world.epochs": 21})["signature_drift"]
    assert runner._settle(outcome, "world_gossip", 3, "full",
                          {"world.epochs": 22})["signature_drift"]
    # Repeats that disagree fail every unit of the workload.
    outcome["signatures"] = ["a" * 64, "b" * 64]
    unstable = runner._settle(outcome, "world_gossip", 3, "full")
    assert unstable["failed"] == 10 and not unstable["correct"]
    assert unstable["signature_stable"] == 0


def test_checked_in_golden_covers_every_workload():
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    assert golden["size"] == "full"
    assert set(golden["workloads"]) == set(NAMES)
    assert golden["workloads"]["replay_batch"]["signature"] == \
        golden["workloads"]["replay_stream"]["signature"]


# -- Calibration and comparison -----------------------------------------


def test_rescaled_cancels_machine_speed():
    raw = [1.0, 2.0, 1.0]
    assert rescaled(raw, [NOMINAL_S] * 4) == 1.0
    slow = [2 * seconds for seconds in raw]
    assert rescaled(slow, [2 * NOMINAL_S] * 4) == 1.0
    with pytest.raises(ValueError):
        rescaled(raw, [NOMINAL_S] * 3)


def _result(wall=(1.0, 1.01, 0.99), events=100, signature="s"):
    def summary(values):
        return {"median": sorted(values)[len(values) // 2],
                "values": list(values)}

    entry = {
        "signature": signature, "ops": 10, "failed_share": 0.0,
        "end_to_end": {
            "wall_s": summary(wall),
            "ops_per_s": summary([10 / value for value in wall]),
            "peak_rss_mb": summary([30.0, 30.0, 30.0]),
            "setup_s": summary([0.3, 0.3, 0.3]),
            "signature_stable": summary([1]),
        },
        "per_layer": {"sim.events": {"value": events, "unit": "count"},
                      "sim.self_s": {"value": 0.5, "unit": "s"}},
    }
    return {"workloads": {name: entry for name in NAMES}}


def _verdicts(before, after, metric):
    return {row["verdict"] for row in
            compare.compare(before, after, CONTRACT)
            if row["metric"] == metric}


def test_compare_verdicts(tmp_path, capsys):
    base = _result()
    assert _verdicts(base, base, "wall_s") == {"same"}
    assert _verdicts(base, _result(wall=(1.3, 1.31, 1.29)),
                     "wall_s") == {"worse"}
    assert _verdicts(base, _result(wall=(0.7, 0.71, 0.69)),
                     "wall_s") == {"better"}
    assert _verdicts(_result(wall=(1.0, 1.4, 0.8)),
                     _result(wall=(1.05, 0.7, 1.3)),
                     "wall_s") == {"unresolved"}
    assert _verdicts(base, _result(events=101),
                     "sim.events") == {"differs"}
    assert _verdicts(base, _result(signature="t"),
                     "signature") == {"differs"}

    paths = []
    for name, result in (("a", base), ("b", _result(events=101))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(result))
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(paths[0]), str(paths[1])]) == 1
    assert "differs" in capsys.readouterr().out

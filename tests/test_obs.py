"""Tests for the observability layer (``repro.obs``).

Covers the metric/span primitives, snapshot merging, the
digest-validated export, campaign determinism (same seed ->
byte-identical export; serial == fleet-merged), the retry-accounting
contract between the API client's counters and the agent's spans, the
backward-compat aliases for the pre-unification telemetry imports, and
the ``repro-consistency obs`` CLI subcommand.
"""

import gc
import hashlib
import json
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agents.agent import MeasurementAgent
from repro.cli import build_parser, main
from repro.errors import AnalysisError, ConfigurationError
from repro.fleet import (
    ArtifactStore,
    FleetSpec,
    campaign_signature,
    run_fleet,
)
from repro.io import write_digest_jsonl
from repro.methodology import (
    CampaignConfig,
    MeasurementWorld,
    analyze_trace,
    run_campaign,
)
from repro.obs import (
    MetricsRegistry,
    ObsContext,
    Tracer,
    merge_metric_snapshots,
    merge_obs_snapshots,
)
from repro.obs.export import export_snapshot, load_snapshot
from repro.services.blogger import BloggerParams
from repro.sim import spawn
from repro.webapi import RateLimit

TINY = CampaignConfig(num_tests=2, seed=11, test_types=("test1",))


def make_registry():
    """A registry on a hand-cranked clock: set ``clock['t']`` to move."""
    clock = {"t": 0.0}
    return MetricsRegistry(now_fn=lambda: clock["t"]), clock


class TestCounters:
    def test_inc_accumulates_and_timestamps(self):
        registry, clock = make_registry()
        counter = registry.counter("ops", kind="read")
        clock["t"] = 1.5
        counter.inc()
        assert counter.value == 1
        assert counter.updated == 1.5
        counter.inc(2, at=9.0)
        assert counter.value == 3
        assert counter.updated == 9.0

    def test_negative_increment_rejected(self):
        registry, _ = make_registry()
        with pytest.raises(ConfigurationError):
            registry.counter("ops").inc(-1)

    def test_identity_is_name_plus_labels(self):
        registry, _ = make_registry()
        a = registry.counter("ops", kind="read")
        assert registry.counter("ops", kind="read") is a
        assert registry.counter("ops", kind="write") is not a

    def test_type_conflict_raises(self):
        registry, _ = make_registry()
        registry.counter("ops", kind="read")
        with pytest.raises(ConfigurationError):
            registry.gauge("ops", kind="read")


class TestHistograms:
    def test_bucketing_with_overflow(self):
        registry, _ = make_registry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(6.05)

    def test_buckets_must_ascend(self):
        registry, _ = make_registry()
        with pytest.raises(ConfigurationError):
            registry.histogram("lat", buckets=(1.0, 0.1))
        with pytest.raises(ConfigurationError):
            registry.histogram("lat", buckets=())

    def test_redefining_buckets_raises(self):
        registry, _ = make_registry()
        registry.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("lat", buckets=(0.5,))


class TestSnapshotsAndMerge:
    def test_snapshot_sorted_by_type_name_labels(self):
        registry, _ = make_registry()
        registry.gauge("b")
        registry.counter("z")
        registry.counter("a", x="2")
        registry.counter("a", x="1")
        keys = [(e["type"], e["name"], e["labels"])
                for e in registry.snapshot()]
        assert keys == [
            ("counter", "a", {"x": "1"}),
            ("counter", "a", {"x": "2"}),
            ("counter", "z", {}),
            ("gauge", "b", {}),
        ]

    def test_single_snapshot_merge_is_identity(self):
        registry, _ = make_registry()
        registry.counter("ops").inc(3, at=1.0)
        registry.gauge("depth").set(7, at=2.0)
        registry.histogram("lat", buckets=(0.5,)).observe(0.2, at=3.0)
        snapshot = registry.snapshot()
        assert merge_metric_snapshots([snapshot]) == snapshot

    def test_counters_sum_gauges_take_latest_writer(self):
        first, _ = make_registry()
        second, _ = make_registry()
        first.counter("ops").inc(2, at=1.0)
        second.counter("ops").inc(3, at=4.0)
        first.gauge("depth").set(10, at=5.0)
        second.gauge("depth").set(20, at=3.0)
        merged = {(e["type"], e["name"]): e
                  for e in merge_metric_snapshots(
                      [first.snapshot(), second.snapshot()])}
        assert merged[("counter", "ops")]["value"] == 5
        assert merged[("counter", "ops")]["updated"] == 4.0
        # The gauge's later write (t=5.0) wins regardless of order.
        assert merged[("gauge", "depth")]["value"] == 10

    def test_histograms_merge_elementwise(self):
        first, _ = make_registry()
        second, _ = make_registry()
        first.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        second.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        (entry,) = merge_metric_snapshots(
            [first.snapshot(), second.snapshot()]
        )
        assert entry["counts"] == [1, 1, 0]
        assert entry["count"] == 2
        assert entry["sum"] == pytest.approx(0.55)

    def test_histogram_bucket_mismatch_raises(self):
        first, _ = make_registry()
        second, _ = make_registry()
        first.histogram("lat", buckets=(0.1,)).observe(0.05)
        second.histogram("lat", buckets=(0.2,)).observe(0.05)
        with pytest.raises(AnalysisError):
            merge_metric_snapshots(
                [first.snapshot(), second.snapshot()]
            )


class TestTracer:
    def test_sequential_ids_and_parenting(self):
        tracer = Tracer(now_fn=lambda: 2.0)
        parent = tracer.start("outer", op="w")
        child = tracer.start("inner", parent=parent)
        assert (parent.span_id, child.span_id) == (1, 2)
        assert child.parent_id == 1
        assert parent.start == 2.0

    def test_finish_order_and_attrs(self):
        tracer = Tracer()
        a = tracer.start("a", at=0.0)
        b = tracer.start("b", at=1.0)
        tracer.finish(b, at=2.0, ok=True)
        tracer.finish(a, at=3.0, attempts=2)
        names = [span["name"] for span in tracer.snapshot()]
        assert names == ["b", "a"]
        assert tracer.snapshot()[1]["attrs"] == {"attempts": 2}
        assert a.duration == 3.0

    def test_a_snapshot_is_unchanged_by_later_finishes(self):
        tracer = Tracer()
        tracer.finish(tracer.start("a", at=0.0), at=1.0, ok=True)
        taken = tracer.snapshot()
        expected = json.loads(json.dumps(taken))
        tracer.finish(tracer.start("b", at=1.0), at=2.0, ok=False)
        tracer.finish(tracer.start("a", at=2.0), at=3.0, ok=True)
        assert taken == expected
        assert len(tracer.snapshot()) == 3

    def test_equal_label_sets_share_one_dict_unequal_ones_do_not(self):
        tracer = Tracer()
        spans = [tracer.start("op", host=host)
                 for host in ("a", "b", "a", 1, True, "1")]
        assert spans[0].labels is spans[2].labels
        assert spans[0].labels is not spans[1].labels
        # Keyed after str(): 1 and True are equal and hash alike, but
        # label "1" and "True"; "1" and 1 are the same label.
        assert [span.labels["host"] for span in spans] == \
            ["a", "b", "a", "1", "True", "1"]
        assert spans[3].labels is spans[5].labels

    def test_a_span_off_tracer_holds_no_records_after_finish(self):
        tracer = Tracer(keep=False)
        outer = tracer.start("outer", at=0.0, agent="oregon")
        inner = tracer.start("inner", parent=outer, at=0.5)
        tracer.finish(inner, at=1.0, ok=True)
        tracer.finish(outer, at=2.0, attempts=1)
        assert (inner.span_id, inner.parent_id) == (2, 1)
        assert outer.duration == 2.0
        assert tracer.finished == []
        assert tracer.snapshot() == []

    def test_a_finished_span_costs_at_most_700_traced_bytes(self):
        """One dict per finished span, labels shared: 10,000
        ``agent.read``-shaped spans and their snapshot stay under 700
        traced bytes each (a ``Span`` object plus three fresh snapshot
        dicts per span came to ~1,200)."""
        count = 10_000
        clock = {"t": 0.0}
        agents = ("oregon", "tokyo", "ireland")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracer = Tracer(now_fn=lambda: clock["t"])
            for index in range(count):
                clock["t"] = index * 0.5
                span = tracer.start("agent.read",
                                    agent=agents[index % 3])
                clock["t"] += 0.25
                tracer.finish(span, attempts=1, status="ok", ok=True)
            snapshot = tracer.snapshot()
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(snapshot) == count
        assert used / count <= 700


class TestObsContext:
    def test_snapshot_is_json_safe(self):
        context = ObsContext()
        context.metrics.counter("ops").inc(at=1.0)
        context.tracer.finish(context.tracer.start("op", at=0.0),
                              at=1.0, ok=True)
        snapshot = context.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_merge_concatenates_spans_in_order(self):
        first, second = ObsContext(), ObsContext()
        first.tracer.finish(first.tracer.start("one", at=0.0), at=1.0)
        second.tracer.finish(second.tracer.start("two", at=0.0),
                             at=1.0)
        merged = merge_obs_snapshots(
            [first.snapshot(), second.snapshot()]
        )
        assert [s["name"] for s in merged["spans"]] == ["one", "two"]

    def test_merging_one_snapshot_is_identity(self):
        context = ObsContext()
        context.metrics.counter("ops").inc(at=1.0)
        snapshot = context.snapshot()
        assert merge_obs_snapshots([snapshot]) == snapshot


class TestExport:
    def test_round_trip(self, tmp_path):
        context = ObsContext()
        context.metrics.counter("ops", kind="read").inc(3, at=1.5)
        context.tracer.finish(context.tracer.start("op", at=0.0),
                              at=1.0, attempts=1)
        snapshot = context.snapshot()
        path = tmp_path / "run.obs.jsonl"
        export_snapshot(snapshot, path)
        assert load_snapshot(path) == snapshot

    def test_tampering_is_detected(self, tmp_path):
        context = ObsContext()
        context.metrics.counter("ops").inc(3, at=1.5)
        path = tmp_path / "run.obs.jsonl"
        export_snapshot(context.snapshot(), path)
        text = path.read_text(encoding="utf-8")
        tampered = text.replace('"value":3', '"value":4')
        assert tampered != text  # the edit really landed
        path.write_text(tampered, encoding="utf-8")
        with pytest.raises(AnalysisError):
            load_snapshot(path)

    def test_unlowered_payloads_keep_their_by_value_set_order(
            self, tmp_path):
        """A payload the encoder cannot take as it stands is copied
        first, sorting a set by value (``canonical`` alone sorts by
        encoding: ``[100,20,3]``)."""
        path = write_digest_jsonl(tmp_path / "sets.jsonl",
                                  [{"ids": {3, 20, 100}}, {"ok": 1}],
                                  kind="test", schema_version=1)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == \
            ['{"ids":[3,20,100]}', '{"ok":1}']

    @pytest.mark.parametrize("header, extra, message", [
        (None, b"[1,2]\n", "line 3: not a JSON object"),
        (None, b'{"record":"span",\n', "line 3: unreadable JSON"),
        (b"[1]", b"", "line 1: digest header is not a JSON object"),
        (None, b'{"record":"meta","version":"\xff"}\n', "not UTF-8"),
    ], ids=["list-line", "broken-line", "list-header", "not-utf8"])
    def test_a_digest_valid_malformed_export_is_a_typed_error(
            self, tmp_path, header, extra, message):
        path = tmp_path / "run.obs.jsonl"
        export_snapshot(ObsContext().snapshot(), path)
        body = path.read_bytes().split(b"\n", 1)[1] + extra
        reheader(path, body)
        if header is not None:
            path.write_bytes(header + b"\n" + body)
        with pytest.raises(AnalysisError, match=message) as raised:
            load_snapshot(path)
        assert str(path) in str(raised.value)

    def test_a_malformed_shard_export_degrades_to_none(self, tmp_path,
                                                       capsys):
        """Damaged after the run: the store still resumes every shard
        to the same signature, and only the merged telemetry is
        lost."""
        # The config ``fleet --tests 2 --seed 11`` builds, so the CLI
        # resumes the same store.
        config = CampaignConfig(num_tests=2, seed=11,
                                inter_test_gap=15.0)
        spec = FleetSpec(services=("blogger",), base_config=config,
                         seeds=(config.seed,))
        store_dir = tmp_path / "store"
        outcome = run_fleet(spec, out_dir=store_dir)
        (job,) = outcome.jobs
        store = ArtifactStore(store_dir)
        path = store.obs_path(job.shard_id)
        reheader(path, path.read_bytes().split(b"\n", 1)[1] + b"[1,2]\n")
        assert store.load_shard_obs(job.shard_id) is None

        resumed = run_fleet(spec, out_dir=store_dir)
        assert resumed.skipped == (job.shard_id,)
        assert resumed.signature() == outcome.signature()
        assert resumed.merged_obs() is None
        capsys.readouterr()
        export = tmp_path / "merged.obs.jsonl"
        assert main(["fleet", "--services", "blogger", "--seeds", "11",
                     "--tests", "2", "--seed", "11", "--quiet",
                     "--store-out", str(store_dir),
                     "--obs-out", str(export)]) == 0
        captured = capsys.readouterr()
        assert "obs export skipped: at least one shard has no " \
            "snapshot" in captured.err
        assert "1 campaigns, signature " \
            f"{outcome.signature()[:16]}" in captured.out
        assert not export.exists()

    @pytest.mark.parametrize("record, kind, drop, message", [
        ("metric", "counter", "value", "metric record lacks value"),
        ("metric", "gauge", "updated", "metric record lacks updated"),
        ("metric", "histogram", "counts", "metric record lacks counts"),
        ("metric", "counter", "type", "unknown metric type None"),
        ("span", None, "start", "span record lacks start"),
        ("span", None, "end", "span record lacks end"),
        ("span", None, "labels", "span record lacks labels"),
        ("meta", None, "record", "unknown obs record type None"),
    ])
    def test_a_record_missing_a_key_fails_naming_its_line(
            self, tmp_path, record, kind, drop, message):
        """Checked at load, not later inside a merge: every record of
        a type must carry the keys that type's readers use."""
        lines = REAL_BODY.decode().splitlines()
        (number,) = [index for index, line in enumerate(lines)
                     if json.loads(line)["record"] == record
                     and json.loads(line).get("type") == kind]
        damaged = json.loads(lines[number])
        del damaged[drop]
        lines[number] = json.dumps(damaged, sort_keys=True)
        path = tmp_path / "run.obs.jsonl"
        reheader(path, "".join(line + "\n" for line in lines).encode())
        # Line 1 is the header.
        with pytest.raises(AnalysisError,
                           match=f"line {number + 2}: {message}") as raised:
            load_snapshot(path)
        assert str(path) in str(raised.value)

    def test_a_shard_export_missing_a_metric_value_degrades_to_none(
            self, tmp_path):
        spec = FleetSpec(services=("blogger",), base_config=TINY,
                         seeds=(TINY.seed,))
        store_dir = tmp_path / "store"
        (job,) = run_fleet(spec, out_dir=store_dir).jobs
        store = ArtifactStore(store_dir)
        path = store.obs_path(job.shard_id)
        lines = path.read_bytes().decode().splitlines()[1:]
        index = next(index for index, line in enumerate(lines)
                     if '"record":"metric"' in line
                     and '"value"' in line)
        damaged = json.loads(lines[index])
        del damaged["value"]
        lines[index] = json.dumps(damaged, sort_keys=True)
        reheader(path, "".join(line + "\n" for line in lines).encode())
        assert store.load_shard_obs(job.shard_id) is None


def reheader(path, body: bytes) -> None:
    """Write ``body`` under an obs header that matches it: right digest,
    right line count — only the content can be wrong."""
    lines = sum(1 for line in body.split(b"\n") if line.strip())
    header = json.dumps({
        "digest": "sha256:" + hashlib.sha256(body).hexdigest(),
        "kind": "obs", "lines": lines, "schema_version": 1,
    }, sort_keys=True, separators=(",", ":"))
    path.write_bytes(header.encode() + b"\n" + body)


def _real_export_body() -> bytes:
    """The body of an export with every record type in it."""
    context = ObsContext(now_fn=lambda: 1.5)
    context.metrics.counter("api.requests_total", method="GET").inc()
    context.metrics.histogram("lat", buckets=(0.5,)).observe(0.2)
    context.metrics.gauge("depth").set(3)
    span = context.tracer.start("agent.read", agent="oregon")
    context.tracer.finish(span, attempts=1, status="ok", ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        path = export_snapshot(context.snapshot(),
                               Path(scratch) / "real.obs.jsonl")
        return path.read_bytes().split(b"\n", 1)[1]


REAL_BODY = _real_export_body()
#: Bytes a mutation writes: JSON's structural characters first.
MUTATION_BYTES = st.one_of(st.sampled_from(b'[]{}",:01-.etn\n '),
                           st.integers(0, 255))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(
    st.tuples(st.integers(0, len(REAL_BODY) - 1),
              st.sampled_from(["replace", "insert", "delete"]),
              MUTATION_BYTES),
    min_size=1, max_size=6))
def test_a_mutated_reheadered_export_loads_or_fails_typed(tmp_path, edits):
    """Any byte edit of a real export, re-headered so the digest and
    line count hold: loading succeeds or raises ``AnalysisError``,
    never another exception."""
    body = bytearray(REAL_BODY)
    for position, kind, value in edits:
        if kind == "insert":
            body.insert(position, value)
        elif position < len(body) and kind == "replace":
            body[position] = value
        elif position < len(body):
            del body[position]
    path = tmp_path / "mutated.obs.jsonl"
    reheader(path, bytes(body))
    try:
        load_snapshot(path)
    except AnalysisError:
        pass


class TestCampaignObs:
    def test_same_seed_exports_byte_identical(self, tmp_path):
        first = run_campaign("blogger", TINY, spans=True)
        second = run_campaign("blogger", TINY, spans=True)
        path_a = tmp_path / "a.obs.jsonl"
        path_b = tmp_path / "b.obs.jsonl"
        export_snapshot(first.obs, path_a)
        export_snapshot(second.obs, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_serial_equals_fleet_merged(self):
        serial = run_campaign("blogger", TINY, spans=True).obs
        spec = FleetSpec(services=("blogger",), base_config=TINY,
                         seeds=(TINY.seed,))
        assert run_fleet(spec, jobs=2).merged_obs() == serial

    def test_a_default_run_keeps_metrics_and_no_spans(self):
        default = run_campaign("blogger", TINY)
        traced = run_campaign("blogger", TINY, spans=True)
        assert set(default.obs) == {"version", "metrics", "spans"}
        assert default.obs["spans"] == []
        assert traced.obs["spans"]
        assert default.obs["metrics"] == traced.obs["metrics"]
        assert campaign_signature(default) == campaign_signature(traced)

    def test_an_analyzer_keeps_spans_unless_told_not_to(self):
        """Left unset, ``spans`` follows ``analyzer``: a caller that
        re-derives each test's analysis gets the spans too."""
        traced = run_campaign("blogger", TINY, spans=True).obs
        inspected = run_campaign("blogger", TINY,
                                 analyzer=analyze_trace).obs
        assert inspected == traced
        plain = run_campaign("blogger", TINY, analyzer=analyze_trace,
                             spans=False).obs
        assert plain["spans"] == []
        assert plain["metrics"] == traced["metrics"]

    @pytest.mark.parametrize("service", ["blogger", "googleplus"])
    def test_a_span_nobody_keeps_is_never_opened(self, service,
                                                 monkeypatch):
        """A campaign that stores no span calls ``Tracer.start`` zero
        times; one that stores them calls it once per agent operation
        (plus once per primary-backup write), once per exported record.
        The records themselves are pinned by ``test_obs_oracle.py``."""
        starts, operations = Counter(), Counter()
        original_start = Tracer.start

        def start(self, name, *args, **kwargs):
            starts[name] += 1
            return original_start(self, name, *args, **kwargs)

        monkeypatch.setattr(Tracer, "start", start)
        for method in ("timed_post", "timed_fetch"):
            def counted(self, *args, _method=method,
                        _original=getattr(MeasurementAgent, method),
                        **kwargs):
                operations[_method] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(MeasurementAgent, method, counted)
        plain = run_campaign(service, TINY, spans=False)
        assert not starts and operations["timed_fetch"] > 0
        untraced_operations = dict(operations)
        operations.clear()
        traced = run_campaign(service, TINY, spans=True)
        assert dict(operations) == untraced_operations
        assert starts["agent.read"] == operations["timed_fetch"]
        assert starts["agent.write"] == operations["timed_post"]
        assert starts == Counter(span["name"]
                                 for span in traced.obs["spans"])
        assert plain.obs["metrics"] == traced.obs["metrics"]

    def test_requests_reconcile_with_responses(self):
        snapshot = run_campaign("blogger", TINY).obs
        totals = {"requests": 0.0, "responses": 0.0}
        for entry in snapshot["metrics"]:
            if entry["name"] == "api.requests_total":
                totals["requests"] += entry["value"]
            elif entry["name"] == "api.responses_total":
                totals["responses"] += entry["value"]
        assert totals["requests"] > 0
        # Every wire request resolved into exactly one response event.
        assert totals["responses"] == totals["requests"]


def drive(world, generator_fn, *args, **kwargs):
    process = spawn(world.sim, generator_fn, *args, **kwargs)
    while not process.completion.done:
        world.sim.run_until(world.sim.now + 30.0)
    return process.completion.value


class TestRetryAccounting:
    """Wire-request counters, client totals, and span attempt totals
    must agree even when 429 back-off retries multiply requests."""

    def make_limited_world(self):
        return MeasurementWorld(
            "blogger", seed=3,
            service_params=BloggerParams(
                rate_limit=RateLimit(max_requests=2, window=5.0),
            ),
            spans=True,
        )

    def test_counters_spans_and_client_agree_under_429s(self):
        world = self.make_limited_world()
        agent = world.agent("oregon")

        def post_burst():
            for index in range(6):
                ok = yield from agent.timed_post(f"M{index}")
                assert ok is True

        drive(world, post_burst)
        # Let every in-flight response future resolve.
        world.sim.run_until(world.sim.now + 30.0)

        snapshot = world.obs.snapshot()
        requests = sum(e["value"] for e in snapshot["metrics"]
                       if e["name"] == "api.requests_total")
        responses_by_status: dict[str, float] = {}
        for entry in snapshot["metrics"]:
            if entry["name"] == "api.responses_total":
                status = entry["labels"]["status"]
                responses_by_status[status] = \
                    responses_by_status.get(status, 0.0) + entry["value"]

        client = agent.session._client
        assert client.requests_sent == requests
        assert sum(responses_by_status.values()) == requests
        # The tight limit forced actual 429 retries.
        assert responses_by_status.get("429", 0) > 0
        assert requests > 6

        write_spans = [s for s in snapshot["spans"]
                       if s["name"] == "agent.write"]
        assert len(write_spans) == 6
        assert all(s["attrs"]["ok"] for s in write_spans)
        # Span attempt totals == wire requests; span 429 totals ==
        # counted 429 responses (the accounting contract).
        assert sum(s["attrs"]["attempts"]
                   for s in write_spans) == requests
        assert sum(s["attrs"]["rate_limited"]
                   for s in write_spans) \
            == responses_by_status["429"]


class TestCompatAliases:
    def test_fleet_package_reexports_warning_free(self):
        # ``repro.fleet`` re-exports straight from the canonical home,
        # so the supported import path never touches the shim.
        import repro.fleet as fleet
        from repro.obs.events import ShardStarted
        assert fleet.ShardStarted is ShardStarted

    def test_stream_windows_reexports_window_event(self):
        from repro.obs.events import WindowEvent as canonical
        from repro.stream import WindowEvent
        assert WindowEvent is canonical


class TestSessionRoutes:
    def test_blogger_sessions_route_to_single_endpoint(self):
        world = MeasurementWorld("blogger", seed=1)
        routes = {agent.session.routes for agent in world.agents}
        assert len(routes) == 1
        (route,) = routes
        assert route.api_host == "blogger-api"
        assert route.post_path == route.fetch_path
        accounts = {agent.session.account.token
                    for agent in world.agents}
        assert len(accounts) == 3  # per-agent accounts

    def test_googleplus_sessions_share_one_account(self):
        world = MeasurementWorld("googleplus", seed=1)
        accounts = {agent.session.account.token
                    for agent in world.agents}
        assert len(accounts) == 1  # the paper's shared-account setup
        hosts = {agent.session.routes.api_host
                 for agent in world.agents}
        assert len(hosts) > 1  # but per-region API endpoints


class TestCli:
    def test_legacy_output_flags_alias_out_convention(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--service", "blogger", "--output", "x.json"]
        )
        assert args.campaign_out == "x.json"
        args = parser.parse_args(["fleet", "--out", "artifacts"])
        assert args.store_out == "artifacts"

    def test_run_export_and_obs_report(self, tmp_path, capsys):
        path = tmp_path / "run.obs.jsonl"
        rc = main(["run", "--service", "blogger", "--tests", "1",
                   "--seed", "3", "--obs-out", str(path)])
        assert rc == 0
        assert path.is_file()
        capsys.readouterr()
        assert main(["obs", str(path)]) == 0
        report = capsys.readouterr().out
        assert "api.requests_total" in report
        assert "blogger" in report
        assert main(["obs", str(path), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot == load_snapshot(path)

    def test_run_obs_out_writes_the_span_keeping_export(self, tmp_path,
                                                        capsys):
        path = tmp_path / "run.obs.jsonl"
        assert main(["run", "--service", "blogger", "--tests", "2",
                     "--seed", "11", "--obs-out", str(path)]) == 0
        capsys.readouterr()
        config = CampaignConfig(num_tests=2, seed=11)
        expected = export_snapshot(
            run_campaign("blogger", config, spans=True).obs,
            tmp_path / "expected.obs.jsonl")
        assert path.read_bytes() == expected.read_bytes()

    def test_obs_on_fleet_store_merges_shards(self, tmp_path, capsys):
        store = tmp_path / "store"
        spec = FleetSpec(services=("blogger",), base_config=TINY,
                         seeds=(TINY.seed,))
        outcome = run_fleet(spec, out_dir=store)
        assert main(["obs", str(store), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot == outcome.merged_obs()

    def test_obs_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["obs", str(tmp_path / "missing.obs.jsonl")])
        assert rc == 2
        assert "cannot read obs data" in capsys.readouterr().err

"""The hunt API at its byte boundary: malformed input and the socket.

Two things the in-process suites cannot see.  First, every request —
however malformed — must end in exactly one recorded response
(``requests_total == sum(responses_by_status.values())``): a 400 for
the sender's mistake, a JSON 500 naming a damaged store, never an
exception out of ``HuntApi.dispatch`` (over a socket that is a dropped
connection).  Second, ``serve_http`` itself: the stdlib handler, the
query-string / JSON-body merge and the worker loop that picks up what
the listener accepted, driven end to end through a real localhost
socket and held to the same signature as a direct ``run_fleet``.
"""

import http.client
import json
import socket
import threading
import time
from urllib.parse import urlencode

import pytest

from repro.fleet import run_fleet
from repro.serve import HuntServer, HuntSpec, serve_http
from repro.serve.store import EVENTS_FILE, HUNT_FILE

TINY = {"services": ["blogger"], "seeds": [1], "num_tests": 1,
        "test_types": ["test1"]}

#: (method, path, params) -> 400.  ``{id}`` is a submitted hunt.
MALFORMED = [
    ("GET", "/v1/hunts", {"limit": "abc"}),
    ("GET", "/v1/hunts", {"limit": 2.5}),
    ("GET", "/v1/hunts/{id}/results", {"limit": "ten"}),
    ("GET", "/v1/hunts/{id}/artifacts", {"limit": "1e3"}),
    ("GET", "/v1/hunts/{id}/events", {"after": "x"}),
    ("GET", "/v1/hunts/{id}/events", {"limit": "many"}),
    ("GET", "/v1/hunts/{id}/events", {"limit": 0}),
    ("GET", "/v1/hunts/{id}/events", {"limit": -3}),
    ("POST", "/v1/hunts", {**TINY, "num_tests": "abc"}),
    ("POST", "/v1/hunts", {**TINY, "num_tests": None}),
    ("POST", "/v1/hunts", {**TINY, "num_tests": 0}),
    ("POST", "/v1/hunts", {**TINY, "seeds": 5}),
    ("POST", "/v1/hunts", {**TINY, "seeds": ["one"]}),
    ("POST", "/v1/hunts", {**TINY, "services": ["nope"]}),
    ("POST", "/v1/hunts", {**TINY, "services": []}),
    ("POST", "/v1/hunts", {**TINY, "services": [7]}),
    ("POST", "/v1/hunts", {**TINY, "test_types": ["test9"]}),
    ("POST", "/v1/hunts", {**TINY, "stream": "maybe"}),
]


def _row_id(row):
    method, path, params = row
    odd = {key: value for key, value in params.items()
           if TINY.get(key) != value}
    return f"{method} {path} {odd}"


def _balanced(server):
    stats = server.api.stats
    return stats.requests_total == \
        sum(stats.responses_by_status.values())


class TestMalformedInProcess:
    @pytest.fixture
    def server(self, tmp_path):
        return HuntServer(tmp_path)

    @pytest.fixture
    def token(self, server):
        return server.issue_token()

    @pytest.fixture
    def hunt_id(self, server, token):
        return server.handle("POST", "/v1/hunts", params=TINY,
                             token=token).body["hunt_id"]

    @pytest.mark.parametrize("row", MALFORMED, ids=_row_id)
    def test_malformed_request_is_a_recorded_400(
            self, row, server, token, hunt_id):
        method, path, params = row
        before = len(server.service.hunts())
        response = server.handle(method, path.format(id=hunt_id),
                                 params=params, token=token)
        assert response.status == 400
        assert response.body["error"]
        assert _balanced(server)
        assert len(server.service.hunts()) == before  # nothing queued

    def test_query_string_false_is_false(self, server, token):
        response = server.handle(
            "POST", "/v1/hunts", params={**TINY, "stream": "false"},
            token=token)
        assert response.status == 200
        state = server.service.hunt(response.body["hunt_id"])
        assert state.spec.stream is False

    def test_results_of_a_queued_hunt_are_empty(self, server, token,
                                                hunt_id):
        # No scheduling pass yet, so no artifact store to read.
        response = server.handle(
            "GET", f"/v1/hunts/{hunt_id}/results", token=token)
        assert response.status == 200
        assert response.body == {"items": [], "next_cursor": None}

    @pytest.mark.parametrize("victim, path", [
        (HUNT_FILE, "/v1/hunts/{id}"),
        (HUNT_FILE, "/v1/hunts"),
        (HUNT_FILE, "/v1/hunts/{id}/pause"),
        (EVENTS_FILE, "/v1/hunts/{id}/events"),
    ])
    def test_damaged_store_is_a_json_500(
            self, victim, path, server, token, hunt_id):
        target = server.service.store.hunt_dir(hunt_id) / victim
        target.write_bytes(target.read_bytes()[:-9])  # torn tail
        method = "POST" if path.endswith("pause") else "GET"
        response = server.handle(method, path.format(id=hunt_id),
                                 token=token)
        assert response.status == 500
        assert response.body["error"].startswith("FleetError: ")
        assert victim in response.body["error"]
        assert _balanced(server)


# -- Through the socket --------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Live:
    """One ``serve_http`` on localhost, for the whole module.

    ``serve_http`` has no stop hook: it runs in a daemon thread that
    dies with the test process.
    """

    def __init__(self, root):
        self.server = HuntServer(root)
        self.token = self.server.issue_token()
        self.port = _free_port()
        ready = threading.Event()
        threading.Thread(
            target=serve_http, args=(self.server,),
            kwargs={"port": self.port, "poll_interval": 0.05,
                    "ready": ready},
            name="serve-http-under-test", daemon=True,
        ).start()
        assert ready.wait(timeout=10.0)

    def request(self, method, path, params=None, body=None,
                headers=None):
        """One request on a fresh connection -> (status, JSON body)."""
        if method == "GET" and params:
            path = f"{path}?{urlencode(params)}"
        elif method == "POST" and body is None and params is not None:
            body = json.dumps(params).encode("utf-8")
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30.0)
        try:
            connection.putrequest(method, path)
            connection.putheader("Authorization",
                                 f"Bearer {self.token}")
            length = {"Content-Length": str(len(body or b""))}
            for name, value in {**length, **(headers or {})}.items():
                connection.putheader(name, value)
            connection.endheaders(body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    return Live(tmp_path_factory.mktemp("serve-http"))


@pytest.fixture(scope="module")
def live_hunt(live):
    status, body = live.request("POST", "/v1/hunts", params=TINY)
    assert status == 200
    return body["hunt_id"]


def _wait_done(live, hunt_id):
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        status, body = live.request("GET", f"/v1/hunts/{hunt_id}")
        assert status == 200
        if body["status"] == "done":
            return body
        time.sleep(0.05)
    raise AssertionError(f"hunt {hunt_id} never finished: {body}")


class TestServeHttp:
    def test_hunt_end_to_end_over_the_socket(self, live):
        spec = {"services": ["blogger", "quorum_kv"], "seeds": [1],
                "num_tests": 1, "test_types": ["test1"]}
        # Query string and JSON body merge into one parameter set.
        status, submitted = live.request(
            "POST", "/v1/hunts?stream=false", params=spec)
        assert status == 200
        assert submitted["status"] == "queued"
        assert submitted["shards_total"] == 2
        hunt_id = submitted["hunt_id"]

        # The worker thread picks it up; nobody calls run_pending.
        done = _wait_done(live, hunt_id)
        assert done["shards_done"] == 2

        keys, cursor = [], None
        while True:
            params = {"limit": 1, **({"cursor": cursor}
                                     if cursor else {})}
            status, page = live.request(
                "GET", f"/v1/hunts/{hunt_id}/results", params=params)
            assert status == 200
            keys += [item["key"] for item in page["items"]]
            cursor = page["next_cursor"]
            if cursor is None:
                break
        assert len(keys) == len(set(keys)) == 2

        status, feed = live.request(
            "GET", f"/v1/hunts/{hunt_id}/events", params={"after": -1})
        assert status == 200
        kinds = [record["event"] for record in feed["events"]]
        assert kinds[0] == "hunt.submitted"
        assert kinds.count("shard.completed") == 2
        assert "test.checked" not in kinds  # stream=false means false
        assert [record["seq"] for record in feed["events"]] == \
            list(range(len(kinds)))
        status, tail = live.request(
            "GET", f"/v1/hunts/{hunt_id}/events",
            params={"after": feed["last_seq"]})
        assert tail == {"events": [], "last_seq": feed["last_seq"],
                        "done": True}

        status, listing = live.request(
            "GET", f"/v1/hunts/{hunt_id}/artifacts",
            params={"limit": 50})
        assert "manifest.json" in listing["artifacts"]
        status, artifact = live.request(
            "GET", f"/v1/hunts/{hunt_id}/artifact",
            params={"name": "manifest.json"})
        assert status == 200
        on_disk = live.server.service.store.artifact_bytes(
            hunt_id, "manifest.json")
        assert artifact["content"].encode("utf-8") == on_disk

        direct = run_fleet(HuntSpec.from_dict(spec).fleet_spec())
        assert done["fleet_signature"] == direct.signature()

    def test_requires_a_bearer_token(self, live):
        connection = http.client.HTTPConnection(
            "127.0.0.1", live.port, timeout=30.0)
        try:
            connection.request("GET", "/v1/hunts")
            assert connection.getresponse().status == 401
        finally:
            connection.close()

    @pytest.mark.parametrize("row", MALFORMED, ids=_row_id)
    def test_malformed_request_is_answered_400(self, row, live,
                                               live_hunt):
        method, path, params = row
        status, body = live.request(
            method, path.format(id=live_hunt), params=params)
        assert status == 400
        assert body["error"]
        assert _balanced(live.server)

    @pytest.mark.parametrize("body, headers", [
        (b"[1, 2]", {}),
        (b'"services"', {}),
        (b"{not json", {}),
        (b"\xff\xfe", {}),
        # No body bytes behind a length that cannot be trusted: the
        # server must not wait for any, nor leave any unread.
        (b"", {"Content-Length": "two"}),
        (b"", {"Content-Length": "-1"}),
    ])
    def test_unusable_post_body_is_answered_400(self, body, headers,
                                                live):
        status, answer = live.request("POST", "/v1/hunts", body=body,
                                      headers=headers)
        assert status == 400
        assert "JSON" in answer["error"]
        # The listener survived it.
        assert live.request("GET", "/v1/hunts")[0] == 200

    def test_worker_survives_a_damaged_hunt_file(self, tmp_path,
                                                  capsys):
        before = set(threading.enumerate())
        fresh = Live(tmp_path)
        (worker,) = [thread for thread in threading.enumerate()
                     if thread.name == "hunt-worker"
                     and thread not in before]
        first = fresh.request("POST", "/v1/hunts", params=TINY)[1]
        _wait_done(fresh, first["hunt_id"])
        target = fresh.server.service.store.state_path(first["hunt_id"])
        intact = target.read_bytes()
        target.write_bytes(intact[:-9])  # torn tail: every pass fails
        deadline = time.monotonic() + 10.0
        reported = ""
        while "serve: " not in reported and time.monotonic() < deadline:
            time.sleep(0.05)
            reported += capsys.readouterr().err
        assert "serve: unreadable hunt state" in reported
        time.sleep(3 * 0.05)  # three poll intervals
        assert worker.is_alive()
        # Once the store is repaired, scheduling resumes.
        target.write_bytes(intact)
        second = fresh.request("POST", "/v1/hunts", params=TINY)
        assert second[0] == 200
        _wait_done(fresh, second[1]["hunt_id"])

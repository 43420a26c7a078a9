"""End-to-end tests of the HTTP/JSON layer on an ephemeral port."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import Session, make_server


@pytest.fixture()
def server():
    session = Session(32, scheduler="easy", alternatives=("cons",))
    http_server = make_server(session)  # port 0 -> ephemeral
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()


def call(server, method, path, body=None):
    port = server.server_address[1]
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = call(server, "GET", "/healthz")
        assert status == 200 and payload["ok"] is True

    def test_submit_advance_state_roundtrip(self, server):
        for i in range(10):
            status, payload = call(
                server,
                "POST",
                "/submit",
                {"runtime": 200, "procs": 4, "submit_time": float(i * 20)},
            )
            assert status == 200 and payload["job_id"] == i + 1
        status, payload = call(server, "POST", "/advance", {"to_time": 300.0})
        assert status == 200 and payload["clock"] == 300.0
        status, state = call(server, "GET", "/state")
        assert status == 200
        assert state["submitted"] == 10
        assert state["completed"] + state["running"] + state["queued"] == 10
        assert state["policies"] == ["easy", "cons"]

    def test_what_if_and_policy_targeting(self, server):
        for i in range(8):
            call(
                server,
                "POST",
                "/submit",
                {"runtime": 500, "procs": 8, "submit_time": float(i * 10)},
            )
        call(server, "POST", "/advance", {"to_time": 100.0})
        status, easy = call(
            server, "POST", "/what-if", {"job": {"runtime": 300, "procs": 16}}
        )
        assert status == 200
        assert easy["policy"] == "easy"
        assert easy["target"]["start_time"] >= 100.0
        assert "metrics" not in easy  # off by default
        status, cons = call(
            server,
            "POST",
            "/what-if",
            {"job": {"runtime": 300, "procs": 16}, "policy": "cons",
             "include_metrics": True},
        )
        assert status == 200 and cons["policy"] == "cons"
        assert "metrics" in cons

    def test_forecast(self, server):
        call(server, "POST", "/submit", {"runtime": 1000, "procs": 32})
        call(server, "POST", "/submit", {"runtime": 50, "procs": 8})
        status, forecast = call(server, "POST", "/forecast", {"horizon": 500.0})
        assert status == 200
        assert forecast["at_time"] == 500.0
        assert forecast["free_procs"] == 0  # the 32-wide job occupies all
        assert forecast["queued_ids"] == [2]

    def test_metrics_endpoint_serves_aggregates(self, server):
        call(server, "POST", "/submit", {"runtime": 10, "procs": 1})
        call(server, "POST", "/advance", {"to_time": 1000.0})
        status, payload = call(server, "GET", "/metrics")
        assert status == 200
        assert payload["overall"]["count"] == 1
        assert payload["overall"]["mean_wait"] == 0.0
        assert payload["record_count"] == 0  # bounded mode holds no rows
        assert sum(s["count"] for s in payload["by_category"].values()) == 1


class TestErrorMapping:
    def test_validation_errors_are_400(self, server):
        status, payload = call(
            server, "POST", "/submit", {"runtime": -5, "procs": 2}
        )
        assert status == 400 and "runtime" in payload["error"]
        status, _ = call(server, "POST", "/submit", {"procs": 2})
        assert status == 400
        call(server, "POST", "/advance", {"to_time": 100.0})
        status, payload = call(server, "POST", "/advance", {"to_time": 1.0})
        assert status == 400 and "non-decreasing" in payload["error"]
        status, _ = call(server, "POST", "/what-if", {"policy": "nope"})
        assert status == 400
        status, _ = call(server, "POST", "/forecast", {})
        assert status == 400

    def test_refused_submission_leaves_the_server_usable(self, server):
        status, payload = call(server, "POST", "/submit", {"runtime": 10, "procs": 64})
        assert status == 400 and "needs 64 procs" in payload["error"]
        status, state = call(server, "GET", "/state")
        assert status == 200 and state["submitted"] == 0

    def test_unknown_endpoint_is_404(self, server):
        status, _ = call(server, "GET", "/bogus")
        assert status == 404

    def test_malformed_json_is_400(self, server):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/submit",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestConcurrency:
    def test_parallel_what_ifs_agree_with_serial(self, server):
        for i in range(30):
            call(
                server,
                "POST",
                "/submit",
                {"runtime": 300 + i, "procs": 1 + i % 8,
                 "submit_time": float(i * 5)},
            )
        call(server, "POST", "/advance", {"to_time": 200.0})
        body = {"job": {"runtime": 123, "procs": 5}}
        reference = call(server, "POST", "/what-if", body)[1]
        results = [None] * 8

        def worker(index):
            results[index] = call(server, "POST", "/what-if", body)[1]

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            assert result == reference

    def test_what_ifs_leave_the_live_session_untouched(self, server):
        for i in range(30):
            call(
                server,
                "POST",
                "/submit",
                {"runtime": 300 + i, "procs": 1 + i % 8,
                 "submit_time": float(i * 5)},
            )
        call(server, "POST", "/advance", {"to_time": 100.0})
        before = server.session.stats()
        assert before.queued > 0

        def worker(index):
            call(server, "POST", "/what-if",
                 {"job": {"runtime": 100 + index, "procs": 1 + index}})

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert server.session.stats() == before

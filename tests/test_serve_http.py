"""End-to-end tests of the JSON HTTP endpoint over a live server."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    HttpServeClient,
    ProfileService,
    ServeHTTPServer,
    make_server,
)
from repro.serve import http as serve_http
from tests.conftest import build_frozen_profile


@pytest.fixture(scope="module")
def frozen_and_totals():
    return build_frozen_profile()


@pytest.fixture()
def live_server(frozen_and_totals):
    frozen, _ = frozen_and_totals
    service = ProfileService(frozen, max_batch=16, n_workers=2)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", frozen
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(5.0)


def _post(base_url, path, payload):
    request = urllib.request.Request(
        f"{base_url}{path}",
        data=json.dumps(payload).encode("utf-8") if payload is not None
        else b"not json",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestRoutes:
    def test_healthz(self, live_server):
        base_url, _ = live_server
        client = HttpServeClient(base_url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["profile_version"] == 1

    def test_classify_vectors(self, live_server):
        base_url, frozen = live_server
        client = HttpServeClient(base_url)
        answer = client.classify(frozen.features[:5])
        expected = [int(label) for label in frozen.vote(frozen.features[:5])]
        assert answer["labels"] == expected
        assert answer["version"] == 1

    def test_classify_volumes(self, live_server, frozen_and_totals):
        base_url, frozen = live_server
        _, totals = frozen_and_totals
        client = HttpServeClient(base_url)
        answer = client.classify_volumes(totals[:4])
        expected = [
            int(label)
            for label in frozen.vote(frozen.rsca_of_volumes(totals[:4]))
        ]
        assert answer["labels"] == expected

    def test_classify_caches_repeats(self, live_server):
        base_url, frozen = live_server
        client = HttpServeClient(base_url)
        client.classify(frozen.features[:3])
        answer = client.classify(frozen.features[:3])
        assert answer["cached"] == 3

    def test_clusters(self, live_server):
        base_url, frozen = live_server
        summary = HttpServeClient(base_url).clusters()
        assert summary["n_clusters"] == frozen.n_clusters
        assert len(summary["clusters"]) == frozen.n_clusters

    def test_metrics(self, live_server):
        base_url, frozen = live_server
        client = HttpServeClient(base_url)
        client.classify(frozen.features[:2])
        snapshot = client.metrics()
        assert snapshot["counters"]["requests"] >= 1
        assert snapshot["profile_version"] == 1


class TestErrorMapping:
    def test_unknown_path_404(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base_url}/nope", timeout=10.0)
        assert excinfo.value.code == 404

    def test_invalid_json_400(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/classify", None)
        assert excinfo.value.code == 400

    def test_missing_keys_400(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/classify", {})
        assert excinfo.value.code == 400

    def test_both_keys_400(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/classify", {"vectors": [[0.0]],
                                          "volumes": [[1.0]]})
        assert excinfo.value.code == 400

    def test_wrong_width_400(self, live_server):
        base_url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/classify", {"vectors": [[0.0, 0.1]]})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "columns" in body["error"]

    def test_volume_row_total_overflow_400(self, live_server):
        base_url, frozen = live_server
        width = frozen.features.shape[1]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/classify", {"volumes": [[1e308] * width]})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "overflow" in body["error"]

    def test_no_profile_503(self):
        service = ProfileService()  # nothing loaded
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"http://{host}:{port}", "/classify",
                      {"vectors": [[0.0] * 12]})
            assert excinfo.value.code == 503
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(5.0)

    def test_http_client_raises_runtime_error(self, live_server):
        base_url, _ = live_server
        client = HttpServeClient(base_url)
        with pytest.raises(RuntimeError, match="HTTP 400"):
            client.classify([[0.0, 0.1]])


class TestObservability:
    def test_metrics_is_prometheus_text(self, live_server):
        base_url, frozen = live_server
        client = HttpServeClient(base_url)
        client.classify(frozen.features[:3])
        with urllib.request.urlopen(f"{base_url}/metrics",
                                    timeout=10.0) as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert content_type.startswith("text/plain")
        # Required series: requests, latency, cache, shed.
        assert "repro_serve_request_latency_seconds_bucket" in text
        assert "repro_serve_cache_hits_total" in text
        assert "repro_serve_shed_requests_total" in text
        assert "repro_serve_requests_total" in text
        # Every exposition line parses as `name[{labels}] value`.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])

    def test_metrics_text_via_client(self, live_server):
        base_url, _ = live_server
        text = HttpServeClient(base_url).metrics_text()
        assert "repro_serve_requests_total" in text

    def test_unexpected_exception_returns_structured_500(self, live_server,
                                                         monkeypatch):
        base_url, _ = live_server

        def explode(self):
            raise ZeroDivisionError("instrumented failure")

        monkeypatch.setattr(ProfileService, "cluster_summaries", explode)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base_url}/clusters", timeout=10.0)
        assert excinfo.value.code == 500
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"] == "internal server error"
        assert body["error_type"] == "ZeroDivisionError"
        assert "instrumented failure" in body["detail"]
        assert body["request_id"].startswith("req-")

    def test_500_increments_error_counter(self, live_server, monkeypatch):
        base_url, _ = live_server

        def explode(self):
            raise KeyError("boom")

        monkeypatch.setattr(ProfileService, "metrics_snapshot", explode)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base_url}/metrics.json", timeout=10.0)
        assert excinfo.value.code == 500
        monkeypatch.undo()
        snapshot = HttpServeClient(base_url).metrics()
        assert snapshot["counters"]["errors"] >= 1


def _connect(base_url, timeout=10.0):
    parts = urllib.parse.urlsplit(base_url)
    return http.client.HTTPConnection(parts.hostname, parts.port,
                                      timeout=timeout)


def _exchange(conn, body, path="/classify", headers=None):
    conn.request("POST", path, body,
                 headers or {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response, response.read()


def _assert_error(response, payload):
    assert 400 <= response.status < 500, (response.status, payload)
    assert isinstance(json.loads(payload)["error"], str)


@pytest.fixture()
def connections(monkeypatch):
    """Counts the connections the server accepts from here on."""
    accepted = []
    setup = serve_http.ServeHandler.setup

    def counting_setup(self):
        accepted.append(self.client_address)
        setup(self)

    monkeypatch.setattr(serve_http.ServeHandler, "setup", counting_setup)
    return accepted


class TestKeepAlive:
    def test_kept_alive_requests_do_not_stall(self, live_server):
        # A response sent as headers and body in two segments with Nagle
        # on waits for the client's delayed ACK: >= 40 ms per request on
        # a kept-alive connection.
        base_url, frozen = live_server
        conn = _connect(base_url)
        elapsed_ms = []
        try:
            for i in range(20):
                body = json.dumps(
                    {"vectors": frozen.features[i:i + 2].tolist()}
                ).encode()
                start = time.perf_counter()
                response, _ = _exchange(conn, body)
                elapsed_ms.append((time.perf_counter() - start) * 1e3)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(elapsed_ms) < 10.0, elapsed_ms

    def test_client_reuses_one_connection(self, live_server, connections):
        base_url, frozen = live_server
        with HttpServeClient(base_url) as client:
            client.healthz()
            client.classify(frozen.features[:2])
            client.metrics_text()
            with pytest.raises(RuntimeError, match="HTTP 400"):
                client.classify([[0.0, 0.1]])
            assert client.classify(frozen.features[2:4])["version"] == 1
        assert len(connections) == 1

    def test_concurrent_threads_hold_one_connection_each(self, live_server,
                                                          connections):
        base_url, frozen = live_server
        answers = []
        with HttpServeClient(base_url) as client:
            def work():
                for _ in range(3):
                    answers.append(client.classify(frozen.features[:2]))

            threads = [threading.Thread(target=work) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 9
        assert 1 <= len(connections) <= 3

    def test_client_recovers_after_server_closes_idle_connection(
            self, live_server, connections, monkeypatch):
        base_url, frozen = live_server
        monkeypatch.setattr(serve_http, "READ_TIMEOUT_S", 0.2)
        with HttpServeClient(base_url) as client:
            client.classify(frozen.features[:2])
            time.sleep(0.6)  # the server times the idle connection out
            answer = client.classify(frozen.features[:2])
        assert answer["labels"] == [
            int(label) for label in frozen.vote(frozen.features[:2])
        ]
        assert len(connections) == 2

    def test_expect_100_continue_is_sent_before_the_body(self, live_server):
        base_url, frozen = live_server
        parts = urllib.parse.urlsplit(base_url)
        body = json.dumps({"vectors": frozen.features[:1].tolist()}).encode()
        with socket.create_connection((parts.hostname, parts.port),
                                      timeout=5.0) as sock:
            sock.sendall(
                b"POST /classify HTTP/1.1\r\nHost: x\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            )
            assert sock.recv(64).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            assert sock.recv(4096).startswith(b"HTTP/1.1 200")


class TestHostileInput:
    def test_overlong_integer_literal_400(self, live_server):
        base_url, _ = live_server
        conn = _connect(base_url)
        try:
            body = b'{"vectors": [[' + b"1" * 5000 + b"]]}"
            response, payload = _exchange(conn, body)
        finally:
            conn.close()
        assert response.status == 400
        assert json.loads(payload)["error"] == "request body is not valid JSON"

    def test_deeply_nested_array_400(self, live_server):
        base_url, _ = live_server
        conn = _connect(base_url)
        try:
            response, payload = _exchange(conn, b"[" * 100_000)
        finally:
            conn.close()
        assert response.status == 400
        assert json.loads(payload)["error"] == "request body is not valid JSON"

    def test_integer_beyond_float_range_400(self, live_server):
        base_url, frozen = live_server
        width = frozen.features.shape[1]
        conn = _connect(base_url)
        try:
            body = json.dumps({"vectors": [[10 ** 400] * width]}).encode()
            response, payload = _exchange(conn, body)
        finally:
            conn.close()
        _assert_error(response, payload)

    def test_oversize_body_413_closes_then_connection_recovers(
            self, live_server):
        base_url, frozen = live_server
        conn = _connect(base_url)
        try:
            conn.putrequest("POST", "/classify")
            conn.putheader("Content-Length",
                           str(serve_http.MAX_BODY_BYTES + 1))
            conn.endheaders(b'{"vectors": [[0.0')
            response = conn.getresponse()
            payload = response.read()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            _assert_error(response, payload)
            body = json.dumps({"vectors": frozen.features[:1].tolist()})
            response, _ = _exchange(conn, body.encode())
            assert response.status == 200
        finally:
            conn.close()

    @pytest.mark.parametrize("declared", ["-5", "abc", "1_0", "+3"])
    def test_invalid_content_length_closes_before_smuggled_bytes(
            self, live_server, declared):
        base_url, _ = live_server
        parts = urllib.parse.urlsplit(base_url)
        with socket.create_connection((parts.hostname, parts.port),
                                      timeout=5.0) as sock:
            # The unread "body" is itself a request: it must never run.
            sock.sendall(
                b"POST /classify HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + declared.encode() + b"\r\n\r\n"
                b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            received = b""
            while chunk := sock.recv(4096):
                received += chunk
        assert received.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in received
        assert received.count(b"HTTP/1.1") == 1

    def test_chunked_body_411_closes(self, live_server):
        base_url, _ = live_server
        conn = _connect(base_url)
        try:
            conn.request("POST", "/classify", iter([b'{"vectors": []}']),
                         {"Transfer-Encoding": "chunked"},
                         encode_chunked=True)
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        assert response.status == 411
        assert response.getheader("Connection") == "close"
        _assert_error(response, payload)

    def test_unread_body_on_unknown_path_closes(self, live_server):
        base_url, _ = live_server
        conn = _connect(base_url)
        try:
            response, payload = _exchange(conn, b'{"vectors": []}',
                                          path="/nope")
        finally:
            conn.close()
        assert response.status == 404
        assert response.getheader("Connection") == "close"

    def test_short_body_answers_408_after_read_timeout(self, live_server,
                                                       monkeypatch):
        base_url, _ = live_server
        monkeypatch.setattr(serve_http, "READ_TIMEOUT_S", 0.3)
        conn = _connect(base_url)
        try:
            conn.putrequest("POST", "/classify")
            conn.putheader("Content-Length", "100")
            start = time.perf_counter()
            conn.endheaders(b"x" * 10)
            response = conn.getresponse()
            payload = response.read()
            waited = time.perf_counter() - start
        finally:
            conn.close()
        assert response.status == 408
        assert response.getheader("Connection") == "close"
        _assert_error(response, payload)
        assert waited < 0.3 + 2.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _rows(width, elements):
    return st.lists(st.lists(elements, min_size=width, max_size=width),
                    min_size=1, max_size=3)


def _poisoned(args):
    rows, bad, index = args
    rows[index % len(rows)][index % len(rows[0])] = bad
    return rows


def _nested(depth, width):
    return b"[" * depth + json.dumps([0.0] * width).encode() + b"]" * depth


def _hostile_bodies(width):
    """/classify bodies that no correct server may answer with 200 or 500."""
    bad_arrays = st.one_of(
        # wrong widths
        st.integers(0, 2 * width).filter(lambda w: w != width)
        .flatmap(lambda w: _rows(w, _FINITE)),
        # NaN and +/-inf among otherwise valid rows
        st.tuples(_rows(width, _FINITE),
                  st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                  st.integers(0, 10 ** 6)).map(_poisoned),
        # wrong types: scalars, objects, 1-d rows, non-numeric cells
        st.text(max_size=8), st.booleans(), st.integers(),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        st.lists(_FINITE, min_size=width, max_size=width),
        _rows(width, st.text(alphabet="xyz", min_size=1, max_size=3)),
        _rows(width, st.none() | st.dictionaries(st.just("a"), _FINITE)),
        # ragged
        st.lists(st.lists(_FINITE, max_size=2 * width), min_size=2,
                 max_size=4).filter(lambda rows: len(set(map(len, rows))) > 1),
        # empty
        st.just([]), st.just([[]]),
    )
    payloads = st.one_of(
        st.tuples(st.sampled_from(["vectors", "volumes"]), bad_arrays)
        .map(lambda kv: {kv[0]: kv[1]}),
        # negative volumes, both keys, neither key
        _rows(width, st.floats(max_value=-1e-9, allow_infinity=False))
        .map(lambda rows: {"volumes": rows}),
        _rows(width, _FINITE).map(lambda r: {"vectors": r, "volumes": r}),
        st.dictionaries(st.text(max_size=5).filter(
            lambda k: k not in ("vectors", "volumes")), st.integers(),
            max_size=2),
        # valid JSON that is not an object
        st.lists(st.integers(), max_size=3), st.integers(), st.text(),
    )
    return st.one_of(
        payloads.map(lambda p: json.dumps(p).encode()),
        # not JSON / not UTF-8, and truncated valid bodies
        st.binary(max_size=64),
        st.integers(1, 20).map(
            lambda k: json.dumps({"vectors": [[0.5] * width]}).encode()[:-k]
        ),
        # nesting past numpy's dimension limit and past the parser's depth
        st.integers(1, 3000).map(lambda d: _nested(d, width)),
        st.integers(4301, 6000).map(
            lambda n: b'{"vectors": [[' + b"7" * n + b"]]}"
        ),
    )


class TestClassifyFuzz:
    def test_hostile_bodies_get_4xx_and_connection_survives(self,
                                                           live_server):
        base_url, frozen = live_server
        width = frozen.features.shape[1]
        valid = json.dumps({"vectors": frozen.features[:1].tolist()}).encode()
        conn = _connect(base_url)

        @settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(body=_hostile_bodies(width))
        def check(body):
            _assert_error(*_exchange(conn, body))
            # Same connection, or a clean reopen after `Connection: close`.
            response, _ = _exchange(conn, valid)
            assert response.status == 200

        try:
            check()
        finally:
            conn.close()

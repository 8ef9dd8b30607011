"""End-to-end tests of the asyncio HTTP front end.

A real server on an ephemeral port, exercised over ``http.client``:
routing, coalescing, structured 400s, 503 load shedding with retry
hints, batch ordering, admin hot-swap and the observability endpoints.
"""

import http.client
import json
import queue
import socket
import threading
import time

import pytest

from repro.dataio.keys import carrier_key_to_str
from repro.serve.front import FrontConfig, ShardSet, serve_in_thread

from .conftest import SERVE_PARAMETERS

SINGULAR = tuple(n for n in SERVE_PARAMETERS if n != "hysA3Offset")


@pytest.fixture(scope="module")
def front(fitted_engine, rulebook):
    shard_set = ShardSet(fitted_engine, rulebook, shards=2, max_queue=64)
    handle = serve_in_thread(
        shard_set,
        FrontConfig(
            shards=2,
            max_inflight=64,
            parameters=SINGULAR,
        ),
    )
    yield shard_set, handle
    handle.stop()
    shard_set.stop()


@pytest.fixture()
def client(front):
    _, handle = front
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def carrier_keys(dataset):
    keys = []
    for enodeb in dataset.network.enodebs():
        for template in enodeb.carriers():
            keys.append(carrier_key_to_str(template.carrier_id))
    return keys


def call(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        parsed = raw.decode("utf-8", "replace")
    return response.status, parsed, dict(response.getheaders())


class TestEndpoints:
    def test_healthz(self, client):
        status, body, _ = call(client, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["shards"] == 2

    def test_recommend_existing_carrier(self, client, carrier_keys):
        status, body, _ = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert status == 200
        assert set(body["values"]) == set(SINGULAR)
        assert body["shard"] in (0, 1)
        assert body["generation"] >= 0
        assert body["duration_ms"] >= 0

    def test_recommend_is_deterministic(self, client, carrier_keys):
        answers = [
            call(client, "POST", "/recommend", {"carrier": carrier_keys[1]})[1]
            for _ in range(3)
        ]
        assert all(a["values"] == answers[0]["values"] for a in answers)
        assert all(a["shard"] == answers[0]["shard"] for a in answers)

    def test_batch_preserves_request_order(self, client, carrier_keys):
        keys = carrier_keys[:6]
        status, body, _ = call(
            client, "POST", "/batch",
            {"requests": [{"carrier": key} for key in keys]},
        )
        assert status == 200
        assert len(body["results"]) == len(keys)
        singles = [
            call(client, "POST", "/recommend", {"carrier": key})[1]["values"]
            for key in keys
        ]
        assert [r["values"] for r in body["results"]] == singles

    def test_empty_batch(self, client):
        status, body, _ = call(client, "POST", "/batch", {"requests": []})
        assert status == 200
        assert body["results"] == []

    def test_stats_counts_serving(self, client, carrier_keys):
        call(client, "POST", "/recommend", {"carrier": carrier_keys[0]})
        status, body, _ = call(client, "GET", "/stats")
        assert status == 200
        assert body["served"] >= 1
        assert body["max_inflight"] == 64
        assert set(body["queue_depths"]) == {"0", "1"} or set(
            body["queue_depths"]
        ) == {0, 1}

    def test_metrics_exposition(self, client):
        status, text, headers = call(client, "GET", "/metrics")
        assert status == 200
        assert "text/plain" in headers.get("content-type", "")

    def test_unknown_path_404(self, client):
        status, body, _ = call(client, "GET", "/nope")
        assert status == 404
        assert body["error"] == "not_found"

    def test_unsupported_method_405(self, client):
        status, body, _ = call(client, "PUT", "/recommend", {})
        assert status == 405


class TestStructured400s:
    def test_invalid_json_names_body(self, client):
        client.request(
            "POST", "/recommend", body=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        response = client.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert body["error"] == "invalid_request"
        assert body["field"] == "body"

    def test_missing_target_names_field(self, client):
        status, body, _ = call(client, "POST", "/recommend", {"local": True})
        assert status == 400
        assert body["error"] == "invalid_request"
        assert body["field"] == "request"
        assert "exactly one" in body["reason"]

    def test_malformed_carrier_names_field(self, client):
        status, body, _ = call(
            client, "POST", "/recommend", {"carrier": "1.2.3"}
        )
        assert status == 400
        assert body["field"] == "request.carrier"

    def test_batch_error_names_item(self, client, carrier_keys):
        status, body, _ = call(
            client, "POST", "/batch",
            {"requests": [{"carrier": carrier_keys[0]}, {"carrier": 9}]},
        )
        assert status == 400
        assert body["field"] == "requests[1].carrier"

    def test_unknown_parameter_is_a_500_not_a_hang(self, client, carrier_keys):
        status, body, _ = call(
            client, "POST", "/recommend",
            {"carrier": carrier_keys[0], "parameters": ["notAParameter"]},
        )
        assert status == 500
        assert body["error"] == "internal"


class TestAdminSwap:
    def test_swap_bumps_generation_and_keeps_answers(
        self, client, front, carrier_keys
    ):
        shard_set, _ = front
        before_status, before, _ = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert before_status == 200
        generation = shard_set.generation
        status, report, _ = call(client, "POST", "/admin/swap", {"jobs": 1})
        assert status == 200
        assert report["generation"] == generation + 1
        assert report["shards"] == 2
        assert report["warmed"] >= 1
        status, after, _ = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert status == 200
        assert after["generation"] == generation + 1
        # Same snapshot refit: the answers must not change.
        assert after["values"] == before["values"]

    def test_swap_rejects_bad_jobs(self, client):
        status, body, _ = call(
            client, "POST", "/admin/swap", {"jobs": "many"}
        )
        assert status == 400
        assert body["field"] == "jobs"

    def test_invalidate_endpoint(self, client, carrier_keys):
        call(client, "POST", "/recommend", {"carrier": carrier_keys[0]})
        status, body, _ = call(client, "POST", "/admin/invalidate", {})
        assert status == 200
        assert body["dropped"] >= 0


class TestLoadShedding:
    def test_overload_returns_structured_503(
        self, fitted_engine, rulebook, carrier_keys
    ):
        """A tier sized for one in-flight request sheds a concurrent
        storm with 503s that carry the retry hint; nothing hangs and the
        survivors are correct."""
        shard_set = ShardSet(fitted_engine, rulebook, shards=1, max_queue=4)
        handle = serve_in_thread(
            shard_set,
            FrontConfig(
                shards=1,
                max_inflight=1,
                parameters=SINGULAR,
            ),
        )
        statuses = []
        lock = threading.Lock()

        def fire(key):
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=30
            )
            try:
                status, body, headers = call(
                    conn, "POST", "/recommend", {"carrier": key}
                )
                with lock:
                    statuses.append((status, body, headers))
            finally:
                conn.close()

        try:
            threads = [
                threading.Thread(target=fire, args=(carrier_keys[i % 4],))
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(statuses) == 16
            codes = [status for status, _, _ in statuses]
            assert all(code in (200, 503) for code in codes)
            assert 200 in codes  # the tier kept serving
            for status, body, headers in statuses:
                if status == 503:
                    assert body["error"] == "overloaded"
                    assert body["retry_after_ms"] >= 1
                    assert "retry-after" in headers
        finally:
            handle.stop()
            shard_set.stop()


def raw_exchange(port, data, timeout=10.0):
    """Send raw bytes on a fresh socket; return everything the server
    writes before it closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestBadContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "+5", "1_0", "²"])
    def test_answers_400_and_closes(self, front, client, value):
        _, handle = front
        request = (
            "POST /recommend HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {value}\r\n\r\n"
        ).encode("latin-1")
        raw = raw_exchange(handle.port, request + b'{"carrier": "0.0.0.0"}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": "bad_content_length"}
        # The server survived and still answers on other connections.
        status, health, _ = call(client, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"


@pytest.fixture()
def single_shard(fitted_engine, rulebook):
    shard_set = ShardSet(fitted_engine, rulebook, shards=1, max_queue=64)
    handle = serve_in_thread(
        shard_set,
        FrontConfig(shards=1, max_inflight=64, parameters=SINGULAR),
    )
    yield shard_set, handle
    handle.stop()
    shard_set.stop()


class TestNaturalBatching:
    def test_sequential_requests_pay_no_coalesce_wait(
        self, single_shard, carrier_keys
    ):
        _, handle = single_shard
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            for key in carrier_keys[:5]:
                status, body, _ = call(
                    conn, "POST", "/recommend", {"carrier": key}
                )
                assert status == 200
                # An idle shard flushes inside the submit call.
                assert body["timings"]["coalesce_ms"] < 1.0
        finally:
            conn.close()

    def test_requests_park_while_the_shard_is_busy(
        self, single_shard, carrier_keys
    ):
        shard_set, handle = single_shard
        service = shard_set.shards[0].service
        real = service.handle_batch
        first = threading.Event()

        def slow_first_batch(*args, **kwargs):
            if not first.is_set():
                first.set()
                time.sleep(0.3)
            return real(*args, **kwargs)

        service.handle_batch = slow_first_batch
        statuses = []

        def fire(key):
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=30
            )
            try:
                statuses.append(
                    call(conn, "POST", "/recommend", {"carrier": key})[0]
                )
            finally:
                conn.close()

        try:
            fire(carrier_keys[0])  # warm-up request rides the slow batch
            assert first.is_set()
            first.clear()
            threads = [
                threading.Thread(target=fire, args=(carrier_keys[i % 4],))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            del service.handle_batch
        assert statuses == [200] * 9
        stats = shard_set.stats()
        assert stats["served"] == 9
        # Requests arriving during the slow batch coalesced.
        assert stats["batches"] < stats["served"] - 1

    def test_shard_serves_after_engine_errors(self, single_shard, carrier_keys):
        _, handle = single_shard
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            for _ in range(3):
                status, _, _ = call(
                    conn, "POST", "/recommend",
                    {"carrier": carrier_keys[0], "parameters": ["notAParameter"]},
                )
                assert status == 500
            status, _, _ = call(
                conn, "POST", "/recommend", {"carrier": carrier_keys[0]}
            )
            assert status == 200
        finally:
            conn.close()

    def test_shard_serves_after_a_queue_full_shed(
        self, single_shard, carrier_keys
    ):
        shard_set, handle = single_shard
        shard = shard_set.shards[0]
        real = shard.submit_batch
        calls = []

        def full_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise queue.Full
            return real(*args, **kwargs)

        shard.submit_batch = full_once
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            status, body, _ = call(
                conn, "POST", "/recommend", {"carrier": carrier_keys[0]}
            )
            assert status == 503
            assert body["reason"] == "shard_queue"
            status, _, _ = call(
                conn, "POST", "/recommend", {"carrier": carrier_keys[0]}
            )
            assert status == 200
        finally:
            conn.close()
            del shard.submit_batch

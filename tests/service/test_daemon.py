"""Daemon behaviour over real sockets (in-process, jobs=1):
request/response, admission, drain, malformed input, store configuration."""

import json
import threading

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient


class TestRequests:
    def test_health_and_status(self, local_daemon):
        d = local_daemon()
        with ServiceClient(d.config.socket) as c:
            h = c.health()
            assert h["ok"] and h["state"] == "ok" and not h["busy"]
            s = c.status()
            assert s["ok"] and s["sessions"] == {}

    def test_submit_cold_then_warm(self, local_daemon):
        d = local_daemon()
        with ServiceClient(d.config.socket) as c:
            r = c.submit("demo", id="r1")
            assert r["ok"] and r["id"] == "r1"
            assert len(r["reverified"]) == 4
            r2 = c.submit("demo", id="r2")
            assert r2["id"] == "r2"
            assert r2["reverified"] == [] and r2["cached"] == []
            assert "service.parse" not in r2["phases"]
            s = c.status()
            assert s["sessions"]["demo"]["requests"] == 2
            assert s["counters"]["service.requests"] >= 2

    def test_two_clients_share_the_session(self, local_daemon):
        d = local_daemon()
        with ServiceClient(d.config.socket) as a:
            a.submit("demo")
        with ServiceClient(d.config.socket) as b:
            r = b.submit("demo")
            assert r["reverified"] == []  # warm across connections

    def test_request_id_echoed_on_errors_too(self, local_daemon):
        d = local_daemon()
        with ServiceClient(d.config.socket) as c:
            r = c.request({"op": "submit", "corpus": "demo",
                           "functions": ["demo::nope"], "id": "bad1"})
            assert not r["ok"] and r["error"] == "bad-request"
            assert r["id"] == "bad1"


class TestMalformedInput:
    def test_bad_json_keeps_the_connection(self, local_daemon):
        d = local_daemon()
        with ServiceClient(d.config.socket) as c:
            c.sock.sendall(b"{not json}\n")
            r = c.request({"op": "health"})
            # First response answers the garbage, second the health.
            assert not r["ok"] and r["error"] == "bad-request"
            assert c.request({"op": "health"})["ok"]

    def test_unknown_op(self, local_daemon):
        d = local_daemon()
        with ServiceClient(d.config.socket) as c:
            r = c.request({"op": "explode"})
            assert r["error"] == "bad-request" and "op must be" in r["message"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline", float("nan")),  # sent as the JSON token NaN
            ("deadline", -5),
            ("deadline", True),
            ("jobs", True),
        ],
    )
    def test_bad_deadline_or_jobs_is_a_bad_request(
        self, local_daemon, field, value
    ):
        d = local_daemon(deadline=30.0)
        with ServiceClient(d.config.socket) as c:
            r = c.request({"op": "submit", "corpus": "demo", field: value})
            assert not r["ok"] and r["error"] == "bad-request"
            assert field in r["message"]
            assert c.status()["sessions"] == {}  # nothing was verified

    def test_unknown_corpus(self, local_daemon):
        d = local_daemon()
        with ServiceClient(d.config.socket) as c:
            r = c.request({"op": "submit", "corpus": "no-such"})
            assert r["error"] == "bad-request"
            assert "unknown corpus" in r["message"]


class TestDrain:
    def test_drain_refuses_new_submits(self, local_daemon):
        d = local_daemon()
        with ServiceClient(d.config.socket) as c:
            c.submit("demo")
            assert c.drain()["draining"]
            r = c.request({"op": "submit", "corpus": "demo"})
            assert r["error"] == "draining"
        d.stopped.wait(timeout=10)
        assert d.stopped.is_set()

    def test_shutdown_op_stops_the_daemon(self, local_daemon):
        d = local_daemon()
        with ServiceClient(d.config.socket) as c:
            assert c.shutdown()["ok"]
        d.stopped.wait(timeout=10)
        assert d.stopped.is_set()

    def test_drain_is_idempotent(self, local_daemon):
        d = local_daemon()
        d.begin_drain("first")
        d.begin_drain("second")
        assert d.drain_reason == "first"


class TestConcurrentClients:
    def test_parallel_health_probes_during_submit(self, local_daemon):
        d = local_daemon()
        results = []

        def probe():
            with ServiceClient(d.config.socket) as c:
                results.append(c.health()["ok"])

        with ServiceClient(d.config.socket) as c:
            c.sock.sendall(protocol.encode({"op": "submit", "corpus": "demo"}))
            threads = [threading.Thread(target=probe) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            # health answered inline while the submit was in flight
            assert results == [True] * 4
            # finally collect the submit response so teardown is clean
            assert protocol.decode(next(c._lines))["ok"]


def _corrupt_one_entry(cache):
    """Flip a payload byte of one published entry (its checksum no
    longer matches); returns the function it belongs to."""
    path = sorted((cache / "entries").glob("*/*.json"))[0]
    blob = bytearray(path.read_bytes())
    blob[blob.find(b'"payload": "') + 20] ^= 0x01
    path.write_bytes(bytes(blob))
    return json.loads(blob)["function"]


class TestStoreConfig:
    """The daemon opens its store like the CLI: a corrupt entry at the
    daemon's root is quarantined and re-verified."""

    def test_heal_mode_is_the_default(self, local_daemon, tmp_path):
        first = local_daemon()
        with ServiceClient(first.config.socket) as c:
            c.submit("demo")
        victim = _corrupt_one_entry(tmp_path / "cache")

        second = local_daemon()  # a restart: cold session, warm store
        with ServiceClient(second.config.socket) as c:
            r = c.submit("demo")
            assert r["ok"] and r["functions"][victim] == "verified"
        assert len(list(second.store.quarantine_dir.iterdir())) == 1

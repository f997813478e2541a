"""Chaos suite: the daemon under injected faults — load shedding,
client loss, accept failures, worker crashes, and a wedged pool."""

import threading

import pytest

from repro import faultinject
from repro.obs import metrics
from repro.service.client import ServiceClient


class TestShedding:
    def test_overload_sheds_with_retry_after(self, local_daemon):
        # One slow in-flight request + a queue bound of 1: the first
        # submit occupies the dispatcher, the second fills the queue,
        # the third must be shed with a retry hint.
        d = local_daemon(queue_bound=1)
        faultinject.install("pipeline.verify_one@leaf:delay:0.6:1")
        responses = {}

        def submit(tag):
            with ServiceClient(d.config.socket) as c:
                responses[tag] = c.request(
                    {"op": "submit", "corpus": "demo", "id": tag}
                )

        before = metrics.snapshot()["counters"].get("service.shed", 0)
        first = threading.Thread(target=submit, args=("a",))
        first.start()
        # Wait until the dispatcher has actually picked "a" up.
        deadline = threading.Event()
        for _ in range(200):
            if d._current is not None:
                break
            deadline.wait(0.01)
        rest = [
            threading.Thread(target=submit, args=(tag,))
            for tag in ("b", "c")
        ]
        rest[0].start()
        for _ in range(200):
            if d.queue.qsize() >= 1:
                break
            deadline.wait(0.01)
        rest[1].start()
        for t in [first, *rest]:
            t.join(timeout=30)
        shed = [r for r in responses.values() if r.get("error") == "overloaded"]
        served = [r for r in responses.values() if r.get("ok")]
        assert len(shed) == 1 and len(served) == 2
        assert shed[0]["retry_after"] > 0
        assert metrics.snapshot()["counters"]["service.shed"] == before + 1

    def test_client_retries_past_shedding(self, local_daemon):
        d = local_daemon(queue_bound=1)
        # Warm the session so the retried submit is instant.
        with ServiceClient(d.config.socket) as c:
            c.submit("demo")
        with ServiceClient(d.config.socket) as c:
            r = c.submit("demo")  # ServiceClient.submit honours retry_after
            assert r["ok"]


class TestClientLoss:
    def test_disconnect_mid_request_does_not_kill_the_daemon(
        self, local_daemon
    ):
        d = local_daemon()
        from repro.service.protocol import encode

        # Hold the request in the dispatcher until the client is gone,
        # so the hang-up is mid-request however slow the machine is.
        started, hung_up = threading.Event(), threading.Event()
        execute = d._execute

        def gated(msg):
            started.set()
            hung_up.wait(30)
            return execute(msg)

        d._execute = gated
        c = ServiceClient(d.config.socket)
        c.sock.sendall(encode({"op": "submit", "corpus": "demo"}))
        assert started.wait(30)
        c.sock.close()  # hang up while the request is in flight
        hung_up.set()
        # The daemon must finish the work, note the lost client, and
        # keep serving.
        with ServiceClient(d.config.socket) as c2:
            assert c2.health()["ok"]
            r = c2.submit("demo")
            assert r["ok"] and r["reverified"] == []  # work still landed
        # The lost client is counted by its own handler thread, after
        # the dispatcher released the request: wait for both handlers.
        for _ in range(3000):
            if not d._conns:
                break
            threading.Event().wait(0.01)
        assert not d._conns
        assert metrics.snapshot()["counters"].get("service.client_lost", 0) >= 1


class TestInjectedFailures:
    def test_accept_fault_is_an_internal_error_not_a_crash(
        self, local_daemon
    ):
        d = local_daemon()
        faultinject.install("service.accept:raise::1")
        with ServiceClient(d.config.socket) as c:
            r = c.request({"op": "health"})
            assert not r["ok"] and r["error"] == "internal"
            assert c.request({"op": "health"})["ok"]  # fault consumed

    def test_dispatch_fault_degrades_to_failure_entries(self, local_daemon):
        d = local_daemon()
        faultinject.install("service.dispatch:raise::1")
        with ServiceClient(d.config.socket) as c:
            r = c.submit("demo")
            # The faulted function degrades; the daemon stays up.
            assert not r["ok"]
            assert c.health()["ok"]
            r2 = c.submit("demo")
            assert r2["ok"]


class TestWorkerFaults:
    def test_worker_crash_recovers_via_serial_retry(self, subproc_daemon):
        d = subproc_daemon(jobs=2, fault="parallel.worker@leaf:crash")
        with d.client() as c:
            r = c.submit("demo", jobs=2)
            assert r["ok"]
            assert all(s == "verified" for s in r["functions"].values())
            assert c.health()["ok"]

    def test_watchdog_restarts_a_wedged_pool(self, subproc_daemon):
        d = subproc_daemon(
            jobs=2, watchdog=1.0, fault="parallel.worker@top:delay:30"
        )
        with d.client() as c:
            r = c.submit("demo", jobs=2)
            # The wedged worker was killed, the request finished serially
            # in the daemon (where the worker-only fault cannot fire),
            # and the request still completed.
            assert r["ok"]
            assert all(s == "verified" for s in r["functions"].values())
            assert c.health()["ok"]
            s = c.status()
            assert s["counters"].get("service.watchdog_kills", 0) > 0
            r2 = c.submit("demo", jobs=2)
            assert r2["ok"]
            assert all(s == "verified" for s in r2["functions"].values())

"""The long-lived verification daemon: sockets, admission control,
load shedding, the watchdog, and graceful drain.

Thread layout (all daemon threads):

* **accept loop** — one, blocking on the Unix listening socket;
* **client handlers** — one per connection; answer ``health`` /
  ``status`` / ``drain`` inline (liveness must not queue behind
  verification) and enqueue ``submit`` requests;
* **dispatcher** — exactly one: it owns every session, so per-request
  observability deltas and the sessions' committed fingerprints
  never race;
* **watchdog** — optional: if the in-flight request exceeds the
  absolute cap, it SIGKILLs the fork pool's workers. The pool
  machinery then sees a broken pool and retries the lost items
  serially *in the parent*, and hands the functions not yet
  dispatched to one replacement pool. It fires again a cap after
  each firing, so a replacement pool that wedges too is killed and
  the rest runs serially in the parent — the request completes
  degraded, the session state survives, the daemon never restarts.

Admission control is a bounded queue: a ``submit`` that finds it full
is **shed** with ``{"error": "overloaded", "retry_after": …}`` —
explicit back-pressure beats an unbounded backlog that converts
overload into memory exhaustion and unbounded latency.

Graceful drain (``drain``/``shutdown`` op, or SIGTERM via
``scripts/reprod.py``): stop admitting, let the in-flight request
finish the functions it has handed out, report what was never
dispatched as ``drained`` (those functions publish nothing, so a
restarted daemon misses on them), answer every queued request with
``draining``, exit.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import threading
from typing import Optional

from repro import faultinject
from repro.budget import BudgetSpec
from repro.obs import clock
from repro.obs.metrics import metrics
from repro.service import protocol
from repro.service.config import ServiceConfig
from repro.service.session import ServiceSession
from repro.store import ProofStore


class _Pending:
    """One queued submit: the request plus the rendezvous the handler
    thread blocks on until the dispatcher fills in the response."""

    __slots__ = ("request", "response", "done")

    def __init__(self, request: dict) -> None:
        self.request = request
        self.response: Optional[dict] = None
        self.done = threading.Event()


class VerifierDaemon:
    def __init__(
        self,
        config: ServiceConfig,
        store: Optional[ProofStore] = None,
        budget: Optional[BudgetSpec] = None,
    ) -> None:
        self.config = config
        self.store = store
        if self.store is None and config.cache_dir:
            # The CLI's store resolution at the daemon's root: a
            # corrupt entry is quarantined and re-verified, and a store
            # that cannot be opened warns and runs without one.
            self.store = ProofStore.open(config.cache_dir)
        self.budget = budget
        self.sessions: dict[str, ServiceSession] = {}
        self.queue: "queue.Queue[_Pending]" = queue.Queue(
            maxsize=config.queue_bound
        )
        self.draining = threading.Event()
        self.drain_reason = ""
        self.stopped = threading.Event()
        self.ready = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._conns: set = set()
        self._current: Optional[tuple[float, dict]] = None
        self._watchdog_fired_at: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind, listen, and spawn the daemon threads. Non-blocking;
        pair with :meth:`stop` (tests) or :meth:`serve_forever`."""
        path = self.config.socket
        try:
            os.unlink(path)
        except OSError:
            pass
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(16)
        self._sock.settimeout(0.2)
        for name, target in (
            ("accept", self._accept_loop),
            ("dispatch", self._dispatch_loop),
        ):
            t = threading.Thread(target=target, name=f"reprod-{name}", daemon=True)
            t.start()
            self._threads.append(t)
        if self.config.watchdog:
            t = threading.Thread(
                target=self._watchdog_loop, name="reprod-watchdog", daemon=True
            )
            t.start()
            self._threads.append(t)
        self.ready.set()

    def serve_forever(self) -> None:
        """Start and block until a drain completes. Installs SIGTERM/
        SIGINT handlers when (and only when) running on the main
        thread — both signals mean *graceful drain*, never abrupt
        death."""
        self.start()
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, lambda *_: self.begin_drain("sigterm"))
            signal.signal(signal.SIGINT, lambda *_: self.begin_drain("sigint"))
        self.stopped.wait()
        self._teardown()

    def begin_drain(self, reason: str = "drain") -> None:
        """Idempotent: flip to draining. The dispatcher notices, the
        in-flight request hands out no further function, queued
        requests are refused, and the daemon shuts down."""
        if self.draining.is_set():
            return
        self.drain_reason = reason
        faultinject.fire("service.drain", reason)
        metrics.inc("service.drains")
        self.draining.set()

    def stop(self, reason: str = "stop") -> None:
        """Drain and block until torn down (test convenience)."""
        self.begin_drain(reason)
        self.stopped.wait(timeout=self.config.drain_timeout + 5)
        self._teardown()

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        for conn in list(self._conns):
            try:
                conn.close()
            except OSError:
                pass
        try:
            os.unlink(self.config.socket)
        except OSError:
            pass

    # -- accept + per-client handling ---------------------------------------

    def _accept_loop(self) -> None:
        while not self.stopped.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed under us: shutting down
            self._conns.add(conn)
            t = threading.Thread(
                target=self._handle_client, args=(conn,), daemon=True
            )
            t.start()

    def _handle_client(self, conn) -> None:
        try:
            for line in protocol.read_lines(conn):
                if not line.strip():
                    continue
                try:
                    msg = protocol.decode(line)
                except protocol.ProtocolError as e:
                    self._send(conn, protocol.error_response("bad-request", str(e)))
                    continue
                resp = self._one_request(msg)
                if not self._send(conn, resp):
                    return
        except protocol.ProtocolError:
            # Oversized line: framing is gone; say so and hang up.
            self._send(
                conn,
                protocol.error_response("bad-request", "line exceeds MAX_LINE"),
            )
        except OSError:
            pass  # client went away; nothing to clean up but the conn
        finally:
            self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _send(self, conn, resp: dict) -> bool:
        try:
            conn.sendall(protocol.encode(resp))
            return True
        except (OSError, protocol.ProtocolError):
            # A client that disconnected mid-request loses its
            # response; the work (and any published proofs) survive.
            metrics.inc("service.client_lost")
            return False

    def _one_request(self, msg: dict) -> dict:
        try:
            faultinject.fire("service.accept", str(msg.get("op", "")))
        except Exception as e:
            metrics.inc("service.internal_errors")
            return protocol.error_response("internal", str(e), msg)
        bad = protocol.validate_request(msg)
        if bad is not None:
            return protocol.error_response("bad-request", bad, msg)
        op = msg["op"]
        if op == "health":
            return self._health(msg)
        if op == "status":
            return self._status(msg)
        if op in ("drain", "shutdown"):
            self.begin_drain(op)
            return {"ok": True, "draining": True, **_echo(msg)}
        # submit: admission control.
        if self.draining.is_set():
            return protocol.error_response(
                "draining", "daemon is draining; resubmit after restart", msg
            )
        pending = _Pending(msg)
        try:
            self.queue.put_nowait(pending)
        except queue.Full:
            metrics.inc("service.shed")
            return protocol.error_response(
                "overloaded",
                "admission queue is full",
                msg,
                retry_after=round(0.1 * (self.queue.qsize() + 1), 3),
            )
        metrics.gauge("service.queue_depth", self.queue.qsize())
        pending.done.wait()
        return pending.response

    # -- inline ops ----------------------------------------------------------

    def _health(self, msg: dict) -> dict:
        return {
            "ok": True,
            "state": "draining" if self.draining.is_set() else "ok",
            "pid": os.getpid(),
            "queue_depth": self.queue.qsize(),
            "busy": self._current is not None,
            **_echo(msg),
        }

    def _status(self, msg: dict) -> dict:
        counters = metrics.snapshot()["counters"]
        return {
            "ok": True,
            "state": "draining" if self.draining.is_set() else "ok",
            "queue_depth": self.queue.qsize(),
            "sessions": {
                name: s.summary() for name, s in self.sessions.items()
            },
            "counters": {
                k: v for k, v in counters.items() if k.startswith("service.")
            },
            **_echo(msg),
        }

    # -- the dispatcher ------------------------------------------------------

    def _session(self, corpus: str) -> ServiceSession:
        if corpus not in self.sessions:
            self.sessions[corpus] = ServiceSession(
                corpus, store=self.store, budget=self.budget
            )
        return self.sessions[corpus]

    def _stop_check(self) -> Optional[str]:
        if not self.draining.is_set():
            return None
        return self.drain_reason or "drain"

    def _dispatch_loop(self) -> None:
        while True:
            try:
                pending = self.queue.get(timeout=0.05)
            except queue.Empty:
                if self.draining.is_set():
                    self.stopped.set()
                    return
                continue
            metrics.gauge("service.queue_depth", self.queue.qsize())
            if self.draining.is_set():
                pending.response = protocol.error_response(
                    "draining",
                    "daemon drained before this request was dispatched",
                    pending.request,
                )
                pending.done.set()
                continue
            self._current = (clock.monotonic(), pending.request)
            self._watchdog_fired_at = None
            try:
                pending.response = self._execute(pending.request)
            except KeyError as e:
                pending.response = protocol.error_response(
                    "bad-request", str(e), pending.request
                )
            except Exception as e:  # the dispatcher must outlive any request
                metrics.inc("service.internal_errors")
                pending.response = protocol.error_response(
                    "internal", f"{type(e).__name__}: {e}", pending.request
                )
            finally:
                self._current = None
            pending.done.set()

    def _execute(self, msg: dict) -> dict:
        session = self._session(msg["corpus"])
        deadline = msg.get("deadline")
        if deadline is None:
            deadline = self.config.deadline
        elif self.config.deadline is not None:
            deadline = min(deadline, self.config.deadline)
        out = session.submit(
            functions=msg.get("functions"),
            params=msg.get("params"),
            contracts=msg.get("contracts"),
            deadline=deadline,
            jobs=msg.get("jobs") or self.config.jobs,
            stop_check=self._stop_check,
        )
        out.update(_echo(msg))
        return out

    # -- the watchdog --------------------------------------------------------

    def _watchdog_loop(self) -> None:
        """Kill the pool workers of a request that exceeds the absolute
        cap. Only the *workers* die: the dispatcher thread is blocked
        in ``fanout``, which maps the resulting broken pool to a serial
        retry in this (parent) process and a replacement pool for the
        rest — the request completes, the sessions and the store keep
        their state, nothing restarts. The watchdog re-arms a ``cap``
        after each firing, so a replacement pool that wedges too is
        killed in turn and the rest runs serially here."""
        import multiprocessing

        cap = self.config.watchdog
        while not self.stopped.is_set():
            self.stopped.wait(0.05)
            current = self._current
            if current is None:
                continue
            started, _ = current
            now = clock.monotonic()
            fired = self._watchdog_fired_at
            if fired is None or fired < started:
                fired = started  # not yet fired for this request
            if now - fired <= cap:
                continue
            self._watchdog_fired_at = now
            killed = 0
            for proc in multiprocessing.active_children():
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed += 1
                except OSError:
                    pass
            if killed:
                metrics.inc("service.watchdog_kills", killed)


def _echo(msg: dict) -> dict:
    return {"id": msg["id"]} if "id" in msg else {}

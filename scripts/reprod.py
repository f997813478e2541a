#!/usr/bin/env python
"""``reprod`` — the long-lived verification daemon.

Usage::

    PYTHONPATH=src python scripts/reprod.py --socket /tmp/reprod.sock \
        --jobs 2 --queue-bound 8 --deadline 30 --cache-dir .repro-cache

Every daemon setting is one of the flags below. The store root comes
only from ``--cache-dir``; without it the daemon keeps no persistent
store. The time flags take a finite, positive number of seconds;
``--jobs`` and ``--queue-bound`` take a positive integer.

Starts the daemon, prints one readiness line (``reprod listening on
<socket> pid <pid>``) and serves until a ``drain``/``shutdown``
request or SIGTERM/SIGINT, both of which drain gracefully: the
in-flight request finishes the functions it has handed out, everything
never dispatched is answered as ``drained`` (it publishes nothing, so the
next daemon over the same store re-verifies it), and the process
exits 0. See ``src/repro/service/``.
"""

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.budget import positive_seconds  # noqa: E402
from repro.service.config import ServiceConfig  # noqa: E402
from repro.service.daemon import VerifierDaemon  # noqa: E402


def positive_int(value: str) -> int:
    """A flag value that must be an integer of at least 1."""
    n = int(value)
    if n < 1:
        raise ValueError(f"{value!r} is not a positive integer")
    return n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--socket", default=None,
                    help="Unix socket path (default .reprod.sock)")
    ap.add_argument("--jobs", type=positive_int, default=None,
                    help="default pool width (default 1)")
    ap.add_argument("--queue-bound", type=positive_int, default=None,
                    help="admission queue bound; shed beyond it (default 8)")
    ap.add_argument("--deadline", type=positive_seconds, default=None,
                    help="default per-request deadline in seconds (default none)")
    ap.add_argument("--drain-timeout", type=positive_seconds, default=None,
                    help="graceful-drain wait in seconds (default 30)")
    ap.add_argument("--watchdog", type=positive_seconds, default=None,
                    help="absolute per-request cap; kills wedged pool workers "
                         "(default off)")
    ap.add_argument("--cache-dir", default=None,
                    help="proof-store root (default: no store)")
    args = ap.parse_args()

    # Each flag is named after the ServiceConfig field it sets.
    overrides = {k: v for k, v in vars(args).items() if v is not None}
    config = ServiceConfig(**overrides)

    daemon = VerifierDaemon(config)
    daemon.start()
    print(f"reprod listening on {config.socket} pid {os.getpid()}", flush=True)
    # start() already ran; serve_forever() is idempotent about that —
    # install the signal handlers and block until the drain completes.
    import signal
    import threading

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda *_: daemon.begin_drain("sigterm"))
        signal.signal(signal.SIGINT, lambda *_: daemon.begin_drain("sigint"))
    daemon.stopped.wait()
    daemon._teardown()
    print(f"reprod drained ({daemon.drain_reason or 'stop'})", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

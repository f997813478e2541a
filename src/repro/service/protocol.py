"""Newline-delimited JSON protocol between clients and the daemon.

One request per line, one response per line, in order, over a Unix
stream socket. JSON-per-line keeps the framing self-healing (a
malformed request costs one error response, not the connection) and
debuggable with ``socat``/``nc``.

Requests are objects with an ``op`` field:

* ``submit``   — ``{"op": "submit", "corpus": "demo",
  "functions": [...], "params": {...}, "contracts": {...},
  "deadline": 5.0, "jobs": 2, "id": "r1"}`` — everything but
  ``corpus`` optional;
* ``status``   — daemon + per-session counters;
* ``health``   — cheap liveness probe (answered even mid-dispatch);
* ``drain``    — stop admitting, finish the functions in flight,
  report the rest as drained, then shut down;
* ``shutdown`` — alias for drain (there is no abrupt stop: the whole
  point is never to strand a pool).

Responses echo the request ``id`` (when given) and carry ``ok``. A
refusal carries ``error`` — one of ``bad-request`` / ``overloaded`` /
``draining`` / ``internal`` — and, for ``overloaded``, a
``retry_after`` hint in seconds: load shedding is explicit, clients
are told to come back, never silently queued without bound.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.budget import positive_seconds

#: One line (request or response) may not exceed this; a client that
#: sends more is told so and disconnected (framing can't be trusted
#: past an unterminated oversized line).
MAX_LINE = 1 << 20

OPS = ("submit", "status", "health", "drain", "shutdown")

ERROR_CODES = ("bad-request", "overloaded", "draining", "internal")


class ProtocolError(ValueError):
    """A line that cannot be framed or parsed as a request."""


def encode(message: dict) -> bytes:
    """One message as one JSON line (raises on oversize — the sender
    is about to violate its own framing)."""
    data = json.dumps(message, sort_keys=True, separators=(",", ":")).encode()
    if len(data) >= MAX_LINE:
        raise ProtocolError(f"message of {len(data)} bytes exceeds MAX_LINE")
    return data + b"\n"


def decode(line: bytes) -> dict:
    if len(line) > MAX_LINE:
        raise ProtocolError("line exceeds MAX_LINE")
    try:
        msg = json.loads(line)
    except ValueError as e:
        raise ProtocolError(f"not valid JSON: {e}") from None
    if not isinstance(msg, dict):
        raise ProtocolError("message is not a JSON object")
    return msg


def error_response(code: str, message: str, request: Optional[dict] = None,
                   **extra) -> dict:
    assert code in ERROR_CODES, code
    resp = {"ok": False, "error": code, "message": message, **extra}
    if request is not None and "id" in request:
        resp["id"] = request["id"]
    return resp


def validate_request(msg: dict) -> Optional[str]:
    """The reason this request is malformed, or ``None`` if it is
    well-formed. Validation up front keeps the dispatcher's error
    surface small: anything past this point is an *internal* error."""
    op = msg.get("op")
    if op not in OPS:
        return f"op must be one of {OPS}, got {op!r}"
    if op != "submit":
        return None
    corpus = msg.get("corpus")
    if not isinstance(corpus, str) or not corpus:
        return "submit needs a non-empty string 'corpus'"
    fns = msg.get("functions")
    if fns is not None and (
        not isinstance(fns, list) or not all(isinstance(f, str) for f in fns)
    ):
        return "'functions' must be a list of strings"
    if msg.get("params") is not None and not isinstance(msg["params"], dict):
        return "'params' must be an object"
    if msg.get("contracts") is not None and not isinstance(msg["contracts"], dict):
        return "'contracts' must be an object"
    # ``bool`` is an ``int`` subclass, and ``json.loads`` parses
    # ``NaN``/``Infinity``: a NaN deadline would never fire and escape
    # the daemon's own deadline, so each is refused here.
    deadline = msg.get("deadline")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            return "'deadline' must be a number of seconds"
        try:
            positive_seconds(deadline)
        except ValueError as e:
            return f"'deadline': {e}"
    jobs = msg.get("jobs")
    if jobs is not None and (
        isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1
    ):
        return "'jobs' must be a positive integer"
    return None


def read_lines(sock):
    """Yield complete lines from a stream socket, enforcing
    :data:`MAX_LINE`; raises :class:`ProtocolError` on an oversized
    line (the connection is unusable past it), returns on EOF."""
    buf = b""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line
        if len(buf) > MAX_LINE:
            raise ProtocolError("line exceeds MAX_LINE")
        chunk = sock.recv(65536)
        if not chunk:
            return
        buf += chunk

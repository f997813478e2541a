"""Structured tracing: spans, Chrome trace-event export, profiling
aggregates.

Two granularities, chosen for a strict overhead budget (tracing
disabled must cost ≤2% on the tier-1 suite):

* :func:`span` — *coarse* spans (one per pipeline phase per function:
  encode, vcgen, symex, solve, store…; the opt-in adversary layer adds
  ``adversary`` plus per-pass ``adversary.replay`` /
  ``adversary.mutate`` / ``adversary.diff``). These always aggregate into
  the in-process phase table (two clock reads and a dict update each),
  so ``HybridReport.render(verbose=True)`` can print a per-function
  phase breakdown on any run, no env vars required. When event
  tracing is enabled they additionally emit balanced ``B``/``E``
  Chrome trace events.
* :func:`detail_span` — *fine* spans (per symbolic-execution branch,
  per consume/produce). These are a no-op returning a shared null
  object unless event tracing is on; they emit events but do not
  aggregate (their time is already inside a coarse parent).

Span nesting is tracked with a :mod:`contextvars` var; a span without
an explicit ``function=…`` attribute inherits the enclosing span's, so
a solver query deep inside symbolic execution is attributed to the
function being verified. Self-time (total minus aggregating children)
is what the phase table stores alongside totals — self-times sum to
wall-clock without double counting.

Event tracing is enabled by ``REPRO_TRACE=out.json`` (export happens
at process exit and at the end of every ``HybridVerifier.run``) or
programmatically via :func:`enable`. The export is Chrome trace-event
JSON — loadable in Perfetto / ``chrome://tracing``. Forked pool
workers inherit the enabled state.

An observation :class:`window` answers "what happened since point X"
for a run, a daemon request and a pool item alike. A pool worker runs
each item inside one and ships the delta back with the result; the
parent folds it in with :func:`merge`, so a ``jobs=N`` trace shows
every worker's timeline under its own ``pid``.

``REPRO_OBS=0`` turns the whole subsystem off (even the coarse
aggregation); it exists so the overhead gate in CI can measure the
instrumented build against a true no-op baseline.
"""

from __future__ import annotations

import contextvars
import json
import os
import re
import threading
from typing import Any, Callable, Optional

from repro.obs import clock
from repro.obs.metrics import metrics

#: Global kill switch (``REPRO_OBS=0``): every obs entry point becomes
#: a no-op. Module attribute so the fast path is one global load.
OFF = False

#: How many slowest solver queries to retain.
TOP_K_QUERIES = 16

#: Attribution label for work done outside any function-scoped span
#: (e.g. solver queries issued by spec construction or tests). Never
#: the empty string — ``''`` rows in a phase table are unactionable.
TOPLEVEL = "<toplevel>"


class _TraceState:
    __slots__ = ("enabled", "path", "epoch", "owner_pid", "events")

    def __init__(self) -> None:
        self.enabled = False
        self.path: Optional[str] = None
        self.epoch = 0.0
        self.owner_pid = 0
        self.events: list[dict] = []


_TRACE = _TraceState()

#: The innermost open window's tables (the process's own outside any
#: window; see :class:`window`), rebound by every window open and close.
#: (function, span-name) -> [calls, total_seconds, self_seconds]
_PHASES: dict[tuple[str, str], list] = {}

#: Top-K slowest solver queries, keyed by *shape* — the description
#: with SSA counters scrubbed — so K near-identical instances of one
#: hot query occupy one slot, not all of them.  Values are
#: (dur, function, description); only the slowest instance of each
#: shape is retained.
_QUERIES: dict[str, tuple] = {}
#: Cached minimum duration in a full table (the lazy-describe guard).
_QUERIES_MIN = 0.0

#: SSA / fresh-variable counters in query descriptions (``#1234``).
_SHAPE_COUNTERS = re.compile(r"#\d+")


def query_shape(description: str) -> str:
    """The dedup key of a query description: counters scrubbed, so two
    instances of one query differing only in SSA numbering collide."""
    return _SHAPE_COUNTERS.sub("#", description)

_CURRENT: contextvars.ContextVar[Optional["_Span"]] = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def _clear_aggregates() -> None:
    global _QUERIES_MIN
    _PHASES.clear()
    _QUERIES.clear()
    _QUERIES_MIN = 0.0


metrics.on_reset(_clear_aggregates)


# ---------------------------------------------------------------------------
# Event emission
# ---------------------------------------------------------------------------


def _emit(ph: str, name: str, args: Optional[dict]) -> None:
    ev = {
        "name": name,
        "cat": "repro",
        "ph": ph,
        "ts": (clock.now() - _TRACE.epoch) * 1e6,
        "pid": os.getpid(),
        "tid": threading.get_ident(),
    }
    if args:
        ev["args"] = args
    _TRACE.events.append(ev)


def instant_event(name: str, **args: Any) -> None:
    """An ``I`` (instant) event — carries per-function counter payloads
    (e.g. tactic counts) into the trace for ``trace_report.py``."""
    if _TRACE.enabled and not OFF:
        _emit("I", name, args)


def emit(ph: str, name: str, args: Optional[dict] = None) -> None:
    """Raw event emission for call sites that manage their own timing
    (the solver's per-query ``B``/``E`` pair). Callers must guard with
    :func:`enabled` and guarantee balance themselves (try/finally)."""
    if _TRACE.enabled and not OFF:
        _emit(ph, name, args)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class _NullSpan:
    """Shared do-nothing span: the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullSpan()


class _Span:
    """A coarse, aggregating span (see module docstring)."""

    __slots__ = ("name", "attrs", "function", "t0", "_token", "_parent", "_child")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self._child = 0.0

    def __enter__(self) -> "_Span":
        parent = _CURRENT.get()
        fn = self.attrs.get("function")
        if fn is None and parent is not None:
            fn = parent.function
        self.function = fn
        self._parent = parent
        self._token = _CURRENT.set(self)
        if _TRACE.enabled:
            _emit("B", self.name, self.attrs)
        self.t0 = clock.now()
        return self

    def __exit__(self, *exc) -> bool:
        dur = clock.now() - self.t0
        if _TRACE.enabled:
            _emit("E", self.name, None)
        _CURRENT.reset(self._token)
        if self._parent is not None:
            self._parent._child += dur
        _phase_add(self.function, self.name, dur, dur - self._child)
        return False


class _EventSpan:
    """A fine span: events only, no aggregation, no context."""

    __slots__ = ("name", "attrs")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_EventSpan":
        _emit("B", self.name, self.attrs)
        return self

    def __exit__(self, *exc) -> bool:
        _emit("E", self.name, None)
        return False


def span(name: str, **attrs: Any):
    """A coarse pipeline-phase span (always aggregates; traces when
    enabled). Use as ``with span("encode", function=name): …``."""
    if OFF:
        return _NULL
    return _Span(name, attrs)


def detail_span(name: str, **attrs: Any):
    """A fine span (per-branch / per-query granularity): emits trace
    events when tracing is enabled, otherwise free."""
    if OFF or not _TRACE.enabled:
        return _NULL
    return _EventSpan(name, attrs)


def current_function() -> Optional[str]:
    """The ``function=…`` attribute of the innermost enclosing span."""
    s = _CURRENT.get()
    return s.function if s is not None else None


def add_child_time(dur: float) -> None:
    """Credit ``dur`` as child time of the innermost aggregating span
    (used by manually-timed sections like solver queries, so their
    parents' self-time stays honest)."""
    s = _CURRENT.get()
    if s is not None:
        s._child += dur


# ---------------------------------------------------------------------------
# Phase aggregation
# ---------------------------------------------------------------------------


def _phase_add(function: Optional[str], name: str, total: float, self_: float) -> None:
    key = (function or TOPLEVEL, name)
    rec = _PHASES.get(key)
    if rec is None:
        _PHASES[key] = [1, total, self_]
    else:
        rec[0] += 1
        rec[1] += total
        rec[2] += self_


def record_phase(function: Optional[str], name: str, dur: float) -> None:
    """Manually record a leaf phase (no children): used by the solver,
    which times its queries without span objects on the hot path."""
    if OFF:
        return
    _phase_add(function, name, dur, dur)
    add_child_time(dur)


def phase_table(phases: Optional[dict] = None) -> dict:
    """A window delta's ``phases`` (default: the innermost open
    window's table) in the report's nested shape ``{function:
    {phase: {"calls", "total", "self"}}}``."""
    out: dict[str, dict] = {}
    for (fn, name), (calls, total, self_) in (
        _PHASES if phases is None else phases
    ).items():
        out.setdefault(fn, {})[name] = {
            "calls": calls,
            "total": total,
            "self": self_,
        }
    return out


# ---------------------------------------------------------------------------
# Top-K slowest solver queries
# ---------------------------------------------------------------------------


def _insert_query(shape: str, rec: tuple) -> None:
    """Insert one (dur, fn, desc) record under ``shape``: only the
    slowest instance of a shape is kept, and the table holds at most
    :data:`TOP_K_QUERIES` distinct shapes."""
    global _QUERIES_MIN
    cur = _QUERIES.get(shape)
    if cur is not None:
        if rec[0] > cur[0]:
            _QUERIES[shape] = rec
    else:
        _QUERIES[shape] = rec
        if len(_QUERIES) > TOP_K_QUERIES:
            drop = min(_QUERIES, key=lambda k: _QUERIES[k][0])
            del _QUERIES[drop]
    if len(_QUERIES) >= TOP_K_QUERIES:
        _QUERIES_MIN = min(r[0] for r in _QUERIES.values())


def record_query(dur: float, describe: Callable[[], str]) -> None:
    """Consider one solver query for the top-K table. ``describe`` is
    only called when the query is slow enough to possibly enter the
    table, so the common (fast) query costs one comparison."""
    if OFF:
        return
    if len(_QUERIES) >= TOP_K_QUERIES and dur <= _QUERIES_MIN:
        return
    desc = describe()
    _insert_query(query_shape(desc), (dur, current_function() or TOPLEVEL, desc))


def top_queries(queries: Optional[dict] = None) -> list[dict]:
    """A window delta's ``queries`` (default: the innermost open
    window's table) as plain dicts, slowest first."""
    rows = [
        {"seconds": dur, "function": fn, "query": desc}
        for dur, fn, desc in (_QUERIES if queries is None else queries).values()
    ]
    rows.sort(key=lambda r: r["seconds"], reverse=True)
    return rows


# ---------------------------------------------------------------------------
# Observation windows
# ---------------------------------------------------------------------------


def _fold(phases: dict, queries: dict) -> None:
    """Add a window's phase and query tables to the current ones."""
    for key, (calls, total, self_) in phases.items():
        rec = _PHASES.get(key)
        if rec is None:
            _PHASES[key] = [calls, total, self_]
        else:
            rec[0] += calls
            rec[1] += total
            rec[2] += self_
    for shape, rec in queries.items():
        _insert_query(shape, rec)


class window:
    """What this process observed inside ``with window() as w:``.

    On close, ``w.delta`` is plain, picklable data: the ``counters``
    and legacy ``groups`` that moved (diffed against a
    :meth:`~repro.obs.metrics.Metrics.snapshot`), the ``phases`` and
    ``queries`` recorded, and the trace ``events`` emitted. Phases and
    queries are not diffed: opening a window swaps in empty tables,
    and closing it restores the enclosing window's tables and folds
    this one's into them, so windows nest and each top-K is the
    window's own. With ``REPRO_OBS=0`` the delta still carries
    counters and groups; phases, queries and events stay empty.

    One thread observes at a time (the daemon has one dispatcher)."""

    __slots__ = ("delta", "_base", "_events", "_outer")

    def __enter__(self) -> "window":
        global _PHASES, _QUERIES, _QUERIES_MIN
        self._base = metrics.snapshot()
        self._events = len(_TRACE.events)
        self._outer = (_PHASES, _QUERIES, _QUERIES_MIN)
        _PHASES, _QUERIES, _QUERIES_MIN = {}, {}, 0.0
        return self

    def __exit__(self, *exc) -> bool:
        global _PHASES, _QUERIES, _QUERIES_MIN
        phases, queries = _PHASES, _QUERIES
        _PHASES, _QUERIES, _QUERIES_MIN = self._outer
        _fold(phases, queries)
        self.delta = {
            **metrics.delta_since(self._base),
            "phases": phases,
            "queries": queries,
            "events": _TRACE.events[self._events:] if enabled() else [],
        }
        return False


def merge(delta: dict) -> None:
    """Fold a window's delta from another process (a pool worker's)
    into this one, as if its work had run here."""
    metrics.merge_delta(delta)
    if _TRACE.enabled:
        _TRACE.events.extend(delta["events"])
    _fold(delta["phases"], delta["queries"])


# ---------------------------------------------------------------------------
# Enable / export
# ---------------------------------------------------------------------------


def enabled() -> bool:
    return _TRACE.enabled and not OFF


def enable(path: Optional[str] = None) -> None:
    """Turn on event collection (``path``: where :func:`flush` and the
    atexit hook write the Chrome trace JSON)."""
    _TRACE.enabled = True
    _TRACE.path = path
    _TRACE.epoch = clock.now()
    _TRACE.owner_pid = os.getpid()
    _TRACE.events.clear()


def disable() -> None:
    _TRACE.enabled = False
    _TRACE.events.clear()


def export() -> dict:
    """The trace document (Chrome trace-event JSON object form)."""
    pids = sorted({ev["pid"] for ev in _TRACE.events})
    meta = [
        {
            "name": "process_name",
            "cat": "__metadata",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "args": {
                "name": "repro"
                if pid == _TRACE.owner_pid
                else f"repro-worker-{pid}"
            },
        }
        for pid in pids
    ]
    return {"traceEvents": meta + list(_TRACE.events), "displayTimeUnit": "ms"}


def flush(path: Optional[str] = None) -> Optional[str]:
    """Write the trace JSON to ``path`` (default: the :func:`enable`
    path). Only the process that enabled tracing writes — forked
    workers inherit the enabled flag but must not clobber the file."""
    if not _TRACE.enabled:
        return None
    target = path or _TRACE.path
    if not target or os.getpid() != _TRACE.owner_pid:
        return None
    with open(target, "w") as fh:
        json.dump(export(), fh)
        fh.write("\n")
    return target


# ---------------------------------------------------------------------------
# Schema validation (used by tests, trace_report.py and CI)
# ---------------------------------------------------------------------------

_PHASES_REQUIRED = ("encode", "symex", "solve")
_VALID_PH = {"B", "E", "I", "C", "M"}


def validate_trace(doc: Any) -> list[str]:
    """Validate a Chrome trace-event document; returns a list of
    problems (empty = schema-valid). Checks the envelope, per-event
    required fields, and that ``B``/``E`` events are balanced and
    properly nested per ``(pid, tid)`` lane."""
    errors: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document is not an object with a traceEvents list"]
    stacks: dict[tuple, list[str]] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"event #{i}"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        name, ph = ev.get("name"), ev.get("ph")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing name")
        if ph not in _VALID_PH:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        if not isinstance(ev.get("pid"), int) or not isinstance(
            ev.get("tid"), int
        ):
            errors.append(f"{where}: pid/tid must be integers")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        lane = (ev["pid"], ev["tid"])
        if ph == "B":
            stacks.setdefault(lane, []).append(name)
        elif ph == "E":
            stack = stacks.get(lane)
            if not stack:
                errors.append(f"{where}: E {name!r} with no open B in {lane}")
            elif stack[-1] != name:
                errors.append(
                    f"{where}: E {name!r} closes B {stack[-1]!r} in {lane}"
                )
                stack.pop()
            else:
                stack.pop()
    for lane, stack in stacks.items():
        if stack:
            errors.append(f"lane {lane}: unclosed spans {stack}")
    return errors

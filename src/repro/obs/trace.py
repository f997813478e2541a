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
workers inherit the enabled state; their events and aggregates travel
back to the parent through the future results (see
:mod:`repro.parallel`) with their own ``pid``, so a ``jobs=N`` trace
shows every worker's timeline.

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

#: (function, span-name) -> [calls, total_seconds, self_seconds]
_PHASES: dict[tuple[str, str], list] = {}

#: Top-K slowest solver queries, keyed by *shape* — the description
#: with SSA counters scrubbed — so K near-identical instances of one
#: hot query occupy one slot, not all of them.  Values are
#: (dur, (pid, seq), function, description); only the slowest instance
#: of each shape is retained.
_QUERIES: dict[str, tuple] = {}
_QUERY_SEQ = 0
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
    global _QUERY_SEQ, _QUERIES_MIN
    _PHASES.clear()
    _QUERIES.clear()
    _QUERY_SEQ = 0
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


def phases_snapshot() -> dict:
    """A baseline for :func:`phases_since` (plain, picklable)."""
    return {k: tuple(v) for k, v in _PHASES.items()}


def phases_since(baseline: dict) -> dict:
    """Per-function nested phase stats accumulated since ``baseline``:
    ``{function: {phase: {"calls", "total", "self"}}}``."""
    out: dict[str, dict] = {}
    for (fn, name), (calls, total, self_) in _PHASES.items():
        b = baseline.get((fn, name), (0, 0.0, 0.0))
        dc, dt, ds = calls - b[0], total - b[1], self_ - b[2]
        if dc == 0 and dt == 0.0:
            continue
        out.setdefault(fn, {})[name] = {
            "calls": dc,
            "total": dt,
            "self": ds,
        }
    return out


def merge_phases(delta: dict) -> None:
    """Fold a worker's phase delta (``{(fn, name): (c, t, s)}`` — the
    tuple-keyed *internal* shape) into this process's table."""
    for key, (calls, total, self_) in delta.items():
        rec = _PHASES.get(key)
        if rec is None:
            _PHASES[key] = [calls, total, self_]
        else:
            rec[0] += calls
            rec[1] += total
            rec[2] += self_


def _phases_delta_raw(baseline: dict) -> dict:
    out = {}
    for key, (calls, total, self_) in _PHASES.items():
        b = baseline.get(key, (0, 0.0, 0.0))
        if calls != b[0] or total != b[1]:
            out[key] = (calls - b[0], total - b[1], self_ - b[2])
    return out


# ---------------------------------------------------------------------------
# Top-K slowest solver queries
# ---------------------------------------------------------------------------


def _insert_query(rec: tuple) -> None:
    """Insert one (dur, qid, fn, desc) record, dedup by shape: only
    the slowest instance of a shape is kept, and the table holds at
    most :data:`TOP_K_QUERIES` distinct shapes."""
    global _QUERIES_MIN
    shape = query_shape(rec[3])
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
    global _QUERY_SEQ
    if OFF:
        return
    if len(_QUERIES) >= TOP_K_QUERIES and dur <= _QUERIES_MIN:
        return
    _QUERY_SEQ += 1
    _insert_query(
        (dur, (os.getpid(), _QUERY_SEQ), current_function() or TOPLEVEL,
         describe())
    )


def top_queries(exclude_ids: Optional[set] = None) -> list[dict]:
    """The slowest distinct query shapes on record, slowest first, as
    plain dicts."""
    rows = [
        {"seconds": dur, "id": qid, "function": fn, "query": desc}
        for dur, qid, fn, desc in _QUERIES.values()
        if not exclude_ids or qid not in exclude_ids
    ]
    rows.sort(key=lambda r: r["seconds"], reverse=True)
    return rows


def query_ids() -> set:
    return {rec[1] for rec in _QUERIES.values()}


def merge_queries(records: list[tuple]) -> None:
    """Fold a worker's query records into the table (dedup by id,
    then by shape like any local record)."""
    seen = query_ids()
    for rec in records:
        dur, qid = rec[0], tuple(rec[1])
        if qid in seen:
            continue
        _insert_query((dur, qid, rec[2], rec[3]))


# ---------------------------------------------------------------------------
# Fork-worker delta protocol
# ---------------------------------------------------------------------------


def worker_begin() -> dict:
    """Snapshot taken in a pool worker before it runs one item."""
    return {
        "events_idx": len(_TRACE.events),
        "metrics": metrics.delta_snapshot(),
        "phases": phases_snapshot(),
        "queries": query_ids(),
    }


def worker_delta(mark: dict) -> Optional[dict]:
    """Everything this worker observed since ``mark`` — plain data,
    shipped back through the pool future."""
    if OFF:
        return None
    return {
        "events": _TRACE.events[mark["events_idx"]:] if _TRACE.enabled else [],
        "metrics": metrics.delta_since(mark["metrics"]),
        "phases": _phases_delta_raw(mark["phases"]),
        "queries": [q for q in _QUERIES.values() if q[1] not in mark["queries"]],
    }


def merge_worker_delta(delta: Optional[dict]) -> None:
    """Parent side: fold one worker item's delta into this process."""
    if not delta or OFF:
        return
    if _TRACE.enabled and delta.get("events"):
        _TRACE.events.extend(delta["events"])
    metrics.merge_delta(delta.get("metrics", {}))
    merge_phases(delta.get("phases", {}))
    merge_queries(delta.get("queries", []))


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

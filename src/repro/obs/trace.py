"""Spans, the per-function phase table, top-K solver queries and
observation windows.

:func:`span` marks one pipeline phase of one function (encode, vcgen,
symex, pre, post, store…; the opt-in adversary layer adds
``adversary`` plus per-pass ``adversary.replay`` / ``adversary.mutate``
/ ``adversary.diff``). Each span costs two clock reads and a dict
update, and aggregates into the in-process phase table, so
``HybridReport.render(verbose=True)`` can print a per-function phase
breakdown on any run, no env vars required.

Span nesting is tracked with a :mod:`contextvars` var; a span without
an explicit ``function=…`` inherits the enclosing span's, so a solver
query deep inside symbolic execution is attributed to the function
being verified. Self-time (total minus aggregating children) is what
the phase table stores alongside totals — self-times sum to
wall-clock without double counting.

An observation :class:`window` answers "what happened since point X"
for a run, a daemon request and a pool item alike. A pool worker runs
each item inside one and ships the delta back with the result; the
parent folds it in with :func:`merge`, so a ``jobs=N`` report is as
complete as a serial one.

This module keeps aggregates only. A per-call timeline (Chrome trace
JSON, forked workers included) comes from the benchmark's traced pass,
``perfbench/run.py --trace 1``, which wraps the same layer boundaries
from outside the program.

``REPRO_OBS=0`` turns the aggregation off; it exists so the overhead
gate in CI can measure the instrumented build against a true no-op
baseline.
"""

from __future__ import annotations

import contextvars
import re
from typing import Callable, Optional

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
    """An aggregating span (see module docstring)."""

    __slots__ = ("name", "function", "t0", "_token", "_parent", "_child")

    def __init__(self, name: str, function: Optional[str]) -> None:
        self.name = name
        self.function = function
        self._child = 0.0

    def __enter__(self) -> "_Span":
        parent = _CURRENT.get()
        if self.function is None and parent is not None:
            self.function = parent.function
        self._parent = parent
        self._token = _CURRENT.set(self)
        self.t0 = clock.now()
        return self

    def __exit__(self, *exc) -> bool:
        dur = clock.now() - self.t0
        _CURRENT.reset(self._token)
        if self._parent is not None:
            self._parent._child += dur
        _phase_add(self.function, self.name, dur, dur - self._child)
        return False


def span(name: str, function: Optional[str] = None):
    """A pipeline-phase span; ``function`` defaults to the enclosing
    span's. Use as ``with span("encode", function=name): …``."""
    if OFF:
        return _NULL
    return _Span(name, function)


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
    :meth:`~repro.obs.metrics.Metrics.snapshot`), and the ``phases``
    and ``queries`` recorded. Phases and queries are not diffed:
    opening a window swaps in empty tables, and closing it restores
    the enclosing window's tables and folds this one's into them, so
    windows nest and each top-K is the window's own. With
    ``REPRO_OBS=0`` the delta still carries counters and groups;
    phases and queries stay empty.

    One thread observes at a time (the daemon has one dispatcher)."""

    __slots__ = ("delta", "_base", "_outer")

    def __enter__(self) -> "window":
        global _PHASES, _QUERIES, _QUERIES_MIN
        self._base = metrics.snapshot()
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
        }
        return False


def merge(delta: dict) -> None:
    """Fold a window's delta from another process (a pool worker's)
    into this one, as if its work had run here."""
    metrics.merge_delta(delta)
    _fold(delta["phases"], delta["queries"])

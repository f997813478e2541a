"""``repro.obs`` — unified tracing, metrics, and profiling.

Zero-dependency observability for the hybrid pipeline, in three parts
(one module each):

* :mod:`repro.obs.clock` — the single timing authority (duration /
  deadline / calendar clocks);
* :mod:`repro.obs.metrics` — the process-wide metrics registry that
  absorbs the legacy ``Solver.stats`` / ``PARALLEL_STATS`` /
  ``STORE_STATS`` dicts and owns the one reset path;
* :mod:`repro.obs.trace` — contextvar spans, the per-function phase
  table, top-K solver queries, observation windows, and Chrome
  trace-event JSON export.

Environment knobs (read once at import):

* ``REPRO_OBS=0`` — kill switch: every span helper becomes a no-op
  and phase/query aggregation stops (the baseline for the CI overhead
  gate). Plain counters still tick, a handful of dict adds, and
  still reach the report at any ``jobs``;
* ``REPRO_TRACE=out.json`` — record trace events and write the Chrome
  trace (Perfetto-loadable) to ``out.json`` at process exit and after
  every ``HybridVerifier.run``.

One mechanism answers "what happened since point X": an observation
:class:`~repro.obs.trace.window`. ``HybridVerifier.run`` reads every
per-run report field from one window, a daemon request lists its
phases from one, and each pool item runs inside one in its worker,
whose delta the parent folds in with :func:`~repro.obs.trace.merge`.
Workers never touch the proof store, so its counters tick in the
parent alone.
"""

from __future__ import annotations

import atexit
import os

from repro.obs import clock  # noqa: F401  (re-export)
from repro.obs.metrics import metrics
from repro.obs import trace
from repro.obs.trace import (  # noqa: F401  (re-exports)
    add_child_time,
    current_function,
    detail_span,
    enabled,
    instant_event,
    merge,
    phase_table,
    record_phase,
    record_query,
    span,
    top_queries,
    validate_trace,
    window,
)

__all__ = [
    "clock",
    "metrics",
    "trace",
    "span",
    "detail_span",
    "instant_event",
    "record_phase",
    "record_query",
    "current_function",
    "add_child_time",
    "enabled",
    "phase_table",
    "top_queries",
    "window",
    "merge",
    "validate_trace",
]


def configure_from_env(environ=os.environ) -> None:
    """Apply the ``REPRO_OBS`` / ``REPRO_TRACE`` knobs. Called once at
    import; callable again in tests."""
    if environ.get("REPRO_OBS", "").strip() == "0":
        trace.OFF = True
        return
    trace.OFF = False
    trace_path = environ.get("REPRO_TRACE", "").strip()
    if trace_path:
        trace.enable(trace_path)


configure_from_env()
atexit.register(trace.flush)

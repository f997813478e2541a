"""``repro.obs`` — spans, metrics, and profiling aggregates.

Zero-dependency observability for the hybrid pipeline, in three parts
(one module each):

* :mod:`repro.obs.clock` — the single timing authority (duration /
  deadline / calendar clocks);
* :mod:`repro.obs.metrics` — the process-wide metrics registry that
  absorbs the legacy ``Solver.stats`` / ``PARALLEL_STATS`` /
  ``STORE_STATS`` dicts and owns the one reset path;
* :mod:`repro.obs.trace` — contextvar spans, the per-function phase
  table, top-K solver queries and observation windows.

One environment knob, read once at import: ``REPRO_OBS=0`` is the
kill switch. Every span helper becomes a no-op and phase/query
aggregation stops (the baseline for the CI overhead gate). Plain
counters still tick, a handful of dict adds, and still reach the
report at any ``jobs``.

One mechanism answers "what happened since point X": an observation
:class:`~repro.obs.trace.window`. ``HybridVerifier.run`` reads every
per-run report field from one window, a daemon request lists its
phases from one, and each pool item runs inside one in its worker,
whose delta the parent folds in with :func:`~repro.obs.trace.merge`.
Workers never touch the proof store, so its counters tick in the
parent alone.

A per-call timeline is not kept here: the benchmark's traced pass
(``perfbench/run.py --trace 1``) writes one, forked workers included.
"""

from __future__ import annotations

import os

from repro.obs import clock  # noqa: F401  (re-export)
from repro.obs.metrics import metrics
from repro.obs import trace
from repro.obs.trace import (  # noqa: F401  (re-exports)
    add_child_time,
    current_function,
    merge,
    phase_table,
    record_phase,
    record_query,
    span,
    top_queries,
    window,
)

__all__ = [
    "clock",
    "metrics",
    "trace",
    "span",
    "record_phase",
    "record_query",
    "current_function",
    "add_child_time",
    "phase_table",
    "top_queries",
    "window",
    "merge",
]


trace.OFF = os.environ.get("REPRO_OBS", "").strip() == "0"

"""Shared fixtures for the experiment benchmarks (see DESIGN.md §4).

Besides the fixtures, this conftest records the session: at the end
of a benchmark session it writes ``benchmarks/out/bench-record.json``
(not committed; the committed ``BENCH_PR*.json`` files are older
records of the same shape) with per-test wall-clock, the aggregate
solver counters (:data:`repro.solver.core.GLOBAL_STATS` — checks, LRU cache
hits/misses/evictions, branches, plus the robustness counters:
branch-cap unknowns and cooperative-budget stops), the pool's
fault/retry counters (:data:`repro.parallel.PARALLEL_STATS` — broken
pools, worker failures, serial retries/fallbacks), the proof-store
counters (:data:`repro.store.STORE_STATS` — hits, misses, quarantines,
heals; all zero unless a bench opts into ``REPRO_CACHE``) and the
term-interner hit rate, so a silently degraded benchmark run is
visible in the record. Timings compared across changes come from
``perfbench/`` (fresh processes, repeated runs), not from this record.

Each test's row carries its own per-function phase timings
(encode / vcgen / symex / solve / store: the
:func:`repro.obs.trace.phases_since` delta over that one bench), so
rows from different records compare bench by bench; the record also
keeps the session-wide accumulation of the same timings, the slowest
solver queries, and the ``tactic.*`` / ``gillian.*`` counters — so a
perf regression in the record can be localised to a phase without
re-running anything.

The E11 ``jobs`` curve and the warm-store memory-tier split land as
``bench.e11.*`` gauges.

The pool and store counters are process-global, so an autouse fixture
zeroes them before every benchmark (one bench's retries must not bleed
into the next one's record) and accumulates the per-test deltas into
the session totals that land in the JSON.
"""

import json
import platform
from pathlib import Path

import pytest

from repro.obs import top_queries
from repro.obs.metrics import metrics
from repro.obs.report import metrics_summary
from repro.obs.trace import phases_snapshot, phases_since
from repro.parallel import PARALLEL_STATS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs
from repro.store import STORE_STATS

_BENCH_JSON = Path(__file__).resolve().parent / "out" / "bench-record.json"

_rows = []
_parallel_totals: dict = {}
_store_totals: dict = {}
#: test nodeid -> that bench's own phase timings.
_bench_phases: dict = {}


def _rounded_phases(phases: dict) -> dict:
    return {
        fn: {
            phase: {
                "calls": rec["calls"],
                "total": round(rec["total"], 4),
                "self": round(rec["self"], 4),
            }
            for phase, rec in per_fn.items()
        }
        for fn, per_fn in phases.items()
    }


@pytest.fixture(autouse=True)
def isolated_global_counters(request):
    """Zero the pool/store counters per benchmark, accumulate the
    deltas into the session totals for the JSON record, and keep the
    bench's own phase timings for its row."""
    metrics.reset("parallel")
    metrics.reset("store")
    phases_before = phases_snapshot()
    yield
    _bench_phases[request.node.nodeid] = _rounded_phases(
        phases_since(phases_before)
    )
    for k, v in PARALLEL_STATS.items():
        _parallel_totals[k] = _parallel_totals.get(k, 0) + v
    for k, v in STORE_STATS.items():
        _store_totals[k] = _store_totals.get(k, 0) + v
    metrics.reset("parallel")
    metrics.reset("store")


@pytest.fixture(scope="session")
def program_env():
    """One program instance shared across benches (predicates and
    specs are immutable once built)."""
    program, ownables = build_program()
    install_callee_specs(program, ownables)
    return program, ownables


def run_once(benchmark, fn):
    """Time a heavyweight verification once per round (full
    verification runs take ~1s; statistical rounds are pointless)."""
    return benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=0)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        _rows.append(
            {
                "test": item.nodeid,
                "seconds": round(rep.duration, 4),
                "outcome": rep.outcome,
            }
        )


def pytest_sessionfinish(session, exitstatus):
    if not _rows:
        return
    try:
        from repro.solver.core import GLOBAL_STATS
        from repro.solver.terms import interner_stats
    except ImportError:  # running outside the src tree
        return
    stats = dict(GLOBAL_STATS)
    lookups = stats["cache_hits"] + stats["cache_misses"]
    interner = interner_stats()
    intern_lookups = interner["hits"] + interner["misses"]
    for row in _rows:
        row["phase_stats"] = _bench_phases.get(row["test"], {})
    snapshot = metrics.snapshot()
    tactic_counts = {
        k: v
        for k, v in sorted(snapshot["counters"].items())
        if k.startswith("tactic.") or k.startswith("gillian.")
    }
    payload = {
        "python": platform.python_version(),
        "bench_total_seconds": round(sum(r["seconds"] for r in _rows), 3),
        "tests": _rows,
        "solver_stats": stats,
        "solver_cache_hit_rate": (
            round(stats["cache_hits"] / lookups, 4) if lookups else None
        ),
        # Degradation record: solver queries that hit the branch cap
        # (UNKNOWN answers), cooperative-budget stops (timeouts), the
        # pool's crash/retry counters and the proof-store's hit/miss/
        # quarantine counters. All zero on a clean, cache-less run.
        "robustness": {
            "solver_unknowns": stats.get("unknowns", 0),
            "solver_budget_stops": stats.get("budget_stops", 0),
            "parallel": dict(_parallel_totals) or dict(PARALLEL_STATS),
            "store": dict(_store_totals) or dict(STORE_STATS),
        },
        "interner": interner,
        "interner_hit_rate": (
            round(interner["hits"] / intern_lookups, 4) if intern_lookups else None
        ),
        # Observability aggregates (PR 4): where the bench time went,
        # per verified function and phase, accumulated over the whole
        # session (each row above has its own bench's share); the
        # slowest solver queries;
        # the tactic workload; and the full metrics snapshot.
        "phase_stats": _rounded_phases(phases_since({})),
        "top_queries": [
            {**q, "seconds": round(q["seconds"], 4)} for q in top_queries()
        ],
        "tactic_counts": tactic_counts,
        "metrics": metrics_summary(snapshot),
    }
    _BENCH_JSON.parent.mkdir(exist_ok=True)
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

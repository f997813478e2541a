"""E10 — the solver strategy portfolio on the two hottest functions.

Runs ``LinkedList::push_front_node`` / ``pop_front_node`` (the top two
rows of every phase table since PR 4) once under each registered
search strategy, then measures warmed ``auto`` selection against the
``baseline`` strategy with alternating repetitions. Asserts the
portfolio invariant (identical verdicts everywhere) and that warmed
auto is no slower than baseline; the exact per-strategy breakdown —
query counts, latencies, selector hit rates, and the measured
improvement — lands in the bench record
(``benchmarks/out/bench-record.json``) via the session conftest
(gauges ``bench.e10.*`` plus the ``strategies`` section).
"""

import statistics

from conftest import run_once

from repro.hybrid.pipeline import HybridVerifier
from repro.obs.metrics import metrics
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.solver import Solver
from repro.solver.portfolio import GLOBAL_SELECTOR
from repro.solver.strategies import STRATEGIES

HOT = ["LinkedList::push_front_node", "LinkedList::pop_front_node"]

#: Auto-mode warm-up runs before the measured comparison: the selector
#: needs enough decisions for warmup/exploration to settle into
#: exploitation (the same role selector.json persistence plays for
#: real warm runs).
SEED_RUNS = 3

#: Alternating measurement pairs (median taken per function).
REPS = 3


def _verify(program, ownables, strategy):
    solver = Solver(strategy=strategy)  # auto shares GLOBAL_SELECTOR
    hv = HybridVerifier(
        program,
        ownables,
        LINKED_LIST_CONTRACTS,
        manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
        solver=solver,
    )
    report = hv.run(HOT)
    fingerprint = tuple((e.function, e.half, e.ok) for e in report.entries)
    solve_self = {
        fn.split("::")[-1]: ph.get("solve", {}).get("self", 0.0)
        for fn, ph in report.phase_stats.items()
    }
    return fingerprint, solve_self


def test_e10_strategy_portfolio(benchmark, program_env):
    program, ownables = program_env

    # Every registered strategy once: populates the per-strategy
    # solver.strategy.* counters/histograms for the bench JSON and
    # checks the verdict invariant end to end.
    fingerprints = {}
    for name in STRATEGIES:
        fingerprints[name], _ = _verify(program, ownables, name)
    assert len(set(fingerprints.values())) == 1, fingerprints

    # Warm the selector, then measure baseline vs auto alternating.
    for _ in range(SEED_RUNS):
        fp, _ = _verify(program, ownables, "auto")
        assert fp == fingerprints["baseline"]
    base_runs, auto_runs = [], []
    for _ in range(REPS):
        fp_b, solve_b = _verify(program, ownables, "baseline")
        fp_a, solve_a = _verify(program, ownables, "auto")
        assert fp_b == fp_a == fingerprints["baseline"]
        base_runs.append(solve_b)
        auto_runs.append(solve_a)

    combined = {"baseline": 0.0, "auto": 0.0}
    for fn in (f.split("::")[-1] for f in HOT):
        base = statistics.median(r[fn] for r in base_runs)
        auto = statistics.median(r[fn] for r in auto_runs)
        combined["baseline"] += base
        combined["auto"] += auto
        metrics.gauge(f"bench.e10.solve_self.baseline.{fn}", round(base, 4))
        metrics.gauge(f"bench.e10.solve_self.auto.{fn}", round(auto, 4))
        metrics.gauge(
            f"bench.e10.improvement.{fn}", round((base - auto) / base, 4)
        )
    improvement = (combined["baseline"] - combined["auto"]) / combined["baseline"]
    metrics.gauge("bench.e10.improvement.combined", round(improvement, 4))
    # The acceptance number (≥ 20% on the reference machine) is
    # recorded in the JSON; the in-suite gate is directional so a
    # loaded CI box doesn't flake the build.
    assert combined["auto"] < combined["baseline"], (
        f"warmed auto ({combined['auto']:.3f}s) slower than "
        f"baseline ({combined['baseline']:.3f}s)"
    )

    run_once(benchmark, lambda: _verify(program, ownables, "auto"))

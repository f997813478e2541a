"""E11 — the work-stealing scheduler and the tiered proof store.

Runs the hybrid linked-list corpus (the E7 client plus the three §6
functions) at ``jobs=1/2/4/8`` under the stealing scheduler and once
more at ``jobs=4`` with the static partitioner, pinning the scheduler's
acceptance invariant: **every configuration produces bit-identical
verdicts**. The elapsed wall-clock per level (the scaling curve), the
steal counts and the total queue wait land as ``bench.e11.*`` gauges in
the bench record (``benchmarks/out/bench-record.json``) via the
session conftest. A final warm-store pass
runs the corpus twice against one tiered ProofStore and gates on the
memtier invariant: the second pass reads **zero** bytes off disk.

CI boxes (and this container) may have a single CPU, so the in-suite
gates are verdict equivalence and counter identities, never wall-clock
ratios — the curve is recorded for the reference machine's record, not
asserted.
"""

import time

from bench_e7_hybrid import _client
from conftest import run_once

from repro.hybrid.pipeline import HybridVerifier
from repro.obs.metrics import metrics
from repro.parallel import PARALLEL_STATS, fork_available
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.solver import Solver
from repro.store import ProofStore

FNS = [
    "client::bench",
    "LinkedList::new",
    "LinkedList::push_front_node",
    "LinkedList::pop_front_node",
]

#: The scaling curve's x-axis. The pool caps workers at the task
#: count, so jobs=8 over four functions measures the oversubscribed
#: end of the curve (idle workers steal immediately or drain).
JOBS_LEVELS = [1, 2, 4, 8]


def _verify(program, ownables, jobs, store=None):
    hv = HybridVerifier(
        program,
        ownables,
        LINKED_LIST_CONTRACTS,
        solver=Solver(),
        manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
        store=store,
    )
    started = time.perf_counter()
    report = hv.run(FNS, jobs=jobs)
    elapsed = time.perf_counter() - started
    assert report.ok, report.render()
    fingerprint = tuple(
        (e.function, e.half, e.ok, e.status) for e in report.entries
    )
    return fingerprint, elapsed, report


def test_e11_scheduler_scaling(benchmark, program_env, monkeypatch):
    program, ownables = program_env
    _client(program)

    levels = JOBS_LEVELS if fork_available() else [1]
    fingerprints, curve = {}, {}
    for jobs in levels:
        before = dict(PARALLEL_STATS)
        fingerprints[jobs], curve[jobs], _ = _verify(program, ownables, jobs)
        steals = PARALLEL_STATS["steals"] - before["steals"]
        waited = PARALLEL_STATS["queue_wait_s"] - before["queue_wait_s"]
        metrics.gauge(f"bench.e11.seconds.jobs{jobs}", round(curve[jobs], 4))
        metrics.gauge(f"bench.e11.steals.jobs{jobs}", steals)
        metrics.gauge(
            f"bench.e11.queue_wait_s.jobs{jobs}", round(waited, 4)
        )
        if jobs > 1:
            metrics.gauge(
                f"bench.e11.speedup.jobs{jobs}",
                round(curve[1] / curve[jobs], 4) if curve[jobs] else None,
            )

    # The acceptance invariant: stealing at any width is bit-identical
    # to the serial run (scheduling trades latency, never answers).
    assert len(set(fingerprints.values())) == 1, fingerprints

    if fork_available():
        # The static partitioner is the opt-out baseline: same
        # verdicts, zero steals by construction.
        monkeypatch.setenv("REPRO_SCHED", "static")
        before = dict(PARALLEL_STATS)
        fp_static, t_static, _ = _verify(program, ownables, 4)
        monkeypatch.delenv("REPRO_SCHED")
        assert fp_static == fingerprints[1]
        assert PARALLEL_STATS["steals"] == before["steals"]
        metrics.gauge("bench.e11.static_seconds.jobs4", round(t_static, 4))

    run_once(benchmark, lambda: _verify(program, ownables, 1))


def test_e11_warm_store_memtier(benchmark, program_env, tmp_path):
    """Two runs against one tiered store: the cold pass verifies and
    publishes, the warm pass is answered entirely by the memory tier —
    the zero-disk-reads gate, measured on the real corpus."""
    program, ownables = program_env
    _client(program)
    store = ProofStore(tmp_path, mem=64, write_behind=True)

    fp_cold, _, cold = _verify(program, ownables, 1, store=store)
    assert cold.store_stats["stores"] == len(FNS)
    assert store.pending() == 0  # end_run flushed the write-behind buffer

    fp_warm, t_warm, warm = _verify(program, ownables, 1, store=store)
    assert fp_warm == fp_cold
    assert warm.store_stats["hits"] == len(FNS)
    assert warm.store_stats["mem_hits"] == len(FNS)
    assert warm.store_stats["disk_reads"] == 0

    hits = warm.store_stats["hits"]
    metrics.gauge(
        "bench.e11.warm.mem_hit_rate",
        round(warm.store_stats["mem_hits"] / hits, 4) if hits else None,
    )
    metrics.gauge("bench.e11.warm.disk_reads", warm.store_stats["disk_reads"])
    metrics.gauge("bench.e11.warm.seconds", round(t_warm, 4))

    run_once(benchmark, lambda: _verify(program, ownables, 1, store=store))

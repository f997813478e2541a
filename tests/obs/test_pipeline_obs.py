"""End-to-end observability through ``HybridVerifier.run``: the
report's phase table on a real pipeline run, ``jobs=2`` worker-delta
merging, and the verbose profiling report."""

import pytest

from repro.hybrid.pipeline import HybridVerifier
from repro.obs import trace
from repro.obs.metrics import metrics
from repro.parallel import fork_available
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs
from repro.store import ProofStore

from tests.robustness.conftest import FAST_FNS, fingerprint, small_env  # noqa: F401

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs fork start method"
)

#: Counters that must be identical between jobs=1 and jobs=N: tactic
#: applications and top-level consume/produce calls are functions of
#: the program alone. (Solver cache counters are NOT in this list:
#: serial runs share one LRU across functions while each forked worker
#: has a private copy, so hit/miss splits legitimately differ.)
DETERMINISTIC_COUNTERS = (
    "tactic.unfolds",
    "tactic.folds",
    "tactic.gunfolds",
    "tactic.gfolds",
    "tactic.repairs",
    "tactic.auto_updates",
    "gillian.consumes",
    "gillian.produces",
)


@pytest.fixture(autouse=True)
def clean_obs_state():
    metrics.reset()
    yield
    metrics.reset()


def make_verifier(small_env, **kw):
    program, ownables = small_env
    return HybridVerifier(program, ownables, {}, **kw)


def deterministic_counters():
    return {k: metrics.counter(k) for k in DETERMINISTIC_COUNTERS}


class TestTraceExport:
    def test_phase_stats_cover_every_function(self, small_env):
        report = make_verifier(small_env).run(FAST_FNS, jobs=1)
        for fn in FAST_FNS:
            assert "verify" in report.phase_stats[fn]
            assert "symex" in report.phase_stats[fn]
        assert report.top_queries, "solver queries should be on record"
        # Self-times per function sum to ≈ that function's verify total.
        for fn in FAST_FNS:
            phases = report.phase_stats[fn]
            total = phases["verify"]["total"]
            self_sum = sum(p["self"] for p in phases.values())
            assert self_sum == pytest.approx(total, rel=0.05, abs=0.005)

    def test_solver_stats_use_global_delta(self, small_env):
        report = make_verifier(small_env).run(FAST_FNS, jobs=1)
        assert report.solver_stats["checks"] > 0

    def test_off_switch_disables_aggregation(self, small_env, monkeypatch):
        # Obs off drops phases and queries, never counters: a jobs=2
        # run reports the workers' counts like a jobs=1 run.
        monkeypatch.setattr(trace, "OFF", True)
        reports = {
            jobs: make_verifier(small_env).run(FAST_FNS, jobs=jobs)
            for jobs in ((1, 2) if fork_available() else (1,))
        }
        for report in reports.values():
            assert report.ok
            assert report.phase_stats == {}
            assert report.top_queries == []
        serial = reports[1]
        assert serial.solver_stats["checks"] > 0
        assert serial.tactic_stats["gillian.consumes"] > 0
        if 2 in reports:
            assert reports[2].solver_stats == serial.solver_stats
            assert reports[2].tactic_stats == serial.tactic_stats


@needs_fork
class TestParallelMerging:
    def test_jobs2_merges_phase_keys_and_counters(self, small_env, tmp_path):
        serial = make_verifier(
            small_env, store=ProofStore(tmp_path / "cache-serial")
        ).run(FAST_FNS, jobs=1)
        serial_counters = deterministic_counters()

        metrics.reset()
        parallel = make_verifier(
            small_env, store=ProofStore(tmp_path / "cache-par")
        ).run(FAST_FNS, jobs=2)

        assert fingerprint(parallel) == fingerprint(serial)
        # Merged counters equal the serial run's (for counters that are
        # deterministic across scheduling — see DETERMINISTIC_COUNTERS).
        assert deterministic_counters() == serial_counters
        # The workers' phases reach the parent's report: the same
        # (function, phase) keys as a serial run, store phases included,
        # and the same number of verify, symex and solve calls.
        def keys(report):
            return {
                (fn, phase)
                for fn, phases in report.phase_stats.items()
                for phase in phases
            }

        assert keys(parallel) == keys(serial)
        for fn in FAST_FNS:
            for phase in ("verify", "symex", "solve"):
                assert (
                    parallel.phase_stats[fn][phase]["calls"]
                    == serial.phase_stats[fn][phase]["calls"]
                )


class TestVerboseReport:
    def test_render_verbose_appends_profiling_sections(self, small_env):
        report = make_verifier(small_env).run(FAST_FNS, jobs=1)
        plain = report.render()
        verbose = report.render(verbose=True)
        assert plain in verbose
        assert "per-function phase times" in verbose
        assert "slowest solver queries" in verbose
        assert "tactic counts" in verbose
        assert FAST_FNS[0] in verbose.split("phase times")[1]

    def test_tactic_counts_and_queries_are_per_run(self, monkeypatch):
        # Three fresh verifiers in one process: each report counts its
        # own run, not the process's running total. The query table has
        # room for every shape, so which shapes make the cut does not
        # hang on timing noise.
        monkeypatch.setattr(trace, "TOP_K_QUERIES", 64)
        program, ownables = build_program()
        install_callee_specs(program, ownables)

        def run():
            return HybridVerifier(
                program, ownables, LINKED_LIST_CONTRACTS,
                manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
            ).run(["LinkedList::push_front_node"])

        reports = [run(), run(), run()]
        first = reports[0]
        assert first.tactic_stats["tactic.unfolds"] > 0

        def tactics(report):
            return report.render(verbose=True).split("tactic counts")[1]

        assert "tactic.unfolds" in tactics(first)

        def shapes(report):
            return sorted(trace.query_shape(q["query"]) for q in report.top_queries)

        assert first.top_queries
        for later in reports[1:]:
            assert later.tactic_stats == first.tactic_stats
            assert tactics(later) == tactics(first)
            assert len(later.top_queries) == len(first.top_queries)
            assert shapes(later) == shapes(first)

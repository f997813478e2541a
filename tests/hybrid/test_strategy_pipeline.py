"""End-to-end strategy equivalence through the hybrid pipeline.

The differential suite (tests/solver/test_strategies.py) checks the
invariant per query; this file checks it per *pipeline run*: every
strategy, plus the learned ``auto`` mode, must produce the same
``HybridReport`` verdicts — serial and under ``jobs=2`` — and the
report must carry the per-strategy breakdown and selector state.
"""

import os

import pytest

from repro.hybrid.pipeline import HybridVerifier
from repro.parallel import fork_available
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs
from repro.solver import Solver
from repro.solver.core import DEFAULT_STRATEGY
from repro.solver.portfolio import StrategySelector, selector_path
from repro.solver.strategies import STRATEGIES
from repro.store import ProofStore

from tests.hybrid.test_pipeline import client_body

FUNCTIONS = [
    "client::push_pop",
    "LinkedList::new",
    "LinkedList::push_front_node",
]


@pytest.fixture(scope="module")
def env():
    program, ownables = build_program()
    install_callee_specs(program, ownables)
    program.add_body(client_body())
    return program, ownables


def _run(env, jobs=1, **hv_kwargs):
    program, ownables = env
    hv = HybridVerifier(
        program, ownables, LINKED_LIST_CONTRACTS,
        manual_pure_pre=MANUAL_PURE_PRECONDITIONS, **hv_kwargs,
    )
    return hv, hv.run(FUNCTIONS, jobs=jobs)


def _fingerprint(report):
    return [(e.function, e.half, e.ok) for e in report.entries]


class TestVerdictEquivalence:
    @pytest.fixture(scope="class")
    def baseline_fp(self, env):
        _, report = _run(env, strategy="baseline")
        assert report.status == "verified"
        return _fingerprint(report)

    @pytest.mark.parametrize("name", list(STRATEGIES))
    def test_each_strategy_matches_baseline(self, env, baseline_fp, name):
        _, report = _run(env, strategy=name)
        assert _fingerprint(report) == baseline_fp

    def test_auto_matches_baseline(self, env, baseline_fp):
        solver = Solver(strategy="auto", selector=StrategySelector())
        _, report = _run(env, solver=solver)
        assert _fingerprint(report) == baseline_fp

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_default_matches_baseline_jobs2(self, env, baseline_fp, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_STRATEGY", raising=False)
        hv, report = _run(env, jobs=2)
        assert hv.solver.strategy == DEFAULT_STRATEGY
        assert _fingerprint(report) == baseline_fp

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_auto_matches_baseline_jobs2(self, env, baseline_fp):
        solver = Solver(strategy="auto", selector=StrategySelector())
        _, report = _run(env, jobs=2, solver=solver)
        assert _fingerprint(report) == baseline_fp


class TestReportPlumbing:
    def test_strategy_stats_in_report(self, env):
        _, report = _run(env, strategy="inverted")
        assert report.strategy_stats.get("inverted", {}).get("queries", 0) > 0
        assert "== solver strategies ==" in report.render(verbose=True)

    def test_prefix_counters_in_report(self, env, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_STRATEGY", raising=False)
        _, report = _run(env)
        ss = report.solver_stats
        assert ss["prefix_hits"] > 0
        assert 0 < ss["prefix_extends"] <= ss["prefix_misses"]
        assert ss["prefix_hits"] + ss["prefix_misses"] <= ss["checks"]
        assert (
            f"path-condition prefix {ss['prefix_hits']} hits / "
            f"{ss['prefix_extends']} extended / {ss['prefix_misses']} misses"
            in report.render(verbose=True)
        )

    def test_auto_report_carries_selector(self, env):
        solver = Solver(strategy="auto", selector=StrategySelector())
        _, report = _run(env, solver=solver)
        sel = report.strategy_stats.get("selector")
        assert sel and sel["decisions"] > 0 and sel["buckets"] > 0

    def test_env_knob_reaches_solver(self, env, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_STRATEGY", "lazy")
        program, ownables = env
        hv = HybridVerifier(
            program, ownables, LINKED_LIST_CONTRACTS,
            manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
        )
        assert hv.solver.strategy == "lazy"

    def test_strategy_argument_validated(self, env):
        program, ownables = env
        with pytest.raises(KeyError):
            HybridVerifier(
                program, ownables, LINKED_LIST_CONTRACTS,
                manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
                strategy="no_such",
            )


class TestSelectorPersistence:
    def test_selector_state_persists_with_store(self, env, tmp_path):
        selector = StrategySelector()
        solver = Solver(strategy="auto", selector=selector)
        _, report = _run(
            env, solver=solver, store=ProofStore(tmp_path / "store")
        )
        assert report.status == "verified"
        path = selector_path(tmp_path / "store")
        fresh = StrategySelector()
        assert fresh.load(path)
        assert fresh._buckets  # learned state reached the disk

    def test_fixed_strategy_run_writes_no_selector_state(self, env, tmp_path):
        # A fixed strategy learns nothing, so the run saves nothing.
        _, report = _run(env, store=ProofStore(tmp_path / "store"))
        assert report.status == "verified"
        assert not os.path.exists(selector_path(tmp_path / "store"))

    def test_warm_run_loads_selector_once(self, env, tmp_path):
        store_root = tmp_path / "store"
        selector = StrategySelector()
        solver = Solver(strategy="auto", selector=selector)
        _run(env, solver=solver, store=ProofStore(store_root))
        before = {
            k: {s: tuple(r) for s, r in b.items()}
            for k, b in selector._buckets.items()
        }
        # Second run over a warm store: every proof is a store hit, no
        # queries run, and the once-guard must not double the counts.
        _run(env, solver=solver, store=ProofStore(store_root))
        after = {
            k: {s: tuple(r) for s, r in b.items()}
            for k, b in selector._buckets.items()
        }
        assert after == before

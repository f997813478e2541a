"""The store wired through HybridVerifier.run: cold → warm behaviour,
env activation, parallel lookup, and the cacheability boundary."""

import dataclasses
import os

import pytest

from repro.budget import BudgetSpec
from repro.hybrid.pipeline import HybridVerifier
from repro.parallel import fork_available
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs
from repro.store import ProofStore

from tests.robustness.conftest import DIVERGING, FAST_FNS, fingerprint


def make_verifier(env, tmp_path=None, **kw):
    program, ownables = env
    store = ProofStore(tmp_path) if tmp_path is not None else None
    return HybridVerifier(program, ownables, {}, store=store, **kw)


class TestColdWarm:
    def test_warm_run_is_all_hits_and_identical(self, env, tmp_path):
        cold = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        assert cold.store_stats["misses"] == len(FAST_FNS)
        assert cold.store_stats["stores"] == len(FAST_FNS)
        warm = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        assert warm.store_stats["hits"] == len(FAST_FNS)
        assert warm.store_stats["misses"] == 0
        assert fingerprint(warm) == fingerprint(cold)

    def test_warm_run_survives_rebuilt_program(self, env, tmp_path):
        """A fresh process rebuilds Program objects from scratch; only
        content may key the cache, never object identity."""
        from tests.robustness.conftest import _diverging_body, _fast_body
        from repro.gilsonite.ownable import OwnableRegistry
        from repro.lang.mir import Program

        cold = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        rebuilt = Program()
        for n in FAST_FNS:
            rebuilt.add_body(_fast_body(n))
        rebuilt.add_body(_diverging_body())
        warm = HybridVerifier(
            rebuilt, OwnableRegistry(rebuilt), {},
            store=ProofStore(tmp_path),
        ).run(FAST_FNS, jobs=1)
        assert warm.store_stats["hits"] == len(FAST_FNS)
        assert fingerprint(warm) == fingerprint(cold)

    def test_parallel_warm_run_hits(self, env, tmp_path):
        cold = make_verifier(env, tmp_path).run(FAST_FNS, jobs=2)
        assert cold.store_stats["stores"] == len(FAST_FNS)
        warm = make_verifier(env, tmp_path).run(FAST_FNS, jobs=2)
        assert warm.store_stats["hits"] == len(FAST_FNS)
        assert fingerprint(warm) == fingerprint(cold)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_second_run_in_one_process_reads_each_entry_once(
        self, env, tmp_path, jobs
    ):
        store = ProofStore(tmp_path)
        first = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=jobs)
        second = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=jobs)
        n = len(FAST_FNS)
        assert second.store_stats["hits"] == second.store_stats["disk_reads"] == n
        assert second.store_stats["misses"] == 0
        assert fingerprint(second) == fingerprint(first)

    def test_render_shows_store_line(self, env, tmp_path):
        make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        rendered = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1).render()
        assert f"-- store: {len(FAST_FNS)} hits, 0 misses" in rendered

    def test_no_store_no_stats_no_render_line(self, env):
        report = make_verifier(env).run(FAST_FNS, jobs=1)
        assert report.store_stats == {}
        assert "-- store:" not in report.render()


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestParentPublishes:
    def test_every_entry_is_written_by_the_caller(
        self, env, tmp_path, monkeypatch
    ):
        # Pool workers only compute; the process that called run()
        # writes every entry, so its counters see every publish.
        writers = tmp_path / "writers"
        real_write = ProofStore._write_entry

        def spy(store, path, fp, function, blob):
            with open(writers, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            real_write(store, path, fp, function, blob)

        monkeypatch.setattr(ProofStore, "_write_entry", spy)
        report = make_verifier(env, tmp_path / "cache").run(FAST_FNS, jobs=2)
        assert report.ok and report.parallel_stats["fanouts"] == 1
        assert writers.read_text().split() == [str(os.getpid())] * len(FAST_FNS)
        assert report.store_stats["stores"] == len(FAST_FNS)


class TestLogicEdits:
    def test_replaced_callee_spec_moves_the_callers_key(self, tmp_path):
        program, ownables = build_program()
        install_callee_specs(program, ownables)
        hv = HybridVerifier(
            program, ownables, LINKED_LIST_CONTRACTS,
            manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
            store=ProofStore(tmp_path),
        )
        name = "LinkedList::pop_front"
        assert hv.run([name]).outcomes == {name: "verified"}
        assert hv.run([name]).outcomes == {name: "cached"}
        callee = "LinkedList::pop_front_node"
        spec = program.specs[callee]
        program.specs[callee] = dataclasses.replace(spec, trusted=not spec.trusted)
        assert hv.run([name]).outcomes == {name: "verified"}
        program.specs[callee] = spec
        assert hv.run([name]).outcomes == {name: "cached"}


class TestCacheability:
    def test_timeouts_reverify_while_fast_fns_hit(self, env, tmp_path):
        spec = BudgetSpec(max_steps=50)
        cold = make_verifier(env, tmp_path, budget=spec).run(
            FAST_FNS + [DIVERGING], jobs=1
        )
        assert cold.store_stats["skipped"] == 1  # the timeout
        assert cold.store_stats["stores"] == len(FAST_FNS)
        warm = make_verifier(env, tmp_path, budget=spec).run(
            FAST_FNS + [DIVERGING], jobs=1
        )
        assert warm.store_stats["hits"] == len(FAST_FNS)
        assert warm.store_stats["misses"] == 1  # re-verified, not replayed
        assert fingerprint(warm) == fingerprint(cold)

    def test_budget_change_invalidates(self, env, tmp_path):
        make_verifier(env, tmp_path, budget=BudgetSpec(max_steps=500)).run(
            FAST_FNS, jobs=1
        )
        report = make_verifier(
            env, tmp_path, budget=BudgetSpec(max_steps=501)
        ).run(FAST_FNS, jobs=1)
        assert report.store_stats["hits"] == 0
        assert report.store_stats["misses"] == len(FAST_FNS)

    def test_contract_change_invalidates_only_that_function(
        self, env, tmp_path
    ):
        program, ownables = env
        HybridVerifier(program, ownables, {}, store=ProofStore(tmp_path)).run(
            FAST_FNS, jobs=1
        )
        contracts = {"fn1": {"ensures": ["result@ >= 0"]}}
        report = HybridVerifier(
            program, ownables, contracts, store=ProofStore(tmp_path)
        ).run(FAST_FNS, jobs=1)
        assert report.store_stats["hits"] == len(FAST_FNS) - 1
        assert report.store_stats["misses"] == 1


class TestEnvActivation:
    def test_repro_cache_env_enables_store(self, env, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        program, ownables = env
        cold = HybridVerifier(program, ownables, {}).run(FAST_FNS, jobs=1)
        assert cold.store_stats["stores"] == len(FAST_FNS)
        warm = HybridVerifier(program, ownables, {}).run(FAST_FNS, jobs=1)
        assert warm.store_stats["hits"] == len(FAST_FNS)
        assert len(list((tmp_path / "cache" / "entries").rglob("*.json"))) == len(
            FAST_FNS
        )

    def test_cache_off_by_default(self, env, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        program, ownables = env
        assert HybridVerifier(program, ownables, {}).store is None

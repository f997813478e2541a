"""End-to-end search equivalence through the hybrid pipeline.

The differential suite (tests/solver/test_strategies.py) checks the
invariant per query; this file checks it per *pipeline run*: the
default search and ``baseline`` must produce the same ``HybridReport``
verdicts, serial and under ``jobs=2``. A store written by an older
build that learned a strategy selector still serves its entries.
"""

import builtins
import io
import json
import os

import pytest

from repro.hybrid.pipeline import HybridVerifier
from repro.parallel import fork_available
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs
from repro.solver import Solver
from repro.solver.core import DEFAULT_STRATEGY
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


def _run(env, jobs=1, functions=FUNCTIONS, **hv_kwargs):
    program, ownables = env
    hv = HybridVerifier(
        program, ownables, LINKED_LIST_CONTRACTS,
        manual_pure_pre=MANUAL_PURE_PRECONDITIONS, **hv_kwargs,
    )
    return hv, hv.run(functions, jobs=jobs)


def _fingerprint(report):
    return [(e.function, e.half, e.ok) for e in report.entries]


class TestVerdictEquivalence:
    @pytest.fixture(scope="class")
    def baseline_fp(self, env):
        _, report = _run(env, solver=Solver(strategy="baseline"))
        assert report.status == "verified"
        return _fingerprint(report)

    @pytest.mark.parametrize("name", list(STRATEGIES))
    def test_each_strategy_matches_baseline(self, env, baseline_fp, name):
        _, report = _run(env, solver=Solver(strategy=name))
        assert _fingerprint(report) == baseline_fp

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_default_matches_baseline_jobs2(self, env, baseline_fp):
        hv, report = _run(env, jobs=2)
        assert hv.solver.strategy == DEFAULT_STRATEGY
        assert _fingerprint(report) == baseline_fp


class TestReportPlumbing:
    def test_prefix_counters_in_report(self, env):
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


class TestOlderStore:
    def test_stale_selector_file_is_ignored(self, env, tmp_path, monkeypatch):
        """Builds that learned a strategy selector saved it as
        ``selector.json`` in the store root. Runs on such a store get
        their hits and publish their new entries, and neither read nor
        rewrite the file."""
        root = tmp_path / "store"
        root.mkdir()
        selector = root / "selector.json"
        selector.write_text(json.dumps(
            {"version": 1, "buckets": {"n4|d1": {"inverted": [3, 0.012]}}}
        ))
        before = (selector.read_bytes(), selector.stat().st_mtime_ns)

        opened = []

        def recording(real):
            def wrapper(file, *args, **kwargs):
                opened.append(str(file))
                return real(file, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(io, "open", recording(io.open))
        monkeypatch.setattr(builtins, "open", recording(builtins.open))
        monkeypatch.setattr(os, "open", recording(os.open))
        _, cold = _run(env, functions=FUNCTIONS[:2], store=ProofStore(root))
        _, warm = _run(env, store=ProofStore(root))
        monkeypatch.undo()

        assert cold.status == warm.status == "verified"
        assert warm.outcomes == {
            FUNCTIONS[0]: "cached",
            FUNCTIONS[1]: "cached",
            FUNCTIONS[2]: "verified",
        }
        assert warm.store_stats["hits"] == 2
        assert warm.store_stats["stores"] == 1
        assert opened, "the recording wrappers saw no file access"
        assert not [f for f in opened if f.endswith("selector.json")]
        assert (selector.read_bytes(), selector.stat().st_mtime_ns) == before

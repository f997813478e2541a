"""Verdicts and solver counters must not depend on memory addresses.

Terms hash by identity, so the iteration order of a set of terms
follows object addresses, which differ between a forked worker and the
parent and between two processes. The solver only tests such sets for
membership; nothing it derives depends on their order. This pins that
end to end on two corpora: the per-function verdicts and the run's
``solver_stats`` are identical at ``jobs=1`` and ``jobs=2``, and in two
fresh processes with different ``PYTHONHASHSEED`` values and different
allocation histories.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hybrid.pipeline import HybridVerifier
from repro.parallel import fork_available
from repro.rustlib import raw_stack as rs
from repro.service.corpus import DEMO_FNS, load_corpus
from repro.solver import Solver
from repro.solver.sorts import INT
from repro.solver.terms import Var, add, intlit

ROOT = Path(__file__).resolve().parents[2]
RAW_STACK_FNS = ["RawStack::new", "RawStack::push", "RawStack::pop"]


def observe(jobs: int, pad: int) -> dict:
    """Verify RawStack and the demo corpus after allocating ``pad``
    throw-away terms (which shifts every later address)."""
    ballast = [add(Var(f"pad{i}", INT), intlit(i)) for i in range(pad)]
    program, ownables = rs.build_program()
    hv = HybridVerifier(
        program, ownables, rs.RAW_STACK_CONTRACTS, solver=Solver(),
        manual_pure_pre={"RawStack::push": ["self@.len() < usize::MAX"]},
    )
    out = {"RawStack": _summary(hv.run(RAW_STACK_FNS, jobs=jobs))}
    demo = load_corpus("demo")
    hv = HybridVerifier(demo.program, demo.ownables, demo.contracts, solver=Solver())
    out["demo"] = _summary(hv.run(list(DEMO_FNS), jobs=jobs))
    del ballast
    return out


def _summary(report) -> dict:
    return {
        "verdicts": [[e.function, e.half, e.status] for e in report.entries],
        "solver_stats": report.solver_stats,
    }


def _observe_in_subprocess(hashseed: str, jobs: int, pad: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    script = (
        "import json, sys\n"
        "from tests.hybrid.test_determinism import observe\n"
        f"json.dump(observe({jobs}, {pad}), sys.stdout)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def serial():
    return observe(1, 0)


def test_corpora_verify(serial):
    for corpus, summary in serial.items():
        assert summary["verdicts"], corpus
        assert all(v[2] == "verified" for v in summary["verdicts"]), corpus
        assert summary["solver_stats"]["checks"] > 0, corpus


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_jobs2_matches_jobs1(serial):
    assert observe(2, 0) == serial


def test_hash_seed_and_addresses_do_not_matter():
    first = _observe_in_subprocess("0", 1, 0)
    second = _observe_in_subprocess("4242", 1, 3001)
    assert first == second

"""Acceptance: a per-function deadline of T seconds terminates a
deliberately diverging symbolic execution within 2·T and reports
``timeout`` — serial and parallel alike."""

import time

import pytest

from repro.budget import BudgetSpec
from repro.hybrid.pipeline import HybridVerifier
from repro.obs import clock
from repro.parallel import fork_available

from tests.robustness.conftest import DIVERGING, FAST_FNS

T = 0.6


def run_with_deadline(small_env, functions, jobs):
    program, ownables = small_env
    hv = HybridVerifier(program, ownables, {}, budget=BudgetSpec(deadline=T))
    started = time.perf_counter()
    report = hv.run(functions, jobs=jobs)
    return report, time.perf_counter() - started


class TestDeadline:
    def test_serial_terminates_within_2t(self, small_env):
        report, elapsed = run_with_deadline(small_env, [DIVERGING], jobs=1)
        assert elapsed < 2 * T, f"took {elapsed:.2f}s against a {T}s deadline"
        [entry] = report.entries
        assert entry.status == "timeout"
        assert not report.ok

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_parallel_terminates_within_2t(self, small_env):
        # Two items so the pool actually engages; the deadline is
        # per-function, so the fast sibling is untouched.
        report, elapsed = run_with_deadline(
            small_env, [DIVERGING, FAST_FNS[0]], jobs=2
        )
        assert elapsed < 2 * T, f"took {elapsed:.2f}s against a {T}s deadline"
        by_fn = {e.function: e for e in report.entries}
        assert by_fn[DIVERGING].status == "timeout"
        assert by_fn[FAST_FNS[0]].status == "verified"

    def test_deadline_applies_per_function_not_per_run(self, small_env):
        # Several fast functions plus a diverger: only the diverger
        # burns its own deadline; the run's total stays near T, not N·T.
        report, elapsed = run_with_deadline(
            small_env, FAST_FNS + [DIVERGING], jobs=1
        )
        statuses = {e.function: e.status for e in report.entries}
        assert statuses[DIVERGING] == "timeout"
        assert all(statuses[f] == "verified" for f in FAST_FNS)
        assert elapsed < 2 * T

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_deadline_caps_each_function(self, small_env, jobs):
        # A run's absolute deadline, well inside the base budget, stops
        # a function it already handed out; a forked worker reads the
        # same system-wide clock.
        if jobs > 1 and not fork_available():
            pytest.skip("needs fork start method")
        program, ownables = small_env
        hv = HybridVerifier(
            program, ownables, {}, budget=BudgetSpec(deadline=20 * T)
        )
        started = time.perf_counter()
        report = hv.run(
            [DIVERGING, FAST_FNS[0]], jobs=jobs,
            deadline=clock.monotonic() + T,
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 4 * T, f"took {elapsed:.2f}s against a {T}s deadline"
        statuses = {e.function: e.status for e in report.entries}
        assert statuses[DIVERGING] == "timeout"
        assert report.outcomes[DIVERGING] == "verified"

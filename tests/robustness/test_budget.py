"""The cooperative Budget: limits, deadlines, stickiness, env parsing."""

import pytest

from repro.budget import Budget, BudgetSpec, positive_seconds
from repro.errors import BudgetExhausted


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestLimits:
    def test_solver_query_budget(self):
        b = Budget(max_solver_queries=3)
        for _ in range(3):
            b.tick_solver()
        with pytest.raises(BudgetExhausted) as ei:
            b.tick_solver("q4")
        assert ei.value.resource == "solver-query"
        assert ei.value.limit == 3

    def test_step_budget(self):
        b = Budget(max_steps=2)
        b.tick_step()
        b.tick_step()
        with pytest.raises(BudgetExhausted) as ei:
            b.tick_step("bb3")
        assert ei.value.resource == "step"
        assert ei.value.site == "bb3"

    def test_branch_budget(self):
        b = Budget(max_branches=10)
        for _ in range(10):
            b.tick_branch()
        with pytest.raises(BudgetExhausted):
            b.tick_branch()

    def test_no_limits_never_raises(self):
        b = Budget()
        for _ in range(1000):
            b.tick_solver()
            b.tick_step()
            b.tick_branch()

    def test_deadline(self):
        clock = FakeClock()
        b = Budget(deadline=5.0, clock=clock)
        b.tick_step()
        clock.t = 4.9
        b.tick_step()
        clock.t = 5.1
        with pytest.raises(BudgetExhausted) as ei:
            b.tick_step()
        assert ei.value.resource == "deadline"
        assert ei.value.limit == 5.0

    def test_deadline_checked_on_solver_tick(self):
        clock = FakeClock()
        b = Budget(deadline=1.0, clock=clock)
        clock.t = 2.0
        with pytest.raises(BudgetExhausted):
            b.tick_solver()

    def test_branch_tick_checks_deadline_periodically(self):
        clock = FakeClock()
        b = Budget(deadline=1.0, clock=clock)
        clock.t = 2.0
        # Branch ticks amortise the clock read; within 64 ticks the
        # deadline must have been noticed.
        with pytest.raises(BudgetExhausted):
            for _ in range(64):
                b.tick_branch()


class TestStickiness:
    def test_exhaustion_is_sticky(self):
        b = Budget(max_steps=1)
        b.tick_step()
        with pytest.raises(BudgetExhausted) as first:
            b.tick_step()
        # Every subsequent tick of ANY kind re-raises the same typed
        # exception immediately, so nested frames unwind fast.
        with pytest.raises(BudgetExhausted) as again:
            b.tick_solver()
        assert again.value is first.value
        with pytest.raises(BudgetExhausted):
            b.tick_branch()
        with pytest.raises(BudgetExhausted):
            b.check_deadline()


class TestSpec:
    def test_empty_spec_is_falsy_and_starts_none(self):
        spec = BudgetSpec()
        assert not spec
        assert spec.start() is None

    def test_nonempty_spec_starts_fresh_budgets(self):
        spec = BudgetSpec(max_steps=5)
        b1, b2 = spec.start(), spec.start()
        assert b1 is not b2
        for _ in range(5):
            b1.tick_step()
        with pytest.raises(BudgetExhausted):
            b1.tick_step()
        b2.tick_step()  # b2 unaffected: budgets are per-function

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        # The other three axes have no knob: these are ignored.
        monkeypatch.setenv("REPRO_MAX_QUERIES", "100")
        monkeypatch.setenv("REPRO_MAX_STEPS", "200")
        monkeypatch.setenv("REPRO_MAX_BRANCHES", "300")
        assert BudgetSpec.from_env() == BudgetSpec(deadline=2.5)

    def test_from_env_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        assert not BudgetSpec.from_env()
        assert not BudgetSpec.from_env({"REPRO_DEADLINE": ""})

    def test_from_env_garbage_warns_and_ignores(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "soon")
        with pytest.warns(RuntimeWarning, match="REPRO_DEADLINE"):
            spec = BudgetSpec.from_env()
        assert spec.deadline is None

    @pytest.mark.parametrize(
        "raw", ["nan", "NaN", "inf", "-inf", "0", "0.0", "-1", "-0.5"]
    )
    def test_from_env_non_positive_or_non_finite_warns_and_ignores(self, raw):
        with pytest.warns(RuntimeWarning, match="REPRO_DEADLINE"):
            spec = BudgetSpec.from_env({"REPRO_DEADLINE": raw})
        assert spec.deadline is None
        assert not spec


class TestPositiveSeconds:
    @pytest.mark.parametrize("raw", ["2.5", 2.5, 3, "1e-3"])
    def test_accepts_finite_positive(self, raw):
        assert positive_seconds(raw) == float(raw)

    @pytest.mark.parametrize(
        "raw", ["nan", float("nan"), "inf", float("inf"), "0", 0, -1, "-2", "soon", ""]
    )
    def test_rejects_the_rest(self, raw):
        with pytest.raises(ValueError):
            positive_seconds(raw)

"""Randomized cross-strategy differential suite.

The portfolio's hard invariant: search strategies trade *cost*, never
*answers*. Every registered strategy — and the ``auto`` and ``race``
modes built on top of them — must return the same verdict for the
same query. The suite drives all of them over seeded random formula
sets (mixing arithmetic, equalities, boolean structure, ite and
disjunction, so every ordering / closure-timing code path fires) and
asserts verdict equality; the env-knob and cache-knob behaviour rides
along.
"""

import random

import pytest

from repro.budget import Budget
from repro.errors import BudgetExhausted
from repro.solver import Solver, Status
from repro.solver.core import DEFAULT_CACHE_CAPACITY, DEFAULT_STRATEGY
from repro.solver.portfolio import StrategySelector
from repro.solver.sorts import BOOL, INT
from repro.solver.strategies import (
    MODES,
    STRATEGIES,
    SearchStrategy,
    StrategyDivergence,
    get_strategy,
)
from repro.solver.terms import (
    Var,
    add,
    and_,
    eq,
    intlit,
    ite,
    le,
    lt,
    not_,
    or_,
    sub,
)

IVARS = [Var(f"x{i}", INT) for i in range(4)]
BVARS = [Var(f"b{i}", BOOL) for i in range(2)]


def _int_term(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.6:
            return rng.choice(IVARS)
        return intlit(rng.randint(-8, 8))
    a = _int_term(rng, depth - 1)
    b = _int_term(rng, depth - 1)
    return add(a, b) if rng.random() < 0.5 else sub(a, b)


def _atom(rng):
    kind = rng.choice(["le", "lt", "eq", "bool"])
    if kind == "bool":
        v = rng.choice(BVARS)
        return not_(v) if rng.random() < 0.3 else v
    a = _int_term(rng, 2)
    b = _int_term(rng, 2)
    return {"le": le, "lt": lt, "eq": eq}[kind](a, b)


def _formula(rng, depth):
    if depth == 0:
        return _atom(rng)
    kind = rng.choice(["atom", "and", "or", "not", "ite"])
    if kind == "atom":
        return _atom(rng)
    if kind == "not":
        return not_(_formula(rng, depth - 1))
    a = _formula(rng, depth - 1)
    b = _formula(rng, depth - 1)
    if kind == "and":
        return and_(a, b)
    if kind == "or":
        return or_(a, b)
    return ite(rng.choice(BVARS), a, b)


def _query(seed):
    rng = random.Random(seed)
    return [_formula(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]


class TestDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_all_strategies_agree(self, seed):
        fs = _query(seed)
        verdicts = {
            name: Solver(strategy=name).check_sat(fs) for name in STRATEGIES
        }
        assert len(set(verdicts.values())) == 1, verdicts

    @pytest.mark.parametrize("seed", range(0, 40, 5))
    def test_race_agrees_with_baseline(self, seed):
        fs = _query(seed)
        reference = Solver(strategy="baseline").check_sat(fs)
        assert Solver(strategy="race").check_sat(fs) == reference

    def test_auto_agrees_with_baseline(self):
        # A tiny window + warmup forces the selector through every
        # strategy across the seeds, not just the early winner.
        sel = StrategySelector(warmup=1, explore_every=2, window=1)
        for seed in range(30):
            fs = _query(seed)
            auto = Solver(strategy="auto", selector=sel).check_sat(fs)
            assert auto == Solver(strategy="baseline").check_sat(fs), seed

    def test_registry_has_the_paper_strategies(self):
        for name in (
            "baseline",
            "inverted",
            "eager",
            "lazy",
            "conflict_first",
            "prefix_reuse",
        ):
            assert name in STRATEGIES
            assert get_strategy(name).name == name
        assert MODES == ("auto", "race")


class TestPrefixReuseStream:
    """The default search keeps closed path-condition prefixes on the
    solver across queries. One long-lived default solver must answer a
    stream of entailment queries exactly as a fresh baseline solver
    answers each query on its own, including after a query that the
    budget interrupted and one that hit the branch cap."""

    CAP = 64

    def _baseline(self, fs, budget=None):
        ref = Solver(strategy="baseline", branch_budget=self.CAP)
        ref.budget = budget
        return ref.check_sat(fs)

    @pytest.mark.parametrize("seed", range(3))
    def test_stream_matches_fresh_baseline(self, seed, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_STRATEGY", raising=False)
        rng = random.Random(seed)
        x0, x1, x2 = IVARS[:3]
        bounded = [le(intlit(0), x1), le(x1, intlit(5))]
        conflicting = [le(x0, intlit(0)), lt(intlit(0), x0)]
        pcs = [bounded, conflicting]
        for _ in range(4):
            pc = [_atom(rng) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                pc.append(_formula(rng, 1))  # a case-splitting conjunct
            pcs.append(pc)
        stream = [
            rng.choice(pcs) + [not_(_formula(rng, rng.randint(0, 2)))]
            for _ in range(60)
        ]
        # Both interrupted queries assert ``x2 >= 3`` on top of their
        # prefix before the first case split; a probe on the same
        # prefix afterwards must not see it.
        x2_low = not_(or_(lt(x2, intlit(3)), lt(x2, intlit(2))))
        # Interrupted after one branch: the first split stops it.
        interrupted = bounded + [
            or_(eq(IVARS[3], intlit(0)), eq(IVARS[3], intlit(1))),
            x2_low,
            not_(and_(le(x1, x2), le(x2, x1))),
        ]
        # 2^6 case splits, each leaf refuted only once all are decided:
        # more branches than CAP under either search.
        ys = [Var(f"y{i}", INT) for i in range(6)]
        at_least_7 = le(intlit(7), add(*ys))
        capped = [or_(eq(y, intlit(0)), eq(y, intlit(1))) for y in ys]
        capped += [at_least_7, x2_low, not_(lt(ys[0], intlit(0)))]
        probes = [bounded + [le(x2, intlit(0))], [at_least_7, le(x2, intlit(0))]]

        solver = Solver(branch_budget=self.CAP)
        assert solver.strategy == DEFAULT_STRATEGY
        for fs in stream[:20]:
            assert solver.check_sat(fs) == self._baseline(fs), fs
        solver.budget = Budget(max_branches=1)
        with pytest.raises(BudgetExhausted):
            solver.check_sat(interrupted)
        with pytest.raises(BudgetExhausted):
            self._baseline(interrupted, Budget(max_branches=1))
        solver.budget = None
        for fs in probes[:1] + stream[20:40]:
            assert solver.check_sat(fs) == self._baseline(fs), fs
        assert solver.check_sat(capped) == self._baseline(capped) == Status.UNKNOWN
        for fs in probes + stream[40:] + [interrupted]:
            assert solver.check_sat(fs) == self._baseline(fs), fs
        assert solver.stats["prefix_hits"] > 0
        assert solver.check_sat(conflicting + [not_(le(x1, x2))]) == Status.UNSAT


class _Lying(SearchStrategy):
    name = "_lying"

    def search(self, solver, formulas):
        return Status.UNSAT


class TestRace:
    def test_race_detects_divergence(self):
        STRATEGIES["_lying"] = _Lying()
        try:
            with pytest.raises(StrategyDivergence):
                Solver(strategy="race").check_sat([eq(intlit(0), intlit(0))])
        finally:
            del STRATEGIES["_lying"]

    def test_divergence_is_in_the_error_taxonomy(self):
        """StrategyDivergence must map to an ``error`` status (and stay
        an AssertionError for the differential suite's contract)."""
        from repro.errors import VerificationError, status_of

        e = StrategyDivergence("boom")
        assert isinstance(e, VerificationError)
        assert isinstance(e, AssertionError)
        assert status_of(e) == "error"

    def test_divergence_degrades_to_error_entry(self):
        """A race-mode divergence mid-verification must become a
        ✗ ``error`` entry, not crash the run."""
        from repro.gilsonite.ownable import OwnableRegistry
        from repro.hybrid.pipeline import HybridVerifier
        from repro.lang.builder import BodyBuilder
        from repro.lang.mir import Program
        from repro.lang.types import U64

        fn = BodyBuilder("f", params=[("x", U64)], ret=U64)
        bb = fn.block()
        bb.assign(
            fn.ret_place, fn.binop("add", fn.copy("x"), fn.const_int(1, U64))
        )
        bb.ret()
        program = Program()
        program.add_body(fn.finish())
        hv = HybridVerifier(
            program,
            OwnableRegistry(program),
            {},
            solver=Solver(strategy="race"),
        )
        hv.store = None
        STRATEGIES["_lying"] = _Lying()
        try:
            report = hv.run(["f"])
        finally:
            del STRATEGIES["_lying"]
        [entry] = report.entries
        assert entry.status == "error"
        assert not report.ok
        assert "disagree" in entry.note


class TestStrategyKnob:
    def test_unknown_name_raises_eagerly(self):
        with pytest.raises(KeyError):
            Solver(strategy="nope")
        with pytest.raises(KeyError):
            get_strategy("nope")

    def test_env_selects_strategy(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_STRATEGY", "inverted")
        assert Solver().strategy == "inverted"

    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_STRATEGY", "auto")
        assert Solver().strategy == "auto"

    def test_env_invalid_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_STRATEGY", "bogus")
        with pytest.warns(RuntimeWarning, match=DEFAULT_STRATEGY):
            assert Solver().strategy == DEFAULT_STRATEGY

    def test_default_strategy(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_STRATEGY", raising=False)
        assert Solver().strategy == DEFAULT_STRATEGY
        assert DEFAULT_STRATEGY in STRATEGIES

    def test_explicit_strategy_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_STRATEGY", "eager")
        assert Solver(strategy="lazy").strategy == "lazy"


class TestCacheKnob:
    def test_env_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_CACHE", "3")
        s = Solver()
        assert s.cache_capacity == 3
        assert s.stats["cache_capacity"] == 3

    def test_default_capacity(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_CACHE", raising=False)
        assert Solver().cache_capacity == DEFAULT_CACHE_CAPACITY

    def test_invalid_env_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_CACHE", "zero")
        with pytest.warns(RuntimeWarning):
            assert Solver().cache_capacity == DEFAULT_CACHE_CAPACITY
        monkeypatch.setenv("REPRO_SOLVER_CACHE", "-5")
        with pytest.warns(RuntimeWarning):
            assert Solver().cache_capacity == DEFAULT_CACHE_CAPACITY

    def test_lru_evicts_at_capacity(self):
        s = Solver(cache_capacity=2)
        for i in range(4):
            s.check_sat([le(intlit(i), IVARS[0])])
        assert len(s._cache) <= 2
        assert s.stats["cache_evictions"] >= 2
        # The two most recent queries are still hits.
        hits0 = s.stats["cache_hits"]
        s.check_sat([le(intlit(3), IVARS[0])])
        assert s.stats["cache_hits"] == hits0 + 1

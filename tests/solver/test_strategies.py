"""Randomized differential suite for the solver's two searches.

The invariant: the default search (``prefix_reuse``) trades *cost*,
never *answers*, against ``baseline``, the reference search. The suite
drives both over seeded random formula sets (mixing arithmetic,
equalities, boolean structure, ite and disjunction, so every closure
timing and prefix-cache code path fires) and asserts verdict equality;
the strategy-name and cache-knob behaviour rides along.
"""

import random

import pytest

from repro.budget import Budget
from repro.errors import BudgetExhausted
from repro.solver import Solver, Status
from repro.solver.core import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_STRATEGY,
    PREFIX_SLOTS,
    TheoryBranch,
)
from repro.solver.sorts import BOOL, INT
from repro.solver.strategies import STRATEGIES, get_strategy
from repro.solver.terms import (
    Var,
    add,
    and_,
    eq,
    intlit,
    ite,
    le,
    lt,
    neg,
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

    def test_registry_has_the_paper_strategies(self):
        assert sorted(STRATEGIES) == ["baseline", "prefix_reuse"]
        for name in STRATEGIES:
            assert get_strategy(name).name == name


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
    def test_stream_matches_fresh_baseline(self, seed):
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


def _pc_walk(rng, roots=6, steps=90):
    """Entailment queries in the order symbolic execution asks them.
    Each of ``roots`` states grows a path condition literal by literal
    (``pc``, ``pc+a``, ``pc+a+b``), rewinds to a parent, or forks a
    sibling state (``pc+c``); the walk hops between the states, old
    siblings included, so more of them are live than the solver has
    prefix slots."""
    chains = [[[_atom(rng) for _ in range(rng.randint(1, 3))]] for _ in range(roots)]
    i = prev = 0
    stream = []
    for _ in range(steps):
        chain = chains[i]
        move = rng.random()
        if move < 0.4 and len(chain) < 6:
            chain.append(chain[-1] + [_atom(rng)])
        elif move < 0.6 and len(chain) > 1:
            chain = chain[:-1] + [chain[-2] + [_atom(rng)]]
            chains.append(chain)
            i, prev = len(chains) - 1, i
        elif move < 0.7 and len(chain) > 1:
            chain.pop()
        else:
            # Back to the state just left, or to any other.
            i, prev = prev if move < 0.85 else rng.randrange(len(chains)), i
            chain = chains[i]
        stream.append(chain[-1] + [not_(_formula(rng, rng.randint(0, 2)))])
    return stream


class TestPrefixExtension:
    """A prefix miss that extends a cached prefix is pushed onto that
    entry's branch as a new frame. A long-lived default solver must
    still answer every query as a fresh baseline solver does, through
    rewinds, sibling branches, evictions, an extension interrupted
    part-way and goal searches stopped by the budget or the branch cap."""

    CAP = 64

    def _baseline(self, fs, budget=None):
        ref = Solver(strategy="baseline", branch_budget=self.CAP)
        ref.budget = budget
        return ref.check_sat(fs)

    def _agree(self, solver, fs, extends=None):
        before = solver.stats["prefix_extends"]
        assert solver.check_sat(fs) == self._baseline(fs), fs
        if extends is not None:
            assert solver.stats["prefix_extends"] - before == extends, fs

    @pytest.mark.parametrize("seed", range(8))
    def test_stream_matches_fresh_baseline(self, seed, monkeypatch):
        rng = random.Random(seed)
        stream = _pc_walk(rng)
        x1, x2, x3 = IVARS[1:]
        bounded = [le(intlit(0), x1), le(x1, intlit(5))]
        x2_high = le(intlit(3), x2)
        # Refuted only if ``3 <= x2`` leaked onto the ``bounded`` frame.
        probe = bounded + [le(x2, intlit(0))]
        x2_low = not_(or_(lt(x2, intlit(3)), lt(x2, intlit(2))))
        ys = [Var(f"y{i}", INT) for i in range(6)]
        splits = [or_(eq(y, intlit(0)), eq(y, intlit(1))) for y in ys]

        solver = Solver(branch_budget=self.CAP)
        seen = set()
        for fs in stream[:30]:
            self._agree(solver, fs)
            seen.update(solver.prefix_branches)
        self._agree(solver, bounded + [not_(lt(x1, intlit(9)))])

        # An extension that raises part-way leaves its first literal on
        # a frame no cache entry names.
        trip = lt(x3, intlit(4))
        assert_literal = TheoryBranch.assert_literal

        def flaky(branch, lit):
            if lit == trip:
                raise RuntimeError("injected")
            assert_literal(branch, lit)

        extends = solver.stats["prefix_extends"]
        with monkeypatch.context() as m:
            m.setattr(TheoryBranch, "assert_literal", flaky)
            with pytest.raises(RuntimeError, match="injected"):
                solver.check_sat(bounded + [x2_high, trip, not_(eq(x3, x1))])
        assert solver.stats["prefix_extends"] == extends + 1
        self._agree(solver, probe, extends=0)
        self._agree(solver, bounded + [x2_high, trip, not_(eq(x3, x1))], extends=1)

        # The budget stops a goal search on an extended branch.
        budgeted = bounded + [lt(x3, intlit(5)), splits[0], x2_low, not_(eq(x3, x1))]
        solver.budget = Budget(max_branches=1)
        with pytest.raises(BudgetExhausted):
            solver.check_sat(budgeted)
        with pytest.raises(BudgetExhausted):
            self._baseline(budgeted, Budget(max_branches=1))
        solver.budget = None
        assert solver.stats["prefix_extends"] == extends + 3
        self._agree(solver, probe, extends=0)
        self._agree(solver, budgeted)

        # So does the branch cap: 2^6 case splits, each leaf refuted
        # only once all are decided.
        capped = bounded + [le(intlit(7), add(*ys))] + splits
        capped += [x2_low, not_(lt(ys[0], intlit(0)))]
        before = solver.stats["prefix_extends"]
        assert solver.check_sat(capped) == self._baseline(capped) == Status.UNKNOWN
        assert solver.stats["prefix_extends"] == before + 1
        self._agree(solver, probe, extends=0)

        for fs in stream[30:]:
            self._agree(solver, fs)
            seen.update(solver.prefix_branches)
        assert solver.stats["prefix_hits"] > 0
        assert solver.stats["prefix_extends"] > 10
        assert solver.stats["prefix_extends"] <= solver.stats["prefix_misses"]
        # Far more prefixes passed through the cache than it holds.
        assert len(seen) > 3 * PREFIX_SLOTS

    def test_hit_rewinds_past_an_extension(self):
        """Cache ``K``, extend it to ``K + [x < 0]`` on the same branch,
        then ask on ``K`` a goal that only ``x < 0`` refutes."""
        x = IVARS[0]
        k = [le(x, intlit(5)), le(intlit(-9), x)]
        solver = Solver(strategy="prefix_reuse")
        assert solver.check_sat(k + [not_(eq(x, intlit(1)))]) == Status.SAT
        assert solver.check_sat(k + [lt(x, intlit(0)), le(intlit(0), x)]) == Status.UNSAT
        assert solver.stats["prefix_extends"] == 1
        branches = {id(b) for b, _, _ in solver.prefix_branches.values()}
        assert len(branches) == 1
        assert solver.check_sat(k + [le(intlit(0), x)]) == Status.SAT
        assert solver.stats["prefix_hits"] == 1
        # The hit popped the extension's frame: asking on ``K + [x < 0]``
        # again extends ``K`` anew.
        assert solver.check_sat(k + [lt(x, intlit(0)), le(intlit(1), x)]) == Status.UNSAT
        assert solver.stats["prefix_extends"] == 2
        # A sibling extension pushes a new frame at the same depth; the
        # ``x < 0`` entry must not take it for its own.
        assert solver.check_sat(k + [le(x, intlit(3)), le(intlit(1), x)]) == Status.SAT
        assert solver.stats["prefix_extends"] == 3
        assert solver.check_sat(k + [lt(x, intlit(0)), le(intlit(2), x)]) == Status.UNSAT
        assert solver.stats["prefix_extends"] == 4
        assert solver.stats["prefix_hits"] == 1

    def test_goal_and_extension_combine_with_a_large_prefix(self):
        """A prefix whose closure holds hundreds of constraints, with a
        goal and an extension literal that only a Fourier–Motzkin
        combination with the prefix refutes: the goal is searched on
        the cached branch, the extension pushed onto it, and both must
        answer as the baseline does."""
        x0, x1, x2, x3 = IVARS
        k = [
            le(add(x3, intlit(2)), add(x0, neg(x2), x3, x0)),
            eq(sub(sub(neg(x0), x2), intlit(2)), sub(x2, x1)),
            le(add(x2, x1, x0), intlit(1)),
            eq(add(neg(x2), intlit(4)), add(x1, neg(x1), x0, intlit(7))),
            eq(sub(neg(add(x1, x2)), intlit(4)), add(neg(x0), x3, x2, intlit(-2))),
        ]
        solver = Solver(strategy="prefix_reuse", branch_budget=self.CAP)
        assert solver.check_sat(k + [not_(BVARS[0])]) == Status.SAT
        goal = not_(or_(eq(sub(x2, intlit(12)), intlit(5)), le(sub(x2, sub(x1, x2)), x0)))
        extended = k + [le(sub(neg(x1), intlit(2)), add(x0, intlit(1))), not_(BVARS[0])]
        for fs in (k + [goal], extended):
            assert solver.check_sat(fs) == self._baseline(fs) == Status.UNSAT
        assert solver.stats["prefix_hits"] == 1
        assert solver.stats["prefix_extends"] == 1

    def test_frame_names_die_with_their_frame(self):
        branch = TheoryBranch()
        base = branch.frame()
        branch.push()
        first = branch.frame()
        branch.pop()
        branch.push()
        second = branch.frame()
        assert first[0] == second[0] == 1 and first != second
        assert branch.holds(base) and branch.holds(second)
        assert not branch.holds(first)
        with pytest.raises(ValueError):
            branch.rewind(first)
        branch.push()
        branch.rewind(base)
        assert branch.frame() == base and not branch.holds(second)


class TestStrategyKnob:
    def test_unknown_name_raises_eagerly(self):
        with pytest.raises(KeyError):
            Solver(strategy="nope")
        with pytest.raises(KeyError):
            get_strategy("nope")

    def test_default_strategy(self):
        assert Solver().strategy == DEFAULT_STRATEGY == "prefix_reuse"
        assert Solver(strategy="baseline").strategy == "baseline"


class TestCacheKnob:
    """The capacity is a constructor argument; no environment knob."""

    def test_default_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_CACHE", "3")  # ignored
        s = Solver()
        assert s.cache_capacity == DEFAULT_CACHE_CAPACITY
        assert s.stats["cache_capacity"] == DEFAULT_CACHE_CAPACITY

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

"""The solver's alpha memo: a query that renames an earlier one.

Behind the exact result cache, :meth:`Solver.check_sat` keeps a second
LRU keyed by the query's :func:`~repro.solver.terms.alpha_key`, which
two queries share only when one is the other under a bijective,
sort-preserving renaming of variables, up to the order of an
equality's sides. Both preserve satisfiability, so a renamed re-query
is answered from the memo without a search. The suite checks the key
(renamings share it, different coincidence patterns and sorts do not),
the memo's scoping, bounds and budget handling, and, differentially,
that every memo answer equals a fresh solver's answer on the renamed
query.
"""

import pytest

from repro.budget import Budget
from repro.errors import BudgetExhausted
from repro.obs import trace
from repro.solver import Solver, Status
from repro.solver.sorts import INT, LOC
from repro.solver.terms import (
    App,
    Var,
    add,
    alpha_key,
    eq,
    free_vars,
    intlit,
    le,
    lt,
    not_,
    or_,
    substitute,
)
from tests.solver.test_strategies import BVARS, IVARS, _query

x, y, z, w = IVARS


def _rename(fs, suffix="'"):
    """``fs`` with every variable ``v`` renamed to ``v + suffix``,
    rebuilt with the raw constructor so no smart constructor reorders
    or simplifies anything: the exact alpha-renaming."""

    def go(t):
        if isinstance(t, Var):
            return Var(t.name + suffix, t.sort)
        if isinstance(t, App):
            return App(t.op, tuple(go(a) for a in t.args), t.sort)
        return t

    return [go(f) for f in fs]


def _capped_query():
    """Six two-way splits whose leaves are refuted only once all are
    decided: more branches than a cap of 64."""
    ys = [Var(f"y{i}", INT) for i in range(6)]
    fs = [or_(eq(v, intlit(0)), eq(v, intlit(1))) for v in ys]
    return fs + [le(intlit(7), add(*ys))]


class TestKey:
    def test_renaming_shares_the_key(self):
        fs = [lt(x, y), le(y, add(x, intlit(3)))]
        assert alpha_key(_rename(fs)) == alpha_key(fs)
        assert _rename(fs) != fs

    def test_coincidence_patterns_do_not_collide(self):
        same = [lt(x, y), lt(y, x)]
        apart = [lt(x, y), lt(z, w)]
        assert alpha_key(same)[0] == alpha_key(apart)[0]  # same skeletons
        assert alpha_key(same) != alpha_key(apart)

    def test_sorts_do_not_collide(self):
        as_int = [not_(eq(Var("p", INT), Var("q", INT)))]
        as_loc = [not_(eq(Var("p", LOC), Var("q", LOC)))]
        assert alpha_key(as_int) != alpha_key(as_loc)

    def test_equality_sides_follow_the_numbering_not_the_names(self):
        """``eq`` orders its sides by their printed names, and ``v#45``
        prints before ``v#9`` but ``v#10`` before ``v#46``: a renaming
        that shifts every number swaps the sides."""
        a, b, c, d = (Var(f"v#{n}", INT) for n in (9, 45, 10, 46))
        fs = [le(a, intlit(0)), le(b, intlit(5)), not_(eq(a, b))]
        shifted = [le(c, intlit(0)), le(d, intlit(5)), not_(eq(c, d))]
        assert eq(a, b).args == (b, a) and eq(c, d).args == (c, d)
        assert alpha_key(shifted) == alpha_key(fs)
        # The sides are ordered, not forgotten.
        other = [le(a, intlit(0)), le(b, intlit(5)), not_(eq(a, add(b, intlit(1))))]
        assert alpha_key(other) != alpha_key(fs)

    def test_formula_order_is_part_of_the_key(self):
        fs = [lt(x, y), le(z, intlit(0))]
        assert alpha_key(fs[::-1]) != alpha_key(fs)


class TestMemo:
    @pytest.mark.parametrize(
        "fs, status",
        [
            ([lt(x, y)], Status.SAT),
            ([lt(x, y), lt(y, x)], Status.UNSAT),
            (_capped_query(), Status.UNKNOWN),
        ],
        ids=["sat", "unsat", "unknown"],
    )
    def test_renamed_query_hits(self, fs, status):
        s = Solver(branch_budget=64)
        assert s.check_sat(fs) == status
        checks, hits = s.stats["checks"], s.stats["cache_hits"]
        renamed = _rename(fs)
        assert s.check_sat(renamed) == status
        assert s.stats["alpha_hits"] == 1
        assert s.stats["checks"] == checks
        assert s.stats["cache_hits"] == hits + 1
        # The hit also filled the exact cache.
        assert s.check_sat(renamed) == status
        assert s.stats["alpha_hits"] == 1
        assert s.stats["cache_hits"] == hits + 2

    def test_a_hit_does_not_tick_the_budget(self):
        s = Solver()
        s.check_sat([lt(x, y)])
        s.budget = Budget(max_solver_queries=0)
        assert s.check_sat(_rename([lt(x, y)])) == Status.SAT
        assert s.budget.solver_queries == 0

    def test_coincidence_patterns_are_solved_apart(self):
        s = Solver()
        assert s.check_sat([lt(x, y), lt(y, x)]) == Status.UNSAT
        assert s.check_sat([lt(x, y), lt(z, w)]) == Status.SAT
        assert s.stats["alpha_hits"] == 0

    def test_sorts_are_solved_apart(self):
        s = Solver()
        s.check_sat([not_(eq(Var("p", INT), Var("q", INT)))])
        s.check_sat([not_(eq(Var("p", LOC), Var("q", LOC)))])
        assert s.stats["alpha_hits"] == 0
        assert s.stats["checks"] == 2

    def test_scopes_never_share_an_entry(self):
        fs = [lt(x, y), le(y, intlit(4))]
        s = Solver()
        s.scope = "f"
        s.check_sat(fs)
        s.scope = "g"
        s.check_sat(_rename(fs, "1"))
        assert s.stats["alpha_hits"] == 0
        s.scope = None
        s.check_sat(_rename(fs, "2"))
        assert s.stats["alpha_hits"] == 0
        s.scope = "f"
        s.check_sat(_rename(fs, "3"))
        assert s.stats["alpha_hits"] == 1

    def test_lru_respects_cache_capacity(self):
        s = Solver(cache_capacity=2)
        queries = [[le(intlit(i), x)] for i in range(4)]
        for fs in queries:
            s.check_sat(fs)
        assert len(s._memo) == 2
        s.check_sat(_rename(queries[0]))  # evicted
        assert s.stats["alpha_hits"] == 0
        s.check_sat(_rename(queries[3], "2"))
        assert s.stats["alpha_hits"] == 1
        assert len(s._memo) <= 2 and len(s._cache) <= 2

    def test_budget_exhausted_query_is_not_memoised(self):
        fs = _capped_query()
        s = Solver(branch_budget=64)
        s.budget = Budget(max_branches=1)
        with pytest.raises(BudgetExhausted):
            s.check_sat(fs)
        assert not s._memo
        s.budget = None
        assert s.check_sat(_rename(fs)) == Status.UNKNOWN
        assert s.stats["alpha_hits"] == 0

    def test_hit_emits_a_trace_event(self):
        trace.disable()
        trace.enable()
        try:
            s = Solver()
            s.check_sat([lt(x, y)])
            s.check_sat(_rename([lt(x, y)]))
            events = trace.export()["traceEvents"]
        finally:
            trace.disable()
        memo = [e for e in events if e["name"] == "solve.memo"]
        assert len(memo) == 1
        assert memo[0]["ph"] == "I"
        assert memo[0]["args"]["query"] == "<(x0', x1')"
        assert [e["ph"] for e in events if e["name"] == "solve"] == ["B", "E"]


class TestDifferential:
    """A renamed copy answered from the memo equals a fresh solver's
    answer on that copy."""

    @pytest.mark.parametrize("seed", range(60))
    def test_memo_answer_matches_fresh_solve(self, seed):
        fs = _query(seed)
        renamed = _rename(fs, f"_{seed}")
        s = Solver()
        s.check_sat(fs)
        answer = s.check_sat(renamed)
        if any(free_vars(f) for f in fs):
            assert s.stats["alpha_hits"] == 1
        assert answer == Solver().check_sat(renamed), fs

    def test_permuted_names_match_fresh_solve(self):
        """Permuting the variables through the smart constructors
        re-sorts every equality's sides by the new names; the memo
        still answers, and as a fresh solver does."""
        perm = dict(zip(IVARS + BVARS, IVARS[::-1] + BVARS[::-1]))
        hits = 0
        for seed in range(60):
            fs = _query(seed)
            permuted = [substitute(f, perm) for f in fs]
            s = Solver()
            s.check_sat(fs)
            assert s.check_sat(permuted) == Solver().check_sat(permuted), fs
            hits += s.stats["alpha_hits"]
        assert hits >= 50

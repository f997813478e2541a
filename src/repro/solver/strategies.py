"""The solver's two DNF searches.

The search is a DNF-style case split decided branch-by-branch by a
:class:`~repro.solver.core.TheoryBranch`.  The *verdict* of a query is
a function of the formula set alone — ``UNSAT`` means a sound
refutation exists on every branch, ``SAT`` means some fully-asserted
branch survives closure — but the *cost* of reaching it depends on
when the theory closure runs and on what is shared across queries.
Two searches are registered:

* ``prefix_reuse`` — the default
  (:data:`~repro.solver.core.DEFAULT_STRATEGY`): the query's literal
  prefix is closed once and kept on the solver for later queries that
  repeat or extend it (:class:`PrefixReuseStrategy`);
* ``baseline`` — the reference search without that cache: it closes
  the shared prefix before each disjunction fans out, and is what the
  differential tests and the adversary's diff pass compare against.

**Invariant — verdict equivalence.**  Both searches return the same
:class:`~repro.solver.core.Status` for the same query.  Closure timing
only moves *when* sound inferences are made, not which ones are
derivable: both finish each surviving leaf with
:meth:`TheoryBranch.close_exhaustive`, so the leaf verdict depends on
the asserted literal set only.  That holds because the closure reaches
a true fixpoint, where the round cap stopped nothing; the unrolling
axiom's depth bound (:data:`~repro.solver.core.MAX_UNROLL`) keeps every
corpus query there.  A randomized differential suite
(``tests/solver/test_strategies.py``) enforces it.  The only permitted
divergence is resource-shaped: a search that explores more branches
can hit the per-query branch cap (``UNKNOWN``) or a cooperative budget
sooner than the other.

Searches are stateless singletons; the prefix cache lives on the
solver (:attr:`~repro.solver.core.Solver.prefix_branches`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from repro.solver.sorts import BOOL
from repro.solver.terms import (
    FALSE,
    TRUE,
    App,
    Term,
    and_,
    not_,
    or_,
    substitute,
    subterms,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.solver.core import Solver, Status, TheoryBranch


@lru_cache(maxsize=16384)
def _find_bool_ite(t: Term) -> Optional[App]:
    """Find an ``ite`` application to lift, if any."""
    for s in subterms(t):
        if isinstance(s, App) and s.op == "ite":
            return s
    return None


@lru_cache(maxsize=16384)
def _split_kind(f: Term) -> int:
    """How much case splitting processing ``f`` will cause; only kind 0
    joins the cached literal prefix:

    0. plain literals (asserted directly; can refute immediately),
    1. negations that expand by De Morgan / numeric disequalities,
    2. boolean ``ite`` (a two-way split),
    3. disjunctions (an n-way split).
    """
    if isinstance(f, App):
        if f.op == "or":
            return 3
        if f.op == "ite" and f.sort == BOOL:
            return 2
        if f.op == "not":
            inner = f.args[0]
            if isinstance(inner, App) and inner.op in ("and", "or", "ite"):
                return 1
            if (
                isinstance(inner, App)
                and inner.op == "="
                and inner.args[0].sort.is_numeric()
            ):
                return 1
        if _find_bool_ite(f) is not None:
            return 2
    return 0


class SearchStrategy:
    """Base class *and* the baseline search: disjuncts in syntactic
    order, prefix closure before each fan-out, lazy literal closure —
    byte-for-byte the search the solver shipped with."""

    #: Registry key; subclasses override.
    name = "baseline"
    #: Close the shared prefix once before fanning out a disjunction.
    prefix_close = True
    #: Search on top of the query's closed literal prefix, cached on the
    #: solver across queries (see :class:`PrefixReuseStrategy`).
    reuse_prefix = False

    # -- the search ----------------------------------------------------------

    def search(self, solver: "Solver", formulas: list[Term]) -> "Status":
        from repro.solver.core import Status, TheoryBranch

        if self.reuse_prefix and len(formulas) > 1:
            return self._search_on_prefix(solver, formulas)
        budget = [solver.branch_budget]
        branch = TheoryBranch()
        # The work-list is a persistent cons-list ``(head, rest)`` —
        # branching shares the tail between disjuncts with no copying.
        # Pushing reverses: the last formula is processed first.
        pending = None
        for f in formulas:
            pending = (f, pending)
        if self._branch_sat(solver, pending, branch, budget):
            return Status.SAT
        return Status.UNSAT

    def _search_on_prefix(self, solver: "Solver", formulas: list[Term]) -> "Status":
        """Decide ``formulas`` on top of the closed branch of its literal
        prefix — every conjunct but the last (the goal) — taken from
        ``solver.prefix_branches``, or built (on a cached shorter
        prefix's branch when one fits) and cached there."""
        from repro.solver.core import PREFIX_SLOTS, Status, TheoryBranch

        lits: list[Term] = []
        residue: list[Term] = []
        for f in formulas[:-1]:
            stack = [f]
            while stack:
                g = stack.pop()
                if isinstance(g, App) and g.op == "and":
                    stack.extend(g.args)
                elif g == TRUE:
                    continue
                elif g != FALSE and _split_kind(g) == 0:
                    lits.append(g)
                else:
                    # FALSE or anything that case-splits goes through
                    # the normal search on top of the cached literals.
                    residue.append(g)
        key = tuple(lits)
        cache = solver.prefix_branches
        # An entry whose frame was popped (by a hit or an extension on a
        # shorter prefix of its branch) no longer holds its prefix.
        for k in [k for k, (b, frame, _) in cache.items() if not b.holds(frame)]:
            del cache[k]
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
            solver._tick("prefix_hits")
            branch, frame, conflict = entry
            branch.rewind(frame)
        else:
            solver._tick("prefix_misses")
            base: tuple = ()
            for k in cache:
                if len(base) < len(k) < len(key) and key[: len(k)] == k:
                    base = k
            if base:
                branch, frame, _ = cache[base]
                branch.rewind(frame)
                # Push only the new literals onto the closed state of
                # the longest cached prefix. An interrupted extension
                # leaves a frame no entry names; the next rewind drops it.
                solver._tick("prefix_extends")
                cache.move_to_end(base)
                branch.push()
                new = key[len(base):]
            else:
                branch, new = TheoryBranch(), key
            for lit in new:
                branch.assert_literal(lit)
                if branch.conflict():
                    break
            if not branch.conflict():
                branch.close_exhaustive()
            conflict = branch.conflict()
            cache[key] = (branch, branch.frame(), conflict)
            if len(cache) > PREFIX_SLOTS:
                cache.popitem(last=False)
        if conflict:
            return Status.UNSAT
        budget = [solver.branch_budget]
        pending = None
        for f in [formulas[-1]] + residue:
            pending = (f, pending)
        # The bracket returns the cached branch to its closed prefix
        # state even when the branch cap or the budget interrupts.
        branch.push()
        try:
            if self._branch_sat(solver, pending, branch, budget):
                return Status.SAT
            return Status.UNSAT
        finally:
            branch.pop()

    def _branch_sat(
        self,
        solver: "Solver",
        pending: Optional[tuple],
        branch: "TheoryBranch",
        budget: list[int],
    ) -> bool:
        """Return True if some branch of the formula set looks satisfiable.

        ``pending`` is a cons-list of formulas still to decompose;
        ``branch`` already holds the literals asserted on the path from
        the root, and is restored (via push/pop) on exit from each
        disjunct, so sibling branches share the prefix closure.
        """
        from repro.solver.core import _BranchCapReached

        budget[0] -= 1
        if budget[0] <= 0:
            raise _BranchCapReached()
        solver._tick("branches")
        if solver.budget is not None:
            solver.budget.tick_branch("search")
        while pending is not None:
            f, pending = pending
            if f == TRUE:
                continue
            if f == FALSE:
                return False
            if isinstance(f, App) and f.op == "and":
                for a in f.args:
                    pending = (a, pending)
                continue
            if isinstance(f, App) and f.op == "or":
                # Optionally close the shared prefix once, before
                # fanning out: the work is reused by every disjunct,
                # and a conflicting prefix refutes the whole
                # disjunction immediately.
                if self.prefix_close:
                    branch.close()
                if branch.conflict():
                    return False
                for d in f.args:
                    branch.push()
                    try:
                        if self._branch_sat(solver, (d, pending), branch, budget):
                            return True
                    finally:
                        branch.pop()
                return False
            if isinstance(f, App) and f.op == "not":
                inner = f.args[0]
                if isinstance(inner, App) and inner.op == "and":
                    pending = (or_(*[not_(a) for a in inner.args]), pending)
                    continue
                if isinstance(inner, App) and inner.op == "or":
                    for a in inner.args:
                        pending = (not_(a), pending)
                    continue
                if isinstance(inner, App) and inner.op == "ite" and inner.sort == BOOL:
                    c, t, e = inner.args
                    pending = (
                        or_(and_(c, not_(t)), and_(not_(c), not_(e))),
                        pending,
                    )
                    continue
            if isinstance(f, App) and f.op == "ite" and f.sort == BOOL:
                c, t, e = f.args
                pending = (or_(and_(c, t), and_(not_(c), e)), pending)
                continue
            # Literal-level ite lifting (ite embedded in an atom).
            # Numeric disequality: split into strict orderings so the
            # linear layer can participate in refutation.
            if (
                isinstance(f, App)
                and f.op == "not"
                and isinstance(f.args[0], App)
                and f.args[0].op == "="
                and f.args[0].args[0].sort.is_numeric()
            ):
                a, b = f.args[0].args
                pending = (
                    or_(App("<", (a, b), BOOL), App("<", (b, a), BOOL)),
                    pending,
                )
                continue
            ite_term = _find_bool_ite(f)
            if ite_term is not None and ite_term is not f:
                c, t, e = ite_term.args
                then_f = and_(c, substitute(f, {ite_term: t}))
                else_f = and_(not_(c), substitute(f, {ite_term: e}))
                pending = (or_(then_f, else_f), pending)
                continue
            branch.assert_literal(f)
            if branch.conflict():
                return False
        # Leaf: both searches decide the fully-asserted branch with
        # the same exhaustive closure, so the verdict depends on the
        # literal set only — not on how we got here.
        branch.close_exhaustive()
        return not branch.conflict()


class PrefixReuseStrategy(SearchStrategy):
    """Reuse the closed path-condition branch across queries — the
    solver's default search (:data:`repro.solver.core.DEFAULT_STRATEGY`).

    The pipeline's hot query pattern is entailment
    (``check_sat(pc + [¬goal])``): consecutive queries from the same
    symbolic state repeat the same path-condition literals and vary
    only the goal.  Per-branch search re-asserts and re-closes that
    prefix every time — on the LinkedList workload the leaf closure
    re-propagates hundreds of unchanged linear constraints per query.

    This strategy splits the query into its literal conjuncts (split
    kind 0, ``and``-flattened) and everything else, closes a
    :class:`~repro.solver.core.TheoryBranch` holding just the literals
    *exhaustively*, and caches it on the solver
    (:attr:`~repro.solver.core.Solver.prefix_branches`, a small LRU
    keyed by the literal tuple — hash-consed terms make the key cheap).
    The goal and any splitting residue are then decided by the normal
    search on top of a :meth:`~repro.solver.core.TheoryBranch.push` /
    ``pop`` bracket, so a cache hit skips the entire prefix closure.

    Symbolic execution grows the path condition one branch at a time,
    so most misses extend a prefix still in the cache.  Such a miss
    pushes a frame onto the branch of the longest cached proper prefix
    and asserts and closes only the new literals there; the new entry
    names that frame.  Every hit or extension first pops its branch
    back to its entry's frame, and an entry whose frame was popped is
    dropped, so a branch never holds a literal its query did not
    assert — not even after an extension or a goal search that raised.
    A fresh branch is built only when no cached prefix fits.

    Verdict equivalence: closure derives sound consequences only, so a
    reused closed prefix is observationally the asserted literal set —
    the same sharing the baseline already does between sibling
    disjuncts, extended across queries.  Leaves still finish with
    ``close_exhaustive``.  A conflicting literal prefix refutes every
    extension, so ``UNSAT`` on a cached conflict is exact.
    """

    name = "prefix_reuse"
    prefix_close = False
    reuse_prefix = True


#: Registry: name -> stateless singleton.
STRATEGIES: dict[str, SearchStrategy] = {
    s.name: s for s in (SearchStrategy(), PrefixReuseStrategy())
}


def get_strategy(name: str) -> SearchStrategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown solver strategy {name!r}; "
            f"registered: {', '.join(STRATEGIES)}"
        ) from None


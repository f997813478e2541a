"""Satisfiability and entailment checking.

The solver decides (a useful fragment of) quantifier-free first-order
logic with equality, linear machine-integer arithmetic, sequences,
options and tuples — the fragment that the Gillian-Rust pipeline emits.

Architecture: a small DNF-style search splits formulas into conjunctive
branches (disjunctions come from enum/`match` reasoning and are shallow
in practice); each branch is decided by a *theory branch* combining

* a congruence closure (:mod:`repro.solver.union_find`) for equality,
  constructor injectivity/distinctness;
* a linear store (:mod:`repro.solver.intervals`) for bounds;
* structural propagation rules connecting the two (selectors compute
  over constructors, ``len(s) = 0  ⇒  s = empty``, ...).

Soundness contract: :data:`UNSAT` is only ever reported when a branch
is *refuted* by sound inferences, so entailment answers are trustworthy.
``SAT`` means "no refutation found" and is where the (deliberate)
incompleteness lives — a verification that fails because of it is a
false alarm, never a false proof.

Performance architecture: the search is *incremental*. One
:class:`TheoryBranch` is threaded through the whole DNF search;
literals are asserted as they are discovered, and disjunctions
bracket each alternative with :meth:`TheoryBranch.push` /
:meth:`TheoryBranch.pop` (trail-based undo in the congruence closure
and the linear store). Sibling branches therefore share the
common-prefix closure — including Fourier-Motzkin combinations —
instead of recomputing it per branch, and the pending work-list is a
persistent cons-list so the disjunction fan-out never copies it.
Closure is demand-driven too: the linear store propagates from a queue
of woken constraints and exports only the bounds it tightened, and the
structural rules revisit only the terms whose arguments a merge moved
(:attr:`~repro.solver.union_find.CongruenceClosure.touched`) plus the
``seq.len`` terms whose class a merge moved away
(:attr:`~repro.solver.union_find.CongruenceClosure.woken_lens`) or
whose lower bound rose
(:attr:`~repro.solver.intervals.LinearStore.lens_woken`), in the
interning order and with the cursor of a scan over every known term,
so the derivations are the same. The
cross-query result cache is a bounded LRU (capacity
:data:`DEFAULT_CACHE_CAPACITY`) with hit/miss/eviction counters in
:attr:`Solver.stats`. Behind it an *alpha memo* of the same capacity
answers a query that renames an earlier one
(:func:`~repro.solver.terms.alpha_key`) without a search.

Across queries the search also reuses the *path condition*: the
default strategy (:data:`DEFAULT_STRATEGY`) keeps the last few closed
literal prefixes on the solver (:attr:`Solver.prefix_branches`), so an
entailment query ``pc + [¬goal]`` whose ``pc`` was closed before only
pays for the goal's cone. A ``pc`` that merely extends a cached one is
pushed onto that entry's branch as a new frame, so it pays only for
its new literals. Frames carry stamps (:meth:`TheoryBranch.holds`),
so a cache entry is used only while its frame is still on the branch.
``prefix_hits``/``prefix_misses``/``prefix_extends`` count it.

The search itself is a :class:`~repro.solver.strategies.SearchStrategy`
(:mod:`repro.solver.strategies`). Two are registered: the default
``prefix_reuse`` above, and ``baseline``, the reference search without
the prefix cache, against which the differential tests and the
adversary check the default. Both return identical verdicts by
construction.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

from repro import faultinject
from repro.errors import BudgetExhausted  # re-exported; was defined here
from repro.obs import clock
from repro.obs import trace as obs_trace
from repro.obs.metrics import metrics
from repro.solver.intervals import LinearStore
from repro.solver.strategies import get_strategy
from repro.solver.sorts import INT, OptionSort, SeqSort
from repro.solver.terms import (
    FALSE,
    TRUE,
    App,
    BoolLit,
    IntLit,
    Term,
    Var,
    add,
    alpha_key,
    fresh_var,
    intlit,
    is_some,
    none,
    not_,
    rebuild,
    seq_cons,
    seq_empty,
    seq_head,
    seq_len,
    seq_tail,
    some,
    subterms,
)
from repro.solver.union_find import CongruenceClosure


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


_SELECTOR_OPS = {
    "seq.head",
    "seq.tail",
    "seq.len",
    "seq.at",
    "seq.last",
    "seq.append",
    "some.val",
    "is_some",
}


def _rebuilds(op: str) -> bool:
    """Does the selector rule apply to applications of ``op``?"""
    return op in _SELECTOR_OPS or op.startswith("tuple.")


#: The unrolling axiom does not fire on ``seq.tail^k(x)`` with
#: ``k ≥ MAX_UNROLL`` (see :meth:`TheoryBranch._unroll_nonempty`).
MAX_UNROLL = 8


def _tail_capped(s: Term) -> bool:
    """Is ``s`` syntactically ``seq.tail^k(x)`` with ``k ≥ MAX_UNROLL``?"""
    for _ in range(MAX_UNROLL):
        if not (isinstance(s, App) and s.op == "seq.tail"):
            return False
        s = s.args[0]
    return True


class TheoryBranch:
    """One conjunctive branch of the search.

    Incremental: :meth:`push` / :meth:`pop` bracket speculative
    assertions (one disjunct of a DNF split), undoing them via the
    trails of the congruence closure and the linear store, so sibling
    branches reuse the shared-prefix closure instead of rebuilding it.

    Every push stamps its frame with a number never used before on this
    branch, so :meth:`frame`'s ``(depth, stamp)`` names one frame for as
    long as it lives: :meth:`holds` turns false once that frame is
    popped, even if another frame is later pushed at the same depth.
    """

    def __init__(self) -> None:
        self.cc = CongruenceClosure()
        self.lin = LinearStore()
        self._seq_terms: set[Term] = set()
        self._frames: list[tuple] = []
        self._pushes = 0
        # True when literals were asserted since the last close().
        self._dirty = False

    # -- backtracking -------------------------------------------------------

    def push(self) -> None:
        self.cc.push()
        self.lin.push()
        self._pushes += 1
        self._frames.append((set(self._seq_terms), self._dirty, self._pushes))

    def pop(self) -> None:
        self._seq_terms, self._dirty, _ = self._frames.pop()
        self.lin.pop()
        self.cc.pop()

    def frame(self) -> tuple[int, int]:
        """Name the current frame: its depth and stamp (0 at the base)."""
        frames = self._frames
        return len(frames), frames[-1][2] if frames else 0

    def holds(self, frame: tuple[int, int]) -> bool:
        """True while the named frame is still on this branch."""
        depth, stamp = frame
        frames = self._frames
        return len(frames) >= depth and (depth == 0 or frames[depth - 1][2] == stamp)

    def rewind(self, frame: tuple[int, int]) -> None:
        """Pop every frame above the named one, which must be held."""
        if not self.holds(frame):
            raise ValueError(f"frame {frame} is no longer on this branch")
        while len(self._frames) > frame[0]:
            self.pop()

    # -- assertion ----------------------------------------------------------

    def assert_literal(self, lit: Term) -> None:
        if self.conflict():
            return
        self._dirty = True
        self._register_subterms(lit)
        if isinstance(lit, BoolLit):
            if not lit.value:
                self.lin.conflict = True
                self.lin.conflict_reason = "literal false"
            return
        if isinstance(lit, App) and lit.op == "not":
            self._assert_atom(lit.args[0], positive=False)
        else:
            self._assert_atom(lit, positive=True)

    def _assert_atom(self, atom: Term, positive: bool) -> None:
        if isinstance(atom, App) and atom.op == "=":
            a, b = atom.args
            if positive:
                self.cc.union(a, b)
                if a.sort.is_numeric():
                    self.lin.assert_eq(a, b)
            else:
                self.cc.assert_diseq(a, b)
            return
        if isinstance(atom, App) and atom.op in ("<=", "<"):
            a, b = atom.args
            strict = atom.op == "<"
            if positive:
                self.lin.assert_le(a, b, strict)
            else:
                self.lin.assert_le(b, a, not strict)
            return
        if isinstance(atom, App) and atom.op == "is_some":
            (x,) = atom.args
            assert isinstance(x.sort, OptionSort)
            if positive:
                v = fresh_var("sk_some", x.sort.elem)
                self.cc.union(x, some(v))
            else:
                self.cc.union(x, none(x.sort.elem))
            return
        # Generic boolean atom (including uninterpreted predicates).
        self.cc.union(atom, TRUE if positive else FALSE)

    def _register_subterms(self, lit: Term) -> None:
        for s in subterms(lit):
            # Intern everything so congruence and structural propagation
            # see terms even when they only occur in arithmetic literals.
            self.cc.find(s)
            if isinstance(s.sort, SeqSort) and s not in self._seq_terms:
                self._seq_terms.add(s)
                self.lin.assert_le(intlit(0), seq_len(s), strict=False)

    # -- closure ------------------------------------------------------------

    def close(self) -> None:
        """Run theory combination to a bounded fixpoint."""
        if not self._dirty:
            return
        self._dirty = False
        for _ in range(20):
            if self.conflict():
                return
            changed = False
            if self._exchange_equalities():
                changed = True
            if self.lin.propagate():
                changed = True
            if self._structural_propagation():
                changed = True
            if not changed:
                return
        # Hit the round cap with inferences still flowing: not a true
        # fixpoint, so a later close() must resume.
        self._dirty = True

    def _exchange_equalities(self) -> bool:
        changed = False
        while self.lin.pending_eqs:
            a, b = self.lin.pending_eqs.pop()
            if not self.cc.are_equal(a, b):
                self.cc.union(a, b)
                changed = True
        while self.cc.pending_arith:
            a, b = self.cc.pending_arith.pop()
            if a.sort == INT and not self.cc.conflict:
                self.lin.assert_eq(a, b)
                changed = True
        return changed

    def _structural_propagation(self) -> bool:
        """One round of the structural rules, in interning order.

        A visit runs the selector rule (``head(cons(x, _)) = x``,
        ``tuple.i``, ...) and, on a ``seq.len`` term, the length rule
        (``len = 0 ⇒ empty``, then the unrolling axiom). The selector
        rule only derives something when an argument's representative
        changed since the last visit, so the touched terms
        (:attr:`CongruenceClosure.touched`) are visited. The length
        rule on ``t = len(s)`` only derives something when ``t`` has
        just become equal to ``0``, which merges ``t``'s class away
        (:attr:`CongruenceClosure.woken_lens`), or when ``t``'s own
        lower bound rose (:attr:`LinearStore.lens_woken`); everything
        else it reads only moves towards a no-op. So those terms are
        visited too, and no others. A woken length the closure never
        interned is dropped: interning it touches it.

        The order and the cursor are those of a scan over every known
        term: a term touched or woken mid-round is visited this round
        only if the scan has not passed it yet and it was known when
        the round began; any other waits for the next round."""
        cc = self.cc
        lens_woken = self.lin.lens_woken
        if not cc.touched and not cc.woken_lens and not lens_woken:
            return False
        stamps = cc.stamps
        if lens_woken:
            # Bounds only rise in lin.propagate(), never mid-round.
            cc.woken_lens.update(t for t in lens_woken if t in stamps)
            lens_woken.clear()
        start = cc.last_stamp
        cursor = 0
        heap: list[tuple[int, App]] = []
        waiting: set[App] = set()  # touched or woken, visited next round
        changed = False
        zero = intlit(0)
        while True:
            for marked in (cc.touched, cc.woken_lens):
                if not marked:
                    continue
                # This order follows addresses and reaches nothing:
                # the heap pops by stamp and waiting is a set.
                for u in marked:
                    if _rebuilds(u.op):
                        stamp = stamps[u]
                        if cursor < stamp <= start:
                            heappush(heap, (stamp, u))
                        else:
                            waiting.add(u)
                marked.clear()
            if not heap:
                break
            stamp, t = heappop(heap)
            if stamp == cursor:
                continue  # pushed twice before its visit
            cursor = stamp
            if self._rebuild_selector(t):
                changed = True
            if t.op != "seq.len":
                continue
            (s,) = t.args
            if cc.are_equal(t, zero):
                empty = seq_empty(s.sort.elem)  # type: ignore[union-attr]
                if not cc.are_equal(s, empty):
                    cc.union(s, empty)
                    changed = True
            elif self._unroll_nonempty(t, s):
                changed = True
        cc.touched |= waiting
        return changed

    def _rebuild_selector(self, t: App) -> bool:
        """``t = op(reps of t's args)``, simplified: a selector over a
        constructor computes."""
        cc = self.cc
        rep_args = tuple(cc.find(a) for a in t.args)
        if rep_args == t.args:
            return False
        simplified = rebuild(t.op, rep_args, t.sort)
        if simplified == t or cc.are_equal(t, simplified):
            return False
        cc.union(t, simplified)
        if t.sort == INT and isinstance(simplified, (IntLit, App, Var)):
            self.lin.assert_eq(t, simplified)
        return True

    def _unroll_nonempty(self, len_term: Term, s: Term) -> bool:
        """``|s| ≥ 1 ⇒ s = cons(head s, tail s)`` with
        ``|tail s| = |s| - 1`` — the sequence unrolling axiom. Bounded:
        only fires when the length's lower bound is at least 1, and the
        tail only unrolls further if its own bound still is.

        Bounded by depth too: it never fires on ``s = seq.tail^k(x)``
        with ``k ≥`` :data:`MAX_UNROLL`, so no tail chain it builds
        is deeper than ``MAX_UNROLL``. Without this, a
        length pinned near ``2^64`` (the overflow branch of every
        ``push``) unrolls a fresh tail per closure round until the
        round cap stops it, short of a fixpoint. The bound reads the
        term alone, never the search state, so every search and the
        full-rescan oracle derive the same things. It is sound: a
        dropped instance of the axiom can only leave a branch
        unrefuted, so a proof may fail but a false claim is never
        proved."""
        if _tail_capped(s):
            return False
        rep = self.cc.find(s)
        if isinstance(rep, App) and rep.op in ("seq.cons", "seq.empty"):
            return False
        lo, _ = self.lin.value_range(len_term)
        if lo is None or lo < 1:
            return False
        unrolled = seq_cons(seq_head(s), seq_tail(s))
        if self.cc.are_equal(s, unrolled):
            return False
        self.cc.union(s, unrolled)
        tail_len = seq_len(seq_tail(s))
        self.lin.assert_eq(tail_len, add(len_term, intlit(-1)))
        self._register_subterms(tail_len)
        return True

    def close_exhaustive(self, max_calls: int = 8) -> None:
        """Run :meth:`close` to a *true* fixpoint (or until ``max_calls``
        round-capped calls — a backstop no realistic query reaches:
        with the unrolling axiom bounded by :data:`MAX_UNROLL`, no call
        on the crates' 17 functions ends short of a fixpoint, which
        ``tests/solver/test_unroll_bound.py`` checks).

        Every search strategy decides a fully-asserted leaf with this,
        so the leaf verdict is a function of the asserted literal set
        alone — independent of how many intermediate ``close()`` calls
        the strategy's closure timing performed on the way down. That
        independence is what makes cross-strategy verdict equivalence
        hold by construction rather than by luck."""
        for _ in range(max_calls):
            self.close()
            if not self._dirty or self.conflict():
                return

    def conflict(self) -> bool:
        return self.cc.conflict or self.lin.conflict


# ---------------------------------------------------------------------------
# Branch search (pluggable; see repro.solver.strategies)
# ---------------------------------------------------------------------------


class _BranchCapReached(Exception):
    """Internal: the per-query ``branch_budget`` cap was hit. Caught by
    :meth:`Solver.check_sat` and reported as :data:`Status.UNKNOWN` —
    deliberate incompleteness, not a failure. Distinct from the
    cooperative :class:`~repro.errors.BudgetExhausted`, which must
    propagate to the verifier and become a ``timeout`` verdict."""


#: Process-wide aggregate of every Solver instance's counters, so the
#: benchmark harness can report totals without threading solver handles
#: through each experiment.
GLOBAL_STATS = metrics.register_legacy(
    "solver",
    {
        "checks": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "cache_evictions": 0,
        "alpha_hits": 0,
        "branches": 0,
        "unknowns": 0,
        "budget_stops": 0,
        "prefix_hits": 0,
        "prefix_misses": 0,
        "prefix_extends": 0,
    },
)


def _describe_query(fs: Sequence[Term]) -> str:
    """A human-readable rendering of a query, for the top-K
    slowest-queries table (computed lazily — only when a query is slow
    enough to enter the table). It is not cut: the table keys on its
    shape, and a cut made before the SSA counters are scrubbed falls
    elsewhere each run; the report cuts it for display."""
    if not fs:
        return "<empty>"
    body = " & ".join(str(f) for f in fs[:4])
    if len(fs) > 4:
        body += f" & ... ({len(fs)} conjuncts)"
    return body


#: LRU capacity of the exact result cache and of the alpha memo,
#: unless the constructor says otherwise.
DEFAULT_CACHE_CAPACITY = 16384

#: The search when ``strategy=`` names none: closed path-condition
#: prefixes are reused across queries (DESIGN.md §10 has the
#: measurement). ``baseline`` stays the reference search without that
#: reuse.
DEFAULT_STRATEGY = "prefix_reuse"

#: Closed path-condition prefixes one solver keeps (LRU). The query
#: stream alternates between a handful of symbolic states at a time.
PREFIX_SLOTS = 4


class Solver:
    """Facade: check satisfiability / entailment with caching.

    The cross-query result cache is a bounded LRU (``cache_capacity``
    entries, default :data:`DEFAULT_CACHE_CAPACITY`); hit/miss/eviction
    counters and the configured capacity live in :attr:`stats`.

    On an exact miss, a second LRU of the same capacity, the *alpha
    memo*, is consulted: it maps ``(scope, alpha_key(query))`` to the
    answer (:func:`~repro.solver.terms.alpha_key`), so a query that is
    an earlier one under a bijective, sort-preserving renaming of its
    variables (up to the order of an equality's sides) is answered
    without a search. Both preserve satisfiability. The memo stores
    what the exact cache stores (SAT, UNSAT, branch-cap UNKNOWN),
    never an interrupted query. A hit fills the exact cache, counts in
    ``cache_hits`` and ``alpha_hits`` and, like an exact hit, does not
    tick :attr:`budget`. :attr:`scope` (``None`` unless
    a caller sets it; the pipeline sets the function's name) keeps
    entries apart: one made under a scope answers only queries asked
    under that scope.

    ``strategy`` picks how cache-missing queries are searched:
    :data:`DEFAULT_STRATEGY` (``prefix_reuse``) or ``baseline``, the
    reference search (:data:`repro.solver.strategies.STRATEGIES`); an
    unknown name raises ``KeyError`` here.

    :attr:`prefix_branches` is the cross-query path-condition cache of
    the prefix-reusing search: literal prefix → ``(branch, frame,
    conflict)``, where ``frame`` (:meth:`TheoryBranch.frame`) is the
    branch's frame that holds the prefix closed. Entries that extend
    one another share one branch at different depths. At most
    :data:`PREFIX_SLOTS` entries, least recently used first.

    :attr:`budget` (a :class:`repro.budget.Budget` or ``None``) is the
    cooperative per-function budget: every cache-missing query ticks
    it, and every explored branch ticks it, so deadlines and query
    budgets interrupt even a single long-running query. Exhaustion
    raises :class:`~repro.errors.BudgetExhausted` out of
    :meth:`check_sat` — unlike the per-query ``branch_budget`` cap,
    which merely degrades the answer to :data:`Status.UNKNOWN`.
    """

    def __init__(
        self,
        branch_budget: int = 4096,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        strategy: str = DEFAULT_STRATEGY,
    ) -> None:
        self.branch_budget = branch_budget
        self.cache_capacity = cache_capacity
        get_strategy(strategy)  # an unknown name raises now
        self.strategy = strategy
        self.budget = None  # Optional[repro.budget.Budget]
        #: The alpha memo's scope: entries made under one scope answer
        #: only queries asked under that scope.
        self.scope: Optional[str] = None
        self._cache: OrderedDict[frozenset, Status] = OrderedDict()
        self._memo: OrderedDict[tuple, Status] = OrderedDict()
        self.prefix_branches: OrderedDict[
            tuple, tuple[TheoryBranch, tuple[int, int], bool]
        ] = OrderedDict()
        self.stats = {
            "checks": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
            "cache_capacity": cache_capacity,
            "alpha_hits": 0,
            "branches": 0,
            "unknowns": 0,
            "budget_stops": 0,
            "prefix_hits": 0,
            "prefix_misses": 0,
            "prefix_extends": 0,
        }

    def _tick(self, key: str, n: int = 1) -> None:
        self.stats[key] += n
        GLOBAL_STATS[key] += n

    # -- public API ----------------------------------------------------------

    def check_sat(self, formulas: Iterable[Term]) -> Status:
        faultinject.fire("solver.check_sat")
        fs = [f for f in formulas if f != TRUE]
        key = frozenset(fs)
        cache = self._cache
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            self._tick("cache_hits")
            return hit
        memo = self._memo
        akey = (self.scope, alpha_key(fs))
        hit = memo.get(akey)
        if hit is not None:
            memo.move_to_end(akey)
            self._remember(key, hit)
            self._tick("cache_hits")
            self._tick("alpha_hits")
            return hit
        if self.budget is not None:
            try:
                self.budget.tick_solver("check_sat")
            except BudgetExhausted:
                self._tick("budget_stops")
                raise
        self._tick("checks")
        self._tick("cache_misses")
        t0 = clock.now()
        try:
            if FALSE in fs:
                result = Status.UNSAT
            else:
                try:
                    result = get_strategy(self.strategy).search(self, fs)
                except _BranchCapReached:
                    result = Status.UNKNOWN
                    self._tick("unknowns")
                except BudgetExhausted:
                    # The cooperative budget interrupted the search mid-way:
                    # the result is unknown but must NOT be cached (a later,
                    # fresh-budget run should get a real answer) and must
                    # propagate so the caller reports a timeout verdict.
                    self._tick("budget_stops")
                    raise
        finally:
            # Every cache-missing query is timed and attributed to the
            # enclosing span's function — in the finally so the phase
            # table stays honest even when BudgetExhausted aborts the
            # search.
            dur = clock.now() - t0
            obs_trace.record_phase(obs_trace.current_function(), "solve", dur)
            obs_trace.record_query(dur, lambda: _describe_query(fs))
        self._remember(key, result)
        memo[akey] = result
        if len(memo) > self.cache_capacity:
            memo.popitem(last=False)
        return result

    def _remember(self, key: frozenset, result: Status) -> None:
        cache = self._cache
        cache[key] = result
        if len(cache) > self.cache_capacity:
            cache.popitem(last=False)
            self._tick("cache_evictions")

    def entails(self, pc: Sequence[Term], goal: Term) -> bool:
        """``pc ⊨ goal`` — sound: True only when proven."""
        if goal == TRUE:
            return True
        return self.check_sat(list(pc) + [not_(goal)]) == Status.UNSAT


_DEFAULT_SOLVER: Optional[Solver] = None


def default_solver() -> Solver:
    """Process-wide shared solver (shared cache across the pipeline)."""
    global _DEFAULT_SOLVER
    if _DEFAULT_SOLVER is None:
        _DEFAULT_SOLVER = Solver()
    return _DEFAULT_SOLVER


def reset_default_solver() -> None:
    global _DEFAULT_SOLVER
    _DEFAULT_SOLVER = None

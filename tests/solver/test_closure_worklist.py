"""Oracle suite for the demand-driven theory closure.

:meth:`TheoryBranch._structural_propagation` visits only the terms a
merge touched, plus the ``seq.len`` terms whose class a merge moved or
whose lower bound rose, and the linear store's equality collapse visits
only the atoms it tightened. Both must derive exactly what a rescan of
every known term and every bound derives: the same representatives,
the same terms interned in the same order, the same bounds and the
same conflicts.

The linear store's Fourier–Motzkin step visits only the earlier
constraints its partner index lists; it must add the same combined
constraints, at the same positions and depths, as a scan over every
earlier constraint.

The oracle below is the full-rescan closure kept as a test copy. Every
stream drives an oracle branch and a work-list branch in lockstep,
through ``push``/``pop``/``rewind``, and compares their states after
each exhaustive closure. The cross-strategy suite cannot catch a
closure divergence: every strategy shares one closure.
"""

import itertools
import random

import pytest

import repro.rustlib.linked_list as ll
import repro.rustlib.raw_stack as rs
import repro.rustlib.raw_vec as rv
import repro.solver.terms as terms
from repro.hybrid.pipeline import HybridVerifier
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.specs import install_callee_specs
from repro.solver import Solver
from repro.solver.core import _SELECTOR_OPS, TheoryBranch
from repro.solver.intervals import (
    LinConstraint,
    LinearStore,
    _int_ceil_hi,
    _int_floor_lo,
)
from repro.solver.sorts import INT, OptionSort, SeqSort, TupleSort
from repro.solver.strategies import SearchStrategy, _split_kind
from repro.solver.terms import (
    FALSE,
    TRUE,
    App,
    IntLit,
    Var,
    add,
    eq,
    intlit,
    is_some,
    le,
    lt,
    none,
    not_,
    rebuild,
    seq_cons,
    seq_empty,
    seq_head,
    seq_len,
    seq_tail,
    some,
    some_val,
    tuple_get,
    tuple_mk,
)
from tests.solver.test_strategies import IVARS, _pc_walk


# -- the oracle: closure by full rescan -----------------------------------------


class _RescanStore(LinearStore):
    def _collapse_equalities(self) -> None:
        for a, b in self.bounds.items():
            if a.sort != INT:
                continue
            lo = _int_floor_lo(b)
            hi = _int_ceil_hi(b)
            if lo is not None and hi is not None and lo == hi:
                if not isinstance(a, IntLit):
                    self.pending_eqs.append((a, intlit(lo)))

    def _fourier_motzkin(self) -> bool:
        added = False
        while self._fm_frontier < len(self.constraints):
            c1 = self.constraints[self._fm_frontier]
            self._fm_frontier += 1
            for c2 in self.constraints[: self._fm_frontier - 1]:
                if c1.depth + c2.depth >= 4:
                    continue
                shared = [
                    a
                    for a in c1.coeffs
                    if a in c2.coeffs and (c1.coeffs[a] > 0) != (c2.coeffs[a] > 0)
                ]
                for a in shared:
                    k1, k2 = abs(c2.coeffs[a]), abs(c1.coeffs[a])
                    coeffs = {}
                    for atom, c in c1.coeffs.items():
                        coeffs[atom] = coeffs.get(atom, 0) + k1 * c
                    for atom, c in c2.coeffs.items():
                        coeffs[atom] = coeffs.get(atom, 0) + k2 * c
                    coeffs = {x: c for x, c in coeffs.items() if c != 0}
                    if len(coeffs) > 2:
                        continue
                    combined = LinConstraint(
                        coeffs, k1 * c1.const + k2 * c2.const,
                        c1.strict or c2.strict, depth=c1.depth + c2.depth + 1,
                    )
                    if combined.key() not in self._seen:
                        self._add(combined, integral=False)
                        added = True
                        if self.conflict:
                            return True
        return added


class RescanBranch(TheoryBranch):
    """A theory branch whose structural rules rescan every known term,
    whose bound collapse rescans every bounded atom and whose
    Fourier–Motzkin step scans every earlier constraint."""

    def __init__(self) -> None:
        super().__init__()
        self.lin = _RescanStore()

    def _structural_propagation(self) -> bool:
        changed = False
        terms = list(self.cc.known_terms())
        for t in terms:
            if not isinstance(t, App):
                continue
            if t.op in _SELECTOR_OPS or t.op.startswith("tuple."):
                rep_args = tuple(self.cc.find(a) for a in t.args)
                if rep_args != t.args:
                    simplified = rebuild(t.op, rep_args, t.sort)
                    if simplified != t and not self.cc.are_equal(t, simplified):
                        self.cc.union(t, simplified)
                        if (
                            t.sort == INT
                            and isinstance(simplified, (IntLit, App, Var))
                        ):
                            self.lin.assert_eq(t, simplified)
                        changed = True
            if t.op == "seq.len":
                (s,) = t.args
                if self.cc.are_equal(t, intlit(0)):
                    empty = seq_empty(s.sort.elem)
                    if not self.cc.are_equal(s, empty):
                        self.cc.union(s, empty)
                        changed = True
                elif self._unroll_nonempty(t, s):
                    changed = True
        return changed


# -- lockstep driving -----------------------------------------------------------


def _state(branch: TheoryBranch) -> tuple:
    """Everything the closure derived, read without path compression."""
    parent = branch.cc._parent
    classes = []
    for t in parent:
        root = t
        while parent[root] is not root:
            root = parent[root]
        classes.append((t, root))
    bounds = [
        (a, b.lo, b.lo_strict, b.hi, b.hi_strict) for a, b in branch.lin.bounds.items()
    ]
    return (
        branch.cc.conflict,
        branch.lin.conflict,
        branch._dirty,
        classes,
        bounds,
        [(c.key(), c.depth) for c in branch.lin.constraints],
        list(branch.cc.pending_arith),
    )


class Lockstep:
    """The oracle and the work-list branch, driven by the same calls.

    A positive ``is_some`` literal asserts ``x = some(sk)`` for a fresh
    ``sk``; each branch gets the same fresh names, so that their states
    compare term for term."""

    def __init__(self) -> None:
        self.oracle = RescanBranch()
        self.work = TheoryBranch()
        self.closes = 0
        self.ops: set = set()  # operators of the terms the closes saw

    def do(self, op, *args) -> None:
        start = next(terms._fresh_counter)
        for branch in (self.oracle, self.work):
            terms._fresh_counter = itertools.count(start)
            getattr(branch, op)(*args)

    def close_exhaustive(self) -> None:
        self.do("close_exhaustive")
        self.closes += 1
        self.ops.update(t.op for t in self.work.cc.stamps)
        self.check()

    def rewind(self, frames: tuple) -> None:
        self.oracle.rewind(frames[0])
        self.work.rewind(frames[1])
        self.check()

    def frame(self) -> tuple:
        return self.oracle.frame(), self.work.frame()

    def check(self) -> None:
        assert _state(self.work) == _state(self.oracle)


    def search(self, pending) -> None:
        """Run the DNF search on a frame of each branch, as the default
        strategy decides a goal on a closed prefix; every leaf closure
        and the verdict must agree."""
        start = next(terms._fresh_counter)
        runs = []
        for branch in (self.oracle, self.work):
            terms._fresh_counter = itertools.count(start)
            leaves: list = []
            close_exhaustive = branch.close_exhaustive

            def record(close_exhaustive=close_exhaustive, branch=branch, leaves=leaves):
                close_exhaustive()
                leaves.append(_state(branch))
                self.ops.update(t.op for t in branch.cc.stamps)

            branch.close_exhaustive = record
            branch.push()
            try:
                sat = SearchStrategy()._branch_sat(Solver(), pending, branch, [4096])
            finally:
                branch.pop()
                del branch.close_exhaustive
            runs.append((sat, leaves))
        assert runs[0] == runs[1]
        self.closes += len(runs[1][1])


def _split(fs) -> tuple[list, list]:
    """The prefix's literal conjuncts, ``and``-flattened, and the rest,
    as the prefix-reusing search splits a query."""
    lits, residue = [], []
    for f in fs[:-1]:
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
                residue.append(g)
    return lits, residue


def _replay(queries) -> Lockstep:
    """Decide each query as the default search does: rewind to the
    deepest frame holding a prefix of its literals, push the rest as one
    frame and close it, then search the goal on top."""
    pair = Lockstep()
    held: list = []
    frames = [(pair.frame(), 0)]
    for fs in queries:
        prefix, residue = _split(fs)
        common = 0
        for a, b in zip(held, prefix):
            if a != b:
                break
            common += 1
        while frames[-1][1] > common:
            frames.pop()
        pair.rewind(frames[-1][0])
        del held[frames[-1][1]:]
        if len(prefix) > len(held):
            pair.do("push")
            for lit in prefix[len(held):]:
                pair.do("assert_literal", lit)
            held[:] = prefix
            frames.append((pair.frame(), len(held)))
        pair.close_exhaustive()
        if pair.work.conflict():
            continue
        pending = None
        for f in fs[-1:] + residue:
            pending = (f, pending)
        before = _state(pair.work)
        pair.search(pending)
        assert _state(pair.work) == before
        pair.check()
    return pair


# -- random literals over sequences, options and tuples ---------------------------

SEQ = SeqSort(INT)
SVARS = [Var(f"s{i}", SEQ) for i in range(3)]
OVARS = [Var(f"o{i}", OptionSort(INT)) for i in range(2)]
PVARS = [Var(f"p{i}", TupleSort((INT, INT))) for i in range(2)]


def _seq_term(rng, depth=1):
    roll = rng.random()
    if depth and roll < 0.2:
        return seq_cons(rng.choice(IVARS), _seq_term(rng, depth - 1))
    if depth and roll < 0.35:
        return seq_tail(_seq_term(rng, depth - 1))
    if roll < 0.45:
        return seq_empty(INT)
    return rng.choice(SVARS)


def _int_atom(rng):
    """``x ⋈ y + k`` or ``x ⋈ k``: unit coefficients, as the verifier's
    path conditions have. (Streams with larger ones drive bound
    propagation towards its magnitude cap; test_bound_magnitude.py
    covers those.)"""
    x = rng.choice(IVARS)
    k = intlit(rng.randint(-3, 3))
    rhs = k if rng.random() < 0.4 else add(rng.choice(IVARS), k)
    return rng.choice([le, lt, eq])(x, rhs)


def _structural_atom(rng, int_atom=_int_atom):
    x, s = rng.choice(IVARS), rng.choice(SVARS)
    o, p = rng.choice(OVARS), rng.choice(PVARS)
    kind = rng.randrange(11)
    if kind == 0:
        return eq(seq_len(_seq_term(rng)), rng.choice([intlit(rng.randint(0, 2)), x]))
    if kind == 1:
        return le(intlit(rng.randint(1, 3)), seq_len(s))
    if kind == 2:
        return eq(s, _seq_term(rng, 2))
    if kind == 3:
        return eq(seq_head(_seq_term(rng)), x)
    if kind == 4:
        return eq(seq_tail(s), rng.choice(SVARS))
    if kind == 5:
        return eq(o, rng.choice([some(x), none(INT), rng.choice(OVARS)]))
    if kind == 6:
        lit = is_some(o)
        return lit if rng.random() < 0.5 else not_(lit)
    if kind == 7:
        return eq(some_val(o), x)
    if kind == 8:
        return eq(p, rng.choice([tuple_mk(x, rng.choice(IVARS)), rng.choice(PVARS)]))
    if kind == 9:
        return eq(tuple_get(p, rng.randrange(2)), x)
    return int_atom(rng)


def _literal(rng, int_atom=_int_atom):
    lit = _structural_atom(rng, int_atom) if rng.random() < 0.75 else int_atom(rng)
    return lit if lit not in (TRUE, FALSE) else eq(rng.choice(IVARS), intlit(0))


class TestRandomStreams:
    @pytest.mark.parametrize("seed", range(24))
    def test_push_pop_rewind_matches_rescan(self, seed):
        rng = random.Random(seed)
        pair = Lockstep()
        named = [pair.frame()]
        for _ in range(80):
            move = rng.random()
            if move < 0.45:
                pair.do("assert_literal", _literal(rng))
            elif move < 0.5:
                # Pin a variable by two bounds: the store, not the
                # closure, derives ``x = k``, for a literal new so far.
                x, k = rng.choice(IVARS), intlit(rng.randint(4, 60))
                pair.do("assert_literal", le(x, k))
                pair.do("assert_literal", le(k, x))
            elif move < 0.65:
                pair.do("close")
                pair.check()
            elif move < 0.8:
                pair.do("push")
                named.append(pair.frame())
            elif move < 0.9 and pair.work.frame()[0]:
                pair.do("pop")
                pair.check()
            else:
                live = [f for f in named if pair.oracle.holds(f[0])]
                pair.rewind(rng.choice(live))
            if rng.random() < 0.3:
                pair.close_exhaustive()
        pair.close_exhaustive()
        assert pair.closes > 10

    @pytest.mark.parametrize("seed", range(6))
    def test_pc_walk_matches_rescan(self, seed):
        """The cross-strategy suite's path-condition walks, replayed as
        the prefix-reusing search decides them."""
        _replay(_pc_walk(random.Random(seed)))


# -- query streams recorded from the verifier ------------------------------------


class _Recorder(Solver):
    def __init__(self) -> None:
        super().__init__()
        self.queries: list = []

    def check_sat(self, formulas):
        fs = [f for f in formulas if f != TRUE]
        self.queries.append(fs)
        return super().check_sat(fs)


def crate_verifier(crate: str, solver: Solver) -> HybridVerifier:
    """A verifier of one of the benchmark's crates, driving ``solver``."""
    if crate == "LinkedList":
        program, ownables = ll.build_program()
        install_callee_specs(program, ownables)
        contracts, pure_pre = LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
    elif crate == "RawVec":
        program, ownables = rv.build_program()
        contracts, pure_pre = rv.RAW_VEC_CONTRACTS, {}
    else:
        program, ownables = rs.build_program()
        contracts = rs.RAW_STACK_CONTRACTS
        pure_pre = {"RawStack::push": ["self@.len() < usize::MAX"]}
    return HybridVerifier(
        program, ownables, contracts, solver=solver, manual_pure_pre=pure_pre
    )


def _recorded(crate: str, function: str) -> list:
    solver = _Recorder()
    entries = crate_verifier(crate, solver).verify_one(function)
    assert entries and all(e.ok for e in entries), [str(e) for e in entries]
    unique = list({tuple(fs): fs for fs in solver.queries}.values())
    return unique


@pytest.mark.parametrize(
    "crate, function",
    [
        ("LinkedList", "LinkedList::push_front_node"),
        ("RawStack", "RawStack::pop"),
        ("RawVec", "RawVec::pop"),
    ],
)
def test_recorded_queries_match_rescan(crate, function):
    queries = _recorded(crate, function)
    assert len(queries) > 50
    pair = _replay(queries)
    # The stream exercises the rules the work-list schedules.
    assert {"seq.len", "seq.head", "seq.tail", "tuple.0"} <= pair.ops


# -- the touched set and the length wake-ups across frames --------------------------


def _bookkeeping(branch: TheoryBranch) -> tuple:
    cc, lin = branch.cc, branch.lin
    return (
        set(cc.touched),
        dict(cc.stamps),
        {rep: list(lens) for rep, lens in cc.len_class.items()},
        set(cc.woken_lens),
        set(lin._tightened),
        set(lin.lens_woken),
    )


def _count_unrolls(branch: TheoryBranch) -> list:
    """Record the length term of every ``_unroll_nonempty`` call."""
    calls: list = []
    unroll = branch._unroll_nonempty

    def counted(len_term, s):
        calls.append(len_term)
        return unroll(len_term, s)

    branch._unroll_nonempty = counted
    return calls


class TestCollapse:
    def test_equalities_leave_in_bounds_order(self):
        """Two atoms pinned by one propagation, each to a literal the
        closure has not seen: exported in :attr:`LinearStore.bounds`
        order, so the literals are interned in the rescan's order."""
        x, y, z = IVARS[:3]
        pair = Lockstep()
        for k, v in ((1, x), (2, z)):
            pair.do("assert_literal", le(v, add(y, intlit(k))))
            pair.do("assert_literal", le(add(y, intlit(k)), v))
        pair.close_exhaustive()
        pair.do("push")
        pair.do("assert_literal", le(y, intlit(70)))
        pair.do("assert_literal", le(intlit(70), y))
        pair.close_exhaustive()
        classes = _state(pair.work)[3]
        assert (x, intlit(71)) in classes and (z, intlit(72)) in classes


class TestFrames:
    def test_pop_restores_the_touched_set(self):
        s, t = SVARS[:2]
        x, y = IVARS[:2]
        branch = TheoryBranch()
        branch.assert_literal(eq(s, seq_cons(x, t)))
        branch.assert_literal(le(intlit(1), seq_len(t)))
        # Left unclosed: the base's touched terms are still pending.
        pending = _bookkeeping(branch)
        assert pending[0] and pending[2]
        branch.push()
        branch.assert_literal(eq(seq_head(t), y))
        branch.assert_literal(eq(seq_len(s), intlit(2)))
        branch.close_exhaustive()
        assert _bookkeeping(branch) != pending
        branch.pop()
        assert _bookkeeping(branch) == pending
        # Closed, then a frame that only merges known terms.
        branch.close_exhaustive()
        closed = _bookkeeping(branch)
        branch.push()
        branch.assert_literal(eq(x, y))
        assert branch.cc.touched != closed[0]
        branch.pop()
        assert _bookkeeping(branch) == closed

    def test_pop_restores_the_length_wake_ups(self):
        s, t = SVARS[:2]
        x = IVARS[0]
        branch = TheoryBranch()
        branch.assert_literal(eq(seq_len(t), x))
        branch.assert_literal(le(intlit(0), seq_len(s)))
        branch.close_exhaustive()
        # Wake both kinds without closing: a merge of two lengths'
        # classes, and lower bounds raised by propagation.
        branch.assert_literal(eq(seq_len(s), seq_len(t)))
        branch.assert_literal(le(intlit(3), x))
        branch.lin.propagate()
        woken = _bookkeeping(branch)
        assert branch.cc.woken_lens & {seq_len(s), seq_len(t)}
        assert branch.lin.lens_woken == {seq_len(s), seq_len(t)}
        root = branch.cc.find(seq_len(s))
        assert set(branch.cc.len_class[root]) == {seq_len(s), seq_len(t)}
        branch.push()
        branch.close_exhaustive()
        assert not branch.cc.woken_lens and not branch.lin.lens_woken
        assert _bookkeeping(branch) != woken  # s and t unrolled
        branch.pop()
        assert _bookkeeping(branch) == woken

    def test_a_merge_wakes_the_lengths_it_moves(self):
        s, t = SVARS[:2]
        branch = TheoryBranch()
        branch.assert_literal(le(intlit(0), seq_len(s)))
        branch.assert_literal(le(intlit(0), seq_len(t)))
        branch.close_exhaustive()
        branch.assert_literal(eq(seq_len(t), intlit(0)))
        # The literal keeps its class; len(t)'s class is merged away.
        assert branch.cc.woken_lens == {seq_len(t)}
        assert branch.cc.len_class[intlit(0)] == [seq_len(t)]
        assert seq_len(t) not in branch.cc.len_class

    def test_a_merge_touches_the_terms_over_its_class(self):
        s, t = SVARS[:2]
        branch = TheoryBranch()
        branch.assert_literal(eq(seq_head(s), IVARS[0]))
        branch.assert_literal(eq(seq_tail(t), SVARS[2]))
        branch.close_exhaustive()
        branch.cc.touched.clear()
        branch.assert_literal(eq(s, t))
        # The terms over the class that lost its representative.
        moved = seq_tail(t) if branch.cc.find(s) == s else seq_head(s)
        assert moved in branch.cc.touched


class TestLaziness:
    def _closed(self) -> TheoryBranch:
        """Lengths the unrolling rule has seen: one unrolled once, two
        with no positive lower bound."""
        s, t, u = SVARS
        branch = TheoryBranch()
        branch.assert_literal(le(intlit(1), seq_len(t)))
        branch.assert_literal(le(intlit(0), seq_len(s)))
        branch.assert_literal(eq(seq_len(u), IVARS[1]))
        branch.close_exhaustive()
        return branch

    def test_unrelated_literal_visits_no_length(self):
        branch = self._closed()
        calls = _count_unrolls(branch)
        branch.assert_literal(le(IVARS[3], intlit(5)))
        branch.close_exhaustive()
        assert calls == []

    def test_raised_lower_bound_visits_that_length(self):
        s = SVARS[0]
        branch = self._closed()
        known = branch.cc.last_stamp
        calls = _count_unrolls(branch)
        branch.assert_literal(le(intlit(1), seq_len(s)))
        branch.close_exhaustive()
        # Of the lengths known before, only len(s) is visited (again
        # after its own unrolling merges its class); the rest are new.
        assert calls[0] == seq_len(s)
        assert {t for t in calls if branch.cc.stamps[t] <= known} == {seq_len(s)}
        assert branch.cc.are_equal(s, seq_cons(seq_head(s), seq_tail(s)))

"""Property tests for hash-consed term interning.

Term equality and hashing are object identity, so the engine is only
correct while interning is *canonical*: every route that makes a term
(the constructors, the smart constructors, unpickling, ``copy``,
``dataclasses.replace``, a forked worker's result) must return the one
live object for that structure. These tests pin each route, pin that
the five term classes keep CPython's identity slots, and pin that the
weak table lets dropped terms go.
"""

import copy
import dataclasses
import gc
import os
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import parallel
from repro.solver import Solver
from repro.solver import terms as terms_mod
from repro.solver.sorts import BOOL, INT, SeqSort
from repro.solver.terms import (
    App,
    BoolLit,
    IntLit,
    RealLit,
    Term,
    Var,
    add,
    and_,
    eq,
    interner_stats,
    intlit,
    ite,
    le,
    lt,
    mul,
    neg,
    not_,
    or_,
    reallit,
    rebuild,
    seq_cons,
    seq_empty,
    seq_len,
    seq_tail,
    some,
    sub,
    substitute,
    tuple_mk,
)

TERM_CLASSES = (Var, IntLit, BoolLit, RealLit, App)

VARS = [Var(f"v{i}", INT) for i in range(4)]
BVARS = [Var(f"b{i}", BOOL) for i in range(2)]


@st.composite
def int_terms(draw, depth=2):
    if depth == 0:
        return draw(
            st.one_of(
                st.sampled_from(VARS),
                st.integers(-20, 20).map(intlit),
            )
        )
    op = draw(st.sampled_from(["leaf", "add", "sub", "neg", "mulc"]))
    if op == "leaf":
        return draw(int_terms(depth=0))
    if op == "neg":
        return neg(draw(int_terms(depth=depth - 1)))
    a = draw(int_terms(depth=depth - 1))
    b = draw(int_terms(depth=depth - 1))
    if op == "add":
        return add(a, b)
    if op == "sub":
        return sub(a, b)
    return mul(a, intlit(draw(st.integers(-3, 3))))


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        kind = draw(st.sampled_from(["le", "lt", "eq", "bool"]))
        if kind == "bool":
            return draw(st.sampled_from(BVARS))
        a = draw(int_terms())
        b = draw(int_terms())
        return {"le": le, "lt": lt, "eq": eq}[kind](a, b)
    kind = draw(st.sampled_from(["atom", "and", "or", "not", "ite"]))
    if kind == "atom":
        return draw(formulas(depth=0))
    if kind == "not":
        return not_(draw(formulas(depth=depth - 1)))
    a = draw(formulas(depth=depth - 1))
    b = draw(formulas(depth=depth - 1))
    if kind == "and":
        return and_(a, b)
    if kind == "or":
        return or_(a, b)
    c = draw(formulas(depth=0))
    return ite(c, a, b)


def _deep_copy(t: Term) -> Term:
    """Rebuild a term bottom-up through the public constructors,
    guaranteeing a fresh construction path for every node."""
    if isinstance(t, App):
        return App(t.op, tuple(_deep_copy(a) for a in t.args), t.sort)
    if isinstance(t, Var):
        return Var(t.name, t.sort)
    if isinstance(t, IntLit):
        return IntLit(t.value)
    return t


def _structurally_equal(a: Term, b: Term) -> bool:
    """Field-by-field comparison that never consults ``==`` on terms."""
    if type(a) is not type(b):
        return False
    if isinstance(a, App):
        return (
            a.op == b.op
            and a.sort == b.sort
            and len(a.args) == len(b.args)
            and all(_structurally_equal(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, Var):
        return a.name == b.name and a.sort == b.sort
    return a.value == b.value


class TestCanonicity:
    @settings(max_examples=60, deadline=None)
    @given(f=formulas())
    def test_rebuilding_is_identity(self, f):
        """intern(a) is intern(b) whenever a and b are structurally equal."""
        g = _deep_copy(f)
        assert g is f

    @settings(max_examples=60, deadline=None)
    @given(a=formulas(), b=formulas())
    def test_identity_iff_structural_equality(self, a, b):
        assert (a is b) == _structurally_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(f=formulas())
    def test_hash_agrees_with_equality(self, f):
        g = _deep_copy(f)
        assert hash(g) == hash(f)

    @settings(max_examples=20, deadline=None)
    @given(f=formulas())
    def test_pickle_roundtrip_reinterns(self, f):
        assert pickle.loads(pickle.dumps(f)) is f  # __reduce__ interns

    def test_stats_exposed(self):
        s = interner_stats()
        assert set(s) == {"hits", "misses", "live_terms"}
        assert s["misses"] > 0


class TestEveryRouteIsCanonical:
    """Each way of obtaining a term hands back the live canonical one."""

    def test_constructors(self):
        x = Var("x", INT)
        assert Var("x", INT) is x
        assert IntLit(3) is IntLit(3) is intlit(3)
        assert BoolLit(True) is terms_mod.TRUE
        assert RealLit(Fraction(1, 2)) is reallit("1/2")
        assert App("f", (x,), INT) is App("f", (Var("x", INT),), INT)

    def test_smart_constructors(self):
        x, y = Var("x", INT), Var("y", INT)
        s = Var("s", SeqSort(INT))
        assert add(x, intlit(1)) is add(x, intlit(1))
        assert eq(x, y) is eq(y, x)
        assert not_(le(x, y)) is lt(y, x)
        assert and_(le(x, y), lt(x, y)) is and_(le(x, y), lt(x, y))
        assert seq_tail(seq_cons(x, s)) is s
        assert seq_len(seq_cons(x, s)) is add(intlit(1), seq_len(s))
        assert tuple_mk(x, y) is tuple_mk(x, y)
        assert some(x) is some(x)
        assert rebuild("+", (x, intlit(2)), INT) is add(x, intlit(2))
        assert substitute(add(x, y), {y: intlit(0)}) is x

    @pytest.mark.parametrize(
        "t",
        [
            Var("p", INT),
            IntLit(-7),
            BoolLit(False),
            RealLit(Fraction(3, 4)),
            seq_empty(INT),
        ],
        ids=lambda t: type(t).__name__,
    )
    def test_pickle_each_class(self, t):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, protocol)) is t

    @settings(max_examples=20, deadline=None)
    @given(f=formulas())
    def test_copy_and_deepcopy(self, f):
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f

    def test_dataclasses_replace(self):
        x = Var("x", INT)
        assert dataclasses.replace(x, name="y") is Var("y", INT)
        assert dataclasses.replace(x) is x
        assert dataclasses.replace(IntLit(1), value=2) is intlit(2)
        f = App("f", (x,), INT)
        g = dataclasses.replace(f, args=(Var("y", INT),))
        assert g is App("f", (Var("y", INT),), INT)
        assert dataclasses.replace(g, args=(x,)) is f

    @pytest.mark.skipif(
        not parallel.fork_available(), reason="needs the fork start method"
    )
    def test_forked_worker_result(self):
        expected = [_worker_term(None, k)[1] for k in range(4)]
        got = parallel.fanout(
            _worker_term, None, range(4), 2,
            on_error=lambda k, exc: pytest.fail(f"item {k}: {exc}"),
        )
        for (pid, g), e in zip(got, expected):
            assert pid != os.getpid()
            assert g is e

    def test_store_codec_carries_no_terms(self):
        """The store persists plain data only, so no term is ever read
        back from it: a term where a string belongs is rejected."""
        from repro.gillian.engine import VerificationIssue
        from repro.gillian.verifier import VerificationResult
        from repro.hybrid.pipeline import HybridEntry
        from repro.store.codec import decode_entries, encode_entries

        ok = HybridEntry(
            "f", "gillian-rust", True, VerificationResult("f", "type-safety", True)
        )
        assert decode_entries(encode_entries([ok])) == [ok]
        issue = VerificationIssue("f", "bb0", add(Var("x", INT), intlit(1)))
        bad = HybridEntry(
            "f",
            "gillian-rust",
            False,
            VerificationResult("f", "type-safety", False, issues=[issue]),
        )
        with pytest.raises(ValueError):
            encode_entries([bad])


def _worker_term(_payload, k: int) -> tuple[int, Term]:
    """Build a term in the worker (module-level so it pickles by name)."""
    return os.getpid(), add(mul(Var(f"w{k}", INT), intlit(k + 2)), Var("w", INT))


class TestIdentityInvariant:
    @pytest.mark.parametrize("cls", TERM_CLASSES, ids=lambda c: c.__name__)
    def test_eq_and_hash_are_object_slots(self, cls):
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__
        assert cls.__ne__ is object.__ne__

    def test_no_switch_turns_interning_off(self):
        for name in ("set_interning", "interning_enabled", "_INTERN_ENABLED"):
            assert not hasattr(terms_mod, name)

    def test_dropped_term_leaves_the_weak_table(self):
        t = App("dropped.op", (Var("dropped_v", INT), intlit(991)), INT)
        ref = weakref.ref(t)
        live = interner_stats()["live_terms"]
        del t
        gc.collect()
        assert ref() is None
        assert interner_stats()["live_terms"] < live


class TestSolverIntegration:
    def test_sequence_reasoning_unchanged(self):
        solver = Solver()
        s = seq_cons(intlit(1), seq_cons(intlit(2), seq_empty(INT)))
        assert solver.entails([], eq(seq_len(s), intlit(2)))

    def test_lru_cache_counters(self):
        solver = Solver(cache_capacity=2)
        x = Var("x", INT)
        f1 = [le(intlit(0), x)]
        f2 = [le(intlit(1), x)]
        f3 = [le(intlit(2), x)]
        solver.check_sat(f1)
        solver.check_sat(f1)
        assert solver.stats["cache_hits"] == 1
        assert solver.stats["cache_misses"] == 1
        solver.check_sat(f2)
        solver.check_sat(f3)  # evicts f1 (capacity 2)
        assert solver.stats["cache_evictions"] == 1
        solver.check_sat(f1)  # miss again after eviction
        assert solver.stats["cache_misses"] == 4

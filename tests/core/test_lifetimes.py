"""Tests for the lifetime context ξ (§4.1, Fig. 6) — the automation of
RustBelt's lifetime-logic rules."""

from fractions import Fraction

import pytest

from repro.core.lifetimes import DEAD, LifetimeCtx
from repro.solver import Solver
from repro.solver.sorts import LFT, REAL
from repro.solver.terms import Var, eq, reallit

k1 = Var("κ1", LFT)
k2 = Var("κ2", LFT)


@pytest.fixture()
def solver():
    return Solver()


def q(x) -> object:
    return reallit(Fraction(x))


class TestProducers:
    def test_produce_fresh_alive(self, solver):
        ctx = LifetimeCtx()
        out = ctx.produce_alive(k1, q("1/2"), solver, ())
        assert out.ctx is not None
        assert not out.inconsistent

    def test_produce_adds_fractions(self, solver):
        # Lft-Produce-Alive-Add: [κ]_q * [κ]_q' => [κ]_{q+q'}, and
        # LftL-tok-fract over a run of splits and merges.
        ctx = LifetimeCtx().new_lifetime(k1)
        for d in range(2, 12):
            ctx = ctx.consume_alive(k1, q(f"1/{d}"), solver, ()).ctx
            ctx = ctx.produce_alive(k1, q(f"1/{d}"), solver, ()).ctx
            frac = ctx.held_fraction(k1, solver, ())
            assert solver.entails([], eq(frac, q(1)))

    def test_produce_alive_over_dead_vanishes(self, solver):
        # LftL-not-own-end via Lft-Produce-Own-End, whether κ was
        # ended here or its dead token was produced.
        ended = LifetimeCtx().new_lifetime(k1).end_lifetime(k1, solver, ()).ctx
        produced = LifetimeCtx().produce_dead(k1, solver, ()).ctx
        for ctx in (ended, produced):
            out = ctx.produce_alive(k1, q("1/2"), solver, ())
            assert out.inconsistent

    def test_produce_dead_idempotent(self, solver):
        # LftL-end-persist: the producer is idempotent.
        ctx = LifetimeCtx()
        ctx = ctx.produce_dead(k1, solver, ()).ctx
        out = ctx.produce_dead(k1, solver, ())
        assert out.ctx is not None
        assert not out.inconsistent

    def test_produce_dead_over_alive_vanishes(self, solver):
        ctx = LifetimeCtx().new_lifetime(k1)
        out = ctx.produce_dead(k1, solver, ())
        assert out.inconsistent


class TestConsumers:
    def test_consume_partial_fraction(self, solver):
        ctx = LifetimeCtx().new_lifetime(k1)
        out = ctx.consume_alive(k1, q("1/4"), solver, ())
        assert out.ctx is not None
        held = out.ctx.held_fraction(k1, solver, ())
        assert solver.entails([], eq(held, q("3/4")))

    def test_consume_full_removes_entry(self, solver):
        ctx = LifetimeCtx().new_lifetime(k1)
        out = ctx.consume_alive(k1, q(1), solver, ())
        assert out.ctx is not None
        assert out.ctx.held_fraction(k1, solver, ()) is None

    def test_consume_too_much_fails(self, solver):
        ctx = LifetimeCtx().new_lifetime(k1)
        ctx = ctx.consume_alive(k1, q("1/2"), solver, ()).ctx
        out = ctx.consume_alive(k1, q("3/4"), solver, ())
        assert out.ctx is None

    def test_consume_unknown_lifetime_fails(self, solver):
        out = LifetimeCtx().consume_alive(k1, q(1), solver, ())
        assert out.ctx is None

    def test_consume_dead_persistent(self, solver):
        # Lft-Consume-Exp leaves the context unchanged.
        ctx = LifetimeCtx().produce_dead(k1, solver, ()).ctx
        out = ctx.consume_dead(k1, solver, ())
        assert out.ctx is not None
        out2 = out.ctx.consume_dead(k1, solver, ())
        assert out2.ctx is not None

    def test_consume_any_halves(self, solver):
        ctx = LifetimeCtx().new_lifetime(k1)
        out = ctx.consume_alive_any(k1, solver, ())
        assert out.fraction is not None
        held = out.ctx.held_fraction(k1, solver, ())
        assert solver.entails([], eq(held, q("1/2")))

    def test_open_close_churn_restores_token(self, solver):
        # A gunfold/gfold cycle takes half the token and gives it back.
        ctx = LifetimeCtx().new_lifetime(k1)
        for _ in range(100):
            out = ctx.consume_alive_any(k1, solver, ())
            ctx = out.ctx.produce_alive(k1, out.fraction, solver, ()).ctx
        assert solver.entails([], eq(ctx.held_fraction(k1, solver, ()), q(1)))

    def test_nested_opens_always_possible(self, solver):
        # consume_alive_any never exhausts the token.
        ctx = LifetimeCtx().new_lifetime(k1)
        for _ in range(5):
            out = ctx.consume_alive_any(k1, solver, ())
            assert out.ctx is not None
            ctx = out.ctx
        assert ctx.is_alive(k1, solver, ())


class TestEquality:
    def test_resolution_through_pc(self, solver):
        # Lifetimes compared up to path-condition equality.
        ctx = LifetimeCtx().new_lifetime(k1)
        pc = (eq(k1, k2),)
        out = ctx.consume_alive(k2, q("1/2"), solver, pc)
        assert out.ctx is not None

    def test_distinct_lifetimes_independent(self, solver):
        ctx = LifetimeCtx().new_lifetime(k1)
        ctx = ctx.new_lifetime(k2)
        ctx = ctx.end_lifetime(k1, solver, ()).ctx
        assert not ctx.is_alive(k1, solver, ())
        assert ctx.is_alive(k2, solver, ())

"""Unit tests for the tactics layer: unfold/fold, gunfold/gfold,
closing tokens, repair heuristics (§4.2)."""

import pytest

from repro import obs
from repro.core.borrows import BorrowInstance
from repro.core.state import RustState, RustStateModel
from repro.gillian.matcher import (
    TacticError,
    close_all_borrows,
    fold,
    gfold,
    gunfold,
    unfold,
    unfold_to_prove,
)
from repro.gillian.produce import produce
from repro.gilsonite.ast import (
    Exists,
    Mode,
    Param,
    PointsTo,
    Pred,
    PredicateDef,
    PredInstance,
    Pure,
    star,
)
from repro.lang.mir import Program
from repro.lang.types import U64
from repro.solver import Solver
from repro.solver.sorts import INT, LFT, LOC
from repro.solver.terms import (
    Var,
    add,
    eq,
    fresh_var,
    intlit,
    le,
    lt,
    reallit,
)


@pytest.fixture()
def model():
    program = Program()
    p = Var("p", LOC)
    s = Var("s", INT)
    v = Var("v", INT)
    program.predicates["cell"] = PredicateDef(
        name="cell",
        params=(Param(p, Mode.IN), Param(s, Mode.OUT)),
        disjuncts=(
            Exists(
                (v,),
                star(
                    PointsTo(p, U64, v),
                    Pure(le(intlit(0), v)),  # the u64 validity invariant
                    Pure(eq(s, add(v, intlit(1)))),
                ),
            ),
        ),
    )
    kappa = Var("κ", LFT)
    x = Var("x", INT)
    program.predicates["guarded_cell"] = PredicateDef(
        name="guarded_cell",
        params=(Param(kappa, Mode.IN), Param(p, Mode.IN)),
        disjuncts=(
            Exists((v,), star(PointsTo(p, U64, v), Pure(le(intlit(0), v)))),
        ),
        guard="κ",
    )
    program.predicates["abstract_one"] = PredicateDef(
        name="abstract_one",
        params=(Param(p, Mode.IN),),
        abstract=True,
    )
    return RustStateModel(program, Solver())


def loc(name):
    return Var(name, LOC)


class TestUnfoldFold:
    def test_roundtrip(self, model):
        p = loc("p1")
        [s0] = produce(model, RustState(), PointsTo(p, U64, intlit(4)))
        [s1] = fold(model, s0, "cell", {0: p})
        assert s1.preds and s1.preds[0].name == "cell"
        assert model.solver.entails([], eq(s1.preds[0].args[1], intlit(5)))
        [s2] = unfold(model, s1, s1.preds[0])
        assert not s2.preds
        ctx = model.heap_ctx(s2)
        [ld] = [o for o in s2.heap.load(p, U64, ctx) if o.error is None]
        assert model.solver.entails(s2.pc, eq(ld.value, intlit(4)))

    def test_unfold_abstract_rejected(self, model):
        s = RustState().add_pred(PredInstance("abstract_one", (loc("p2"),)))
        with pytest.raises(TacticError):
            unfold(model, s, s.preds[0])

    def test_fold_without_resource_fails(self, model):
        with pytest.raises(TacticError):
            fold(model, RustState(), "cell", {0: loc("p3")})

    def test_stats_counted(self, model):
        p = loc("p4")
        [s0] = produce(model, RustState(), PointsTo(p, U64, intlit(4)))
        with obs.window() as seen:
            [s1] = fold(model, s0, "cell", {0: p})
            unfold(model, s1, s1.preds[0])
        counters = seen.delta["counters"]
        assert counters.get("tactic.folds") == 1
        assert counters.get("tactic.unfolds") == 1


class TestGuarded:
    def _opened(self, model):
        kappa = fresh_var("κ", LFT)
        p = loc("p5")
        state = RustState(lifetimes=RustState().lifetimes.new_lifetime(kappa))
        borrow = BorrowInstance("guarded_cell", kappa, (p,))
        state = state.__class__(
            heap=state.heap,
            lifetimes=state.lifetimes,
            borrows=state.borrows.add_borrow(borrow),
            preds=state.preds,
            obs=state.obs,
            proph=state.proph,
            pc=state.pc,
        )
        return model, state, borrow, kappa, p

    def test_gunfold_trades_token_for_contents(self, model):
        model, state, borrow, kappa, p = self._opened(model)
        opened = gunfold(model, state, borrow)
        assert opened
        s = opened[0]
        # The borrow is gone, a closing token holds its place.
        assert not s.borrows.borrows
        assert s.borrows.tokens
        # The contents are available.
        ctx = model.heap_ctx(s)
        assert any(o.error is None for o in s.heap.load(p, U64, ctx))
        # Half the token was consumed.
        held = s.lifetimes.held_fraction(kappa, model.solver, s.pc)
        assert model.solver.entails([], eq(held, reallit("1/2")))

    def test_gfold_restores_everything(self, model):
        model, state, borrow, kappa, p = self._opened(model)
        [opened] = gunfold(model, state, borrow)
        [closed] = gfold(model, opened, opened.borrows.tokens[0])
        assert closed.borrows.borrows
        assert not closed.borrows.tokens
        held = closed.lifetimes.held_fraction(kappa, model.solver, closed.pc)
        assert model.solver.entails([], eq(held, reallit(1)))

    def test_gfold_fails_if_invariant_broken(self, model):
        model, state, borrow, kappa, p = self._opened(model)
        [opened] = gunfold(model, state, borrow)
        # Break the invariant: write a negative... u64 can't be negative;
        # instead consume the cell away so it cannot be re-established.
        ctx = model.heap_ctx(opened)
        [gone] = [
            o for o in opened.heap.consume_points_to(p, U64, ctx) if o.error is None
        ]
        import dataclasses

        broken = dataclasses.replace(opened, heap=gone.heap)
        with pytest.raises(TacticError):
            gfold(model, broken, broken.borrows.tokens[0])

    def test_gunfold_without_token_fails(self, model):
        kappa = fresh_var("κdead", LFT)
        p = loc("p6")
        borrow = BorrowInstance("guarded_cell", kappa, (p,))
        state = RustState(borrows=RustState().borrows.add_borrow(borrow))
        with pytest.raises(TacticError):
            gunfold(model, state, borrow)

    def test_close_all_borrows(self, model):
        model, state, borrow, kappa, p = self._opened(model)
        [opened] = gunfold(model, state, borrow)
        closed = close_all_borrows(model, opened)
        assert closed.borrows.borrows
        assert not closed.borrows.tokens


class TestUnfoldToProve:
    def test_exposes_locked_fact(self, model):
        # Produce the predicate folded with an *opaque* out-argument:
        # the fact s = v + 1 (hence s >= 1) lives only in the definition.
        p = loc("p7")
        s_var = Var("s_opaque", INT)
        [s1] = produce(model, RustState(), Pred("cell", (p, s_var)))
        goal = le(intlit(1), s_var)
        assert not model.solver.entails(s1.pc, goal)
        proven = unfold_to_prove(model, s1, goal)
        assert proven is not None
        assert model.solver.entails(proven.pc, goal)

    def test_gives_up_gracefully(self, model):
        assert unfold_to_prove(model, RustState(), eq(intlit(0), intlit(1))) is None

"""The consumer asks the solver before it unfolds for a pure part (§4.2).

A ready ``Pure`` part that the path condition does not entail may be
locked inside a held predicate, so the consumer unfolds held
predicates to expose it. Unfolding only adds facts: a part that the
path condition already refutes can be proved after an unfold only on
an infeasible state. So such a part fails at once, with no unfold,
while a part that is merely not yet entailed still unfolds.
"""

import pytest

import repro.rustlib.linked_list as ll
from repro import obs
from repro.core.state import RustState, RustStateModel
from repro.gillian.consume import ConsumeFailure, consume
from repro.gilsonite.ast import PredInstance, Pure
from repro.gilsonite.ownable import own_pred_name
from repro.solver import Solver
from repro.solver.terms import eq, fresh_var, intlit, seq_len, tuple_get


@pytest.fixture(scope="module")
def program():
    program, _ = ll.build_program()
    return program


def _holding_list(program):
    """A state holding a folded ⌊LinkedList⌋ (``own:LinkedList<T>``),
    with its ``self`` and ``repr`` arguments."""
    name = own_pred_name(ll.LIST)
    kappa, self_v, repr_v = (
        fresh_var("t", p.var.sort) for p in program.predicates[name].params
    )
    state = RustState().add_pred(PredInstance(name, (kappa, self_v, repr_v)))
    return state, self_v, repr_v


def _unfolds(seen) -> int:
    return seen.delta["counters"].get("tactic.unfolds", 0)


def test_refuted_pure_part_fails_without_unfolding(program):
    model = RustStateModel(program, Solver())
    state, self_v, _ = _holding_list(program)
    state = state.assume((eq(tuple_get(self_v, ll.LEN), intlit(3)),))
    with obs.window() as seen:
        with pytest.raises(ConsumeFailure):
            consume(model, state, Pure(eq(tuple_get(self_v, ll.LEN), intlit(4))))
    assert _unfolds(seen) == 0


def test_locked_pure_part_still_unfolds(program):
    """``len = |repr|`` is satisfiable but not entailed: it is exposed
    by unfolding the held ⌊LinkedList⌋."""
    model = RustStateModel(program, Solver())
    state, self_v, repr_v = _holding_list(program)
    fact = eq(tuple_get(self_v, ll.LEN), seq_len(repr_v))
    assert not model.solver.entails(state.pc, fact)
    with obs.window() as seen:
        matches = consume(model, state, Pure(fact))
    assert matches
    assert _unfolds(seen) == 1

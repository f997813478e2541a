"""Assertion-level production (§2.3).

``produce`` extends the core-predicate producers of the state model to
whole assertions: separating conjunctions thread the state, pure
formulas extend the path condition, existentials introduce fresh
symbolic variables. Production can *branch* (the heap may need to
case-split) and can *vanish* (producing ``[κ]_q`` over ``[†κ]``
assumes False) — vanished branches are simply dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.state import ModelOutcome, RustState, RustStateModel
from repro.gilsonite.ast import Assertion, Emp, Exists, Pure, Star
from repro.obs.metrics import metrics
from repro.solver.core import Status
from repro.solver.terms import Term, fresh_var


class ProduceError(Exception):
    """Production failed outright (malformed spec, duplicated resource)."""


@dataclass
class ProduceResult:
    states: list[RustState]
    errors: list[str]


def produce(
    model: RustStateModel, state: RustState, assertion: Assertion
) -> list[RustState]:
    """Produce ``assertion`` into ``state``; returns feasible branches.

    Raises :class:`ProduceError` if every branch failed with a genuine
    error (as opposed to vanishing).
    """
    metrics.inc("gillian.produces")
    result = _produce(model, state, assertion)
    if not result.states and result.errors:
        raise ProduceError("; ".join(result.errors[:3]))
    return result.states


def _produce(
    model: RustStateModel, state: RustState, assertion: Assertion
) -> ProduceResult:
    if isinstance(assertion, Emp):
        return ProduceResult([state], [])
    if isinstance(assertion, Star):
        states = [state]
        errors: list[str] = []
        for part in assertion.parts:
            next_states: list[RustState] = []
            for s in states:
                sub = _produce(model, s, part)
                next_states.extend(sub.states)
                errors.extend(sub.errors)
            states = next_states
            if not states:
                break
        return ProduceResult(states, errors)
    if isinstance(assertion, Exists):
        mapping: dict[Term, Term] = {
            v: fresh_var(v.name, v.sort) for v in assertion.vars
        }
        return _produce(model, state, assertion.body.subst(mapping))
    if isinstance(assertion, Pure):
        new = state.assume((assertion.formula,))
        if model.solver.check_sat(new.pc) == Status.UNSAT:
            return ProduceResult([], [])  # vanish, not an error
        return ProduceResult([new], [])
    # Core predicate.
    states: list[RustState] = []
    errors: list[str] = []
    for out in model.produce_core(state, assertion):
        if out.inconsistent:
            continue
        if out.error is not None:
            errors.append(f"{assertion}: {out.error}")
            continue
        assert out.state is not None
        if model.feasible(out.state):
            states.append(out.state)
    return ProduceResult(states, errors)

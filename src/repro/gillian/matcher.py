"""Fold/unfold automation, guarded predicates and repair heuristics (§4.2).

This module implements the ghost commands and the automation that makes
Gillian-Rust *semi*-automated rather than manual:

* ``unfold`` / ``fold``   — classic predicate manipulation;
* ``gunfold`` / ``gfold`` — their guarded counterparts: opening a full
  borrow consumes a lifetime-token fraction and produces a closing
  token; closing re-establishes the invariant and recovers the token
  (the encoding of LftL-borrow-acc, §4.2). ``gfold`` automatically
  applies MUT-AUTO-UPDATE to prophecy controllers inside the borrow so
  that the invariant can close after mutation (§5.3);
* ``repair`` — when a memory access finds no resource, try unfolding
  folded predicates and opening borrows until it is available. This is
  the heuristic layer that lets `pop_front_node` and `push_front_node`
  verify "completely automatically once the safety invariants have
  been specified" (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.core.borrows import BorrowInstance, ClosingToken
from repro.core.state import ModelOutcome, RustState, RustStateModel
from repro.gilsonite.ast import (
    Assertion,
    Borrow,
    Closing,
    Exists,
    Pred,
    PredInstance,
    PredicateDef,
    ProphCtrl,
    Pure,
    Star,
    star,
)
from repro.gillian.consume import ConsumeFailure, Match, consume
from repro.gillian.produce import ProduceError, produce
from repro.obs.metrics import metrics
from repro.solver.terms import Term, Var, eq, fresh_var, substitute

MAX_REPAIR_DEPTH = 6


class TacticError(Exception):
    pass


@dataclass
class TacticStats:
    """Counts of automation steps (the E9 ablation pins them)."""

    unfolds: int = 0
    folds: int = 0
    gunfolds: int = 0
    gfolds: int = 0
    repairs: int = 0
    auto_updates: int = 0

    def total(self) -> int:
        return (
            self.unfolds + self.folds + self.gunfolds + self.gfolds + self.repairs
        )


# ---------------------------------------------------------------------------
# unfold / fold
# ---------------------------------------------------------------------------


def unfold(
    model: RustStateModel,
    state: RustState,
    inst: PredInstance,
    stats: Optional[TacticStats] = None,
) -> list[RustState]:
    """Replace a folded predicate by its definition (all feasible disjuncts)."""
    pdef = model.program.predicates.get(inst.name)
    if pdef is None:
        raise TacticError(f"unknown predicate {inst.name}")
    if pdef.abstract:
        raise TacticError(f"predicate {inst.name} is abstract")
    metrics.inc("tactic.unfolds")
    if stats:
        stats.unfolds += 1
    base = state.remove_pred(inst)
    out: list[RustState] = []
    for body in pdef.instantiate(inst.args):
        try:
            out.extend(produce(model, base, body))
        except ProduceError:
            continue
    return out


def fold(
    model: RustStateModel,
    state: RustState,
    name: str,
    in_args: dict[int, Term],
    stats: Optional[TacticStats] = None,
) -> list[RustState]:
    """Consume one disjunct of the definition; add the folded instance.

    ``in_args`` maps parameter positions to ground terms; the remaining
    (out) positions are learned from the definition body.
    """
    pdef = model.program.predicates.get(name)
    if pdef is None:
        raise TacticError(f"unknown predicate {name}")
    metrics.inc("tactic.folds")
    if stats:
        stats.folds += 1
    args: list[Term] = []
    learns: list[Var] = []
    for i, p in enumerate(pdef.params):
        if i in in_args:
            args.append(in_args[i])
        else:
            v = fresh_var(f"fold_{name}_{p.var.name}", p.var.sort)
            args.append(v)
            learns.append(v)
    try:
        matches = consume(
            model, state, Pred(name, tuple(args)), {}, set(learns)
        )
    except ConsumeFailure as e:
        raise TacticError(f"fold {name}: {e}") from None
    out = []
    for m in matches:
        final_args = tuple(substitute(a, dict(m.bindings)) for a in args)
        out.append(m.state.add_pred(PredInstance(name, final_args)))
    return out


# ---------------------------------------------------------------------------
# gunfold / gfold
# ---------------------------------------------------------------------------


class _AutoUpdateModel(RustStateModel):
    """State model wrapper whose ProphCtrl consumer first applies
    MUT-UPDATE, choosing the value that lets the borrow close (§5.3)."""

    def __init__(self, inner: RustStateModel, stats: Optional[TacticStats]):
        super().__init__(inner.program, inner.solver)
        self._stats = stats

    def consume_core(self, state: RustState, a: Assertion):
        if isinstance(a, ProphCtrl) and isinstance(a.proph, Var):
            entry = state.proph.entries.get(a.proph)
            if entry is not None and entry.vo and entry.pc_:
                upd = state.proph.update(a.proph, a.value)
                if upd.ctx is not None:
                    metrics.inc("tactic.auto_updates")
                    if self._stats:
                        self._stats.auto_updates += 1
                    state = replace(state, proph=upd.ctx)
        return super().consume_core(state, a)


def gunfold(
    model: RustStateModel,
    state: RustState,
    borrow: BorrowInstance,
    stats: Optional[TacticStats] = None,
) -> list[RustState]:
    """Open a full borrow (Unfold-Guarded, §4.2): consume a token
    fraction, produce the definition and a closing token."""
    pdef = model.program.predicates.get(borrow.pred)
    if pdef is None:
        raise TacticError(f"unknown guarded predicate {borrow.pred}")
    if pdef.guard is None:
        raise TacticError(f"{borrow.pred} is not a guarded predicate")
    tok_out = state.lifetimes.consume_alive_any(
        borrow.lifetime, model.solver, state.pc
    )
    if tok_out.ctx is None:
        raise TacticError(f"gunfold: {tok_out.error}")
    metrics.inc("tactic.gunfolds")
    if stats:
        stats.gunfolds += 1
    opened = replace(state, lifetimes=tok_out.ctx)
    opened = replace(opened, borrows=opened.borrows.remove_borrow(borrow))
    token = ClosingToken(borrow.pred, borrow.lifetime, tok_out.fraction, borrow.args)
    opened = replace(opened, borrows=opened.borrows.add_token(token))
    results: list[RustState] = []
    for body in _instantiate_guarded(pdef, borrow.lifetime, borrow.args):
        try:
            results.extend(produce(model, opened, body))
        except ProduceError:
            continue
    if not results:
        raise TacticError(f"gunfold {borrow.pred}: definition production failed")
    return results


def gfold(
    model: RustStateModel,
    state: RustState,
    token: ClosingToken,
    stats: Optional[TacticStats] = None,
) -> list[RustState]:
    """Close a borrow: consume the (re-established) definition and the
    closing token; recover the borrow and the token fraction."""
    pdef = model.program.predicates.get(token.pred)
    if pdef is None:
        raise TacticError(f"unknown guarded predicate {token.pred}")
    auto = _AutoUpdateModel(model, stats)
    last_error: Optional[str] = None
    for body in _instantiate_guarded(pdef, token.lifetime, token.args):
        try:
            matches = consume(auto, state, body, {}, set())
        except ConsumeFailure as e:
            last_error = str(e)
            continue
        out: list[RustState] = []
        for m in matches:
            s = m.state
            s = replace(s, borrows=s.borrows.remove_token(token))
            s = replace(
                s,
                borrows=s.borrows.add_borrow(
                    BorrowInstance(token.pred, token.lifetime, token.args)
                ),
            )
            lft = s.lifetimes.produce_alive(
                token.lifetime, token.fraction, model.solver, s.pc
            )
            if lft.inconsistent or lft.ctx is None:
                continue
            out.append(replace(s, lifetimes=lft.ctx).assume(lft.facts))
        if out:
            metrics.inc("tactic.gfolds")
            if stats:
                stats.gfolds += 1
            return out
    raise TacticError(f"gfold {token.pred}: cannot re-establish invariant ({last_error})")


def _instantiate_guarded(
    pdef: PredicateDef, lifetime: Term, args: tuple[Term, ...]
) -> list[Assertion]:
    """Instantiate a guarded predicate: guard param := lifetime, the
    rest from ``args`` in order."""
    full_args: list[Term] = []
    ai = iter(args)
    for p in pdef.params:
        if pdef.guard is not None and p.var.name == pdef.guard:
            full_args.append(lifetime)
        else:
            full_args.append(next(ai))
    return pdef.instantiate(full_args)


def close_all_borrows(
    model: RustStateModel,
    state: RustState,
    stats: Optional[TacticStats] = None,
) -> RustState:
    """End-of-function tactic: try to gfold every outstanding closing
    token (repeat until no progress). Failures are left in place — the
    postcondition consumption will then report the real shortfall."""
    progress = True
    while progress:
        progress = False
        for token in state.borrows.tokens:
            try:
                closed = gfold(model, state, token, stats)
            except TacticError:
                continue
            if closed:
                state = closed[0]
                progress = True
                break
    return state


def unfold_to_prove(
    model: RustStateModel,
    state: RustState,
    goal: Term,
    stats: Optional[TacticStats] = None,
    depth: int = 3,
) -> Optional[RustState]:
    """Prove a pure obligation by unfolding folded predicates whose
    invariants carry the needed facts (e.g. ``len = |repr|`` inside
    ⌊LinkedList⌋ for overflow checks, §7.3). Only single-feasible-
    branch unfoldings are applied, so the transformation is sound to
    keep in the execution state."""
    if model.solver.entails(state.pc, goal):
        return state
    if depth <= 0:
        return None
    for inst in state.preds:
        pdef = model.program.predicates.get(inst.name)
        if pdef is None or pdef.abstract or not pdef.disjuncts:
            continue
        try:
            opened = unfold(model, state, inst, stats)
        except TacticError:
            continue
        feasible = [s for s in opened if model.feasible(s)]
        if len(feasible) != 1:
            continue
        found = unfold_to_prove(model, feasible[0], goal, stats, depth - 1)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Repair: the missing-resource heuristic
# ---------------------------------------------------------------------------


def repair_candidates(state: RustState, model: RustStateModel):
    """Things we could open to expose more resource."""
    for inst in state.preds:
        pdef = model.program.predicates.get(inst.name)
        if pdef is not None and not pdef.abstract and pdef.disjuncts:
            yield ("unfold", inst)
    for borrow in state.borrows.borrows:
        yield ("gunfold", borrow)


def with_repair(
    model: RustStateModel,
    state: RustState,
    op: Callable[[RustState], list],
    stats: Optional[TacticStats] = None,
    depth: int = 0,
):
    """Run a state operation; on missing-resource failure, unfold or
    open borrows and retry (bounded depth-first search).

    Soundness note: unfolding splits a state into branches whose union
    covers it, so once a repair candidate is chosen, *every* feasible
    branch it creates flows into the result — a branch where the
    operation still fails keeps its error and fails verification.
    A candidate only counts as successful if all its branches succeed;
    otherwise the next candidate is tried.
    """
    outcomes = op(state)
    good = [o for o in outcomes if o.error is None]
    if good:
        return outcomes
    soft = [
        o
        for o in outcomes
        if o.error is not None and "missing" in str(o.error)
    ]
    if not soft:
        return outcomes  # genuine UB everywhere: do not try to repair
    if depth >= MAX_REPAIR_DEPTH:
        return outcomes
    best: Optional[list] = None
    for kind, target in repair_candidates(state, model):
        try:
            if kind == "unfold":
                opened_states = unfold(model, state, target, stats)
            else:
                opened_states = gunfold(model, state, target, stats)
        except TacticError:
            continue
        metrics.inc("tactic.repairs")
        if stats:
            stats.repairs += 1
        feasible = [s for s in opened_states if model.feasible(s)]
        if not feasible:
            continue
        combined: list = []
        all_branches_ok = True
        for s in feasible:
            sub = with_repair(model, s, op, stats, depth + 1)
            if not any(o.error is None for o in sub):
                all_branches_ok = False
            combined.extend(sub)
        if all_branches_ok and combined:
            return combined
        if best is None and combined:
            best = combined
    # No candidate fixed every branch; report the most informative
    # attempt (or the original failure).
    return best if best is not None else outcomes

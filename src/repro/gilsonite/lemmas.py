"""Ghost lemmas: existential freezing and borrow extraction (§4.3).

``front_mut`` needs two manually-declared but automatically-proven
lemmas (§6):

* an **existential freezing** lemma, which converts the borrow
  ``&^κ mutref_inv:LinkedList<T>(p, x)`` into
  ``&^κ ll_frozen(p, x, head, tail, len)`` — the struct's existential
  fields become borrow *parameters*, so reopening the borrow later
  recovers the same values;
* a **borrow extraction** lemma (the BORROW-EXTRACT rule): under the
  persistent fact ``head = Some(h')``, exchange the frozen list borrow
  for a borrow of its first element,
  ``&^κ mutref_inv:T(&mut (*h').element, x_elem)``.

Following the paper's architecture, each lemma has a *trusted
conclusion* (proven in Iris against RustBelt — Fig. 8) and a
*hypothesis* that Gillian-Rust proves automatically: here the
hypothesis proof is the consume run over the borrow's unfolded body
(``F * P ⇒ Q * (Q -* P)``); if it fails, lemma application fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.borrows import BorrowInstance
from repro.core.state import RustState, RustStateModel
from repro.gilsonite.ast import (
    Assertion,
    Mode,
    Param,
    PointsTo,
    Pred,
    PredInstance,
    PredicateDef,
    ProphCtrl,
    Pure,
    star,
)
from repro.gillian.consume import ConsumeFailure, Match, consume
from repro.gillian.matcher import TacticError, gfold, gunfold, unfold
from repro.solver.core import Solver
from repro.solver.sorts import LFT, LOC, Sort
from repro.solver.terms import (
    Term,
    Var,
    eq,
    fresh_var,
    is_some,
    seq_len,
    some_val,
    substitute,
)


class Lemma:
    """Base class for ghost lemmas applied via ``ApplyLemma``."""

    name: str

    def synthesised_predicates(self) -> tuple[str, ...]:
        """The predicates :meth:`apply` defines on first use. They are
        functions of the lemma alone, so the store's logic digest
        hashes the lemma and leaves them out."""
        return ()

    def apply(
        self,
        model: RustStateModel,
        state: RustState,
        args: Sequence[Term],
    ) -> list[RustState]:
        raise NotImplementedError


def _find_borrow_by_arg0(
    state: RustState, pred: str, ptr: Term, solver: Solver
) -> Optional[BorrowInstance]:
    for b in state.borrows.borrows:
        if b.pred == pred and b.args and solver.entails(state.pc, eq(b.args[0], ptr)):
            return b
    return None


def _ensure_borrow_available(
    model: RustStateModel,
    state: RustState,
    pred: str,
    ptr: Term,
    own_pred: Optional[str],
) -> tuple[RustState, Optional[BorrowInstance]]:
    """Locate the borrow; if it is still folded inside an own predicate
    unfold that first, and if it is currently *open* close it."""
    b = _find_borrow_by_arg0(state, pred, ptr, model.solver)
    if b is not None:
        return state, b
    # Maybe still inside a folded own:&mut predicate.
    if own_pred is not None:
        for inst in state.preds:
            if inst.name == own_pred and len(inst.args) >= 2 and model.solver.entails(
                state.pc, eq(inst.args[1], ptr)
            ):
                for s in unfold(model, state, inst):
                    if not model.feasible(s):
                        continue
                    b = _find_borrow_by_arg0(s, pred, ptr, model.solver)
                    if b is not None:
                        return s, b
                break
    # Maybe open: close it first.
    for tok in state.borrows.tokens:
        if tok.pred == pred and tok.args and model.solver.entails(
            state.pc, eq(tok.args[0], ptr)
        ):
            try:
                closed = gfold(model, state, tok)
            except TacticError:
                return state, None
            for s in closed:
                b = _find_borrow_by_arg0(s, pred, ptr, model.solver)
                if b is not None:
                    return s, b
    return state, None


@dataclass
class FreezeLinkedListLemma(Lemma):
    """Existential freezing for ``&mut LinkedList<T>`` (§4.3 fn. 8)."""

    mutref_inv: str  # mutref_inv:LinkedList<T>
    own_mutref: str  # own:&'a mut LinkedList<T>
    frozen_pred: str  # ll_frozen
    list_ty: object  # LinkedList<T>
    dll_seg: str
    elem_repr: Sort
    name: str = "freeze_linked_list"

    def synthesised_predicates(self) -> tuple[str, ...]:
        return (self.frozen_pred,)

    def ensure_frozen_def(self, model: RustStateModel) -> None:
        if self.frozen_pred in model.program.predicates:
            return
        from repro.solver.sorts import INT, OptionSort, SeqSort

        kappa = Var("κ", LFT)
        p = Var("p", LOC)
        x = Var("x", SeqSort(self.elem_repr))
        h = Var("h", OptionSort(LOC))
        t = Var("t", OptionSort(LOC))
        length = Var("l", INT)
        r = Var("r", SeqSort(self.elem_repr))
        from repro.gilsonite.ast import Exists
        from repro.solver.terms import none, tuple_mk

        body = Exists(
            (r,),
            star(
                PointsTo(p, self.list_ty, tuple_mk(h, t, length)),
                Pred(self.dll_seg, (kappa, h, none(LOC), t, none(LOC), r)),
                Pure(eq(length, seq_len(r))),
                ProphCtrl(x, r),
            ),
        )
        model.program.predicates[self.frozen_pred] = PredicateDef(
            name=self.frozen_pred,
            params=(
                Param(kappa, Mode.IN),
                Param(p, Mode.IN),
                Param(x, Mode.IN),
                Param(h, Mode.IN),
                Param(t, Mode.IN),
                Param(length, Mode.IN),
            ),
            disjuncts=(body,),
            guard="κ",
        )

    def apply(self, model, state, args):
        (self_ptr,) = args
        self.ensure_frozen_def(model)
        state, borrow = _ensure_borrow_available(
            model, state, self.mutref_inv, self_ptr, self.own_mutref
        )
        if borrow is None:
            raise TacticError(f"{self.name}: no list borrow for {self_ptr}")
        x = borrow.args[1]
        results: list[RustState] = []
        for opened in gunfold(model, state, borrow):
            if not model.feasible(opened):
                continue
            token = opened.borrows.find_token(
                self.mutref_inv, borrow.lifetime, model.solver, opened.pc
            )
            # Hypothesis proof: the open body entails the frozen body
            # for *some* h, t, l — learned by consumption.
            from repro.solver.sorts import INT, OptionSort, SeqSort
            from repro.solver.terms import none, tuple_mk

            h = fresh_var("frz_h", OptionSort(LOC))
            t = fresh_var("frz_t", OptionSort(LOC))
            length = fresh_var("frz_l", INT)
            r = fresh_var("frz_r", SeqSort(self.elem_repr))
            body = star(
                PointsTo(self_ptr, self.list_ty, tuple_mk(h, t, length)),
                Pred(self.dll_seg, (borrow.lifetime, h, none(LOC), t, none(LOC), r)),
                Pure(eq(length, seq_len(r))),
                ProphCtrl(x, r),
            )
            try:
                matches = consume(model, opened, body, {}, {h, t, length, r})
            except ConsumeFailure as e:
                raise TacticError(f"{self.name}: hypothesis failed: {e}") from None
            for m in matches:
                s = m.state
                if token is not None:
                    s = replace(s, borrows=s.borrows.remove_token(token))
                    lft = s.lifetimes.produce_alive(
                        borrow.lifetime, token.fraction, model.solver, s.pc
                    )
                    if lft.inconsistent or lft.ctx is None:
                        continue
                    s = replace(s, lifetimes=lft.ctx).assume(lft.facts)
                frozen_args = (
                    self_ptr,
                    x,
                    substitute(h, m.bindings),
                    substitute(t, m.bindings),
                    substitute(length, m.bindings),
                )
                s = replace(
                    s,
                    borrows=s.borrows.add_borrow(
                        BorrowInstance(self.frozen_pred, borrow.lifetime, frozen_args)
                    ),
                )
                results.append(s)
        if not results:
            raise TacticError(f"{self.name}: no feasible application")
        return results


@dataclass
class ExtractHeadElementLemma(Lemma):
    """BORROW-EXTRACT for the first element of a frozen list borrow.

    ``F = (head = Some(h'))`` is the persistent fact required by the
    rule; the hypothesis ``F * P ⇒ Q * (Q -* P)`` is proven on a
    scratch fork by consuming Q out of P's unfolded body."""

    frozen_pred: str
    node_ty: object  # Node<T>
    elem_ty: object  # T
    elem_own: str  # own:T
    mutref_inv_elem: str  # mutref_inv:T
    elem_repr: Sort
    name: str = "extract_head_element"

    def apply(self, model, state, args):
        (self_ptr,) = args
        state, borrow = _ensure_borrow_available(
            model, state, self.frozen_pred, self_ptr, None
        )
        if borrow is None:
            raise TacticError(f"{self.name}: no frozen list borrow for {self_ptr}")
        _, x, h, t, length = borrow.args
        # Persistent fact F: the list is non-empty.
        if not model.solver.entails(state.pc, is_some(h)):
            raise TacticError(f"{self.name}: cannot show head != None (F)")
        from repro.core.address import ptr_field

        elem_ptr = ptr_field(some_val(h), self.node_ty, 0)
        # Hypothesis proof on a scratch fork: open P, consume Q.
        v = fresh_var("xt_v", None) if False else None
        scratch_ok = False
        elem_repr_val: Optional[Term] = None
        for opened in gunfold(model, state, borrow):
            if not model.feasible(opened):
                continue
            from repro.core.heap.values import ty_to_sort

            v_e = fresh_var("xt_v", ty_to_sort(self.elem_ty, model.program.registry))
            a_e = fresh_var("xt_a", self.elem_repr)
            q_body = star(
                PointsTo(elem_ptr, self.elem_ty, v_e),
                Pred(self.elem_own, (borrow.lifetime, v_e, a_e)),
            )
            try:
                matches = consume(model, opened, q_body, {}, {v_e, a_e})
            except ConsumeFailure:
                continue
            if matches:
                scratch_ok = True
                elem_repr_val = matches[0].bindings.get(a_e)
                break
        if not scratch_ok:
            raise TacticError(f"{self.name}: hypothesis F * P ⇒ Q * (Q -* P) failed")
        # Conclusion (trusted, proven in Iris): swap the borrows.
        x_elem = fresh_var("x_elem", self.elem_repr)
        s = replace(state, borrows=state.borrows.remove_borrow(borrow))
        vo = s.proph.produce_vo(x_elem, elem_repr_val)
        if vo.ctx is None:
            raise TacticError(f"{self.name}: {vo.error}")
        s = replace(s, proph=vo.ctx).assume(vo.facts)
        s = replace(
            s,
            borrows=s.borrows.add_borrow(
                BorrowInstance(
                    self.mutref_inv_elem, borrow.lifetime, (elem_ptr, x_elem)
                )
            ),
        )
        return [s]

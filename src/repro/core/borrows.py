"""The guarded predicate context γ: full borrows as foldable predicates (§4.2).

A full borrow ``&^κ P`` is encoded as a *guarded predicate* — a folded
predicate instance annotated with the lifetime whose token is the cost
of unfolding it. ``gunfold`` consumes a fraction of ``[κ]`` and
produces the predicate's definition plus an opaque *closing token*
``C_δ(κ, q, x⃗)`` embodying the closing view shift
``P ⇛ &^κ P * [κ]_q``; ``gfold`` is the inverse.

The orchestration (running consumers/producers of the definition) lives
in the state layer; this module is the γ component itself: which
borrows are currently folded, and which closing tokens are held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.solver.core import Solver
from repro.solver.terms import Term, and_, eq


@dataclass(frozen=True)
class BorrowInstance:
    """``&^κ δ(args)`` — a folded full borrow."""

    pred: str
    lifetime: Term
    args: tuple[Term, ...]

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"&^{self.lifetime} {self.pred}({inner})"


@dataclass(frozen=True)
class ClosingToken:
    """``C_δ(κ, q, x⃗)`` — the obligation/right to close a borrow."""

    pred: str
    lifetime: Term
    fraction: Term
    args: tuple[Term, ...]

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"C_{self.pred}({self.lifetime}, {self.fraction}, [{inner}])"


def _args_match(
    ours: tuple[Term, ...],
    theirs: tuple[Term, ...],
    solver: Solver,
    pc: tuple[Term, ...],
) -> bool:
    if len(ours) != len(theirs):
        return False
    return all(solver.entails(pc, eq(a, b)) for a, b in zip(ours, theirs))


@dataclass(frozen=True)
class GuardedPredCtx:
    borrows: tuple[BorrowInstance, ...] = ()
    tokens: tuple[ClosingToken, ...] = ()

    # -- borrows ------------------------------------------------------------------

    def add_borrow(self, b: BorrowInstance) -> "GuardedPredCtx":
        return GuardedPredCtx(self.borrows + (b,), self.tokens)

    def find_borrow(
        self,
        pred: str,
        lifetime: Term,
        args: tuple[Term, ...],
        solver: Solver,
        pc: tuple[Term, ...],
    ) -> Optional[BorrowInstance]:
        for b in self.borrows:
            if (
                b.pred == pred
                and solver.entails(pc, eq(b.lifetime, lifetime))
                and _args_match(b.args, args, solver, pc)
            ):
                return b
        return None

    def remove_borrow(self, b: BorrowInstance) -> "GuardedPredCtx":
        borrows = list(self.borrows)
        borrows.remove(b)
        return GuardedPredCtx(tuple(borrows), self.tokens)

    def borrows_named(self, pred: str) -> Iterable[BorrowInstance]:
        return (b for b in self.borrows if b.pred == pred)

    # -- closing tokens --------------------------------------------------------------

    def add_token(self, t: ClosingToken) -> "GuardedPredCtx":
        return GuardedPredCtx(self.borrows, self.tokens + (t,))

    def find_token(
        self,
        pred: str,
        lifetime: Term,
        solver: Solver,
        pc: tuple[Term, ...],
    ) -> Optional[ClosingToken]:
        for t in self.tokens:
            if t.pred == pred and solver.entails(pc, eq(t.lifetime, lifetime)):
                return t
        return None

    def remove_token(self, t: ClosingToken) -> "GuardedPredCtx":
        tokens = list(self.tokens)
        tokens.remove(t)
        return GuardedPredCtx(self.borrows, tuple(tokens))

    def __repr__(self) -> str:
        parts = [repr(b) for b in self.borrows] + [repr(t) for t in self.tokens]
        return f"γ{{{'; '.join(parts)}}}"

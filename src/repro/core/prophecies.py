"""The prophecy context χ: value observers and prophecy controllers (§5.3).

χ maps each prophecy variable to ``(current value, VO owned?, PC owned?)``.
The consumer/producer rules (Fig. 11) fully automate MUT-AGREE: when a
value observer is produced into a context already holding the
controller (or vice versa), the equality of their values is *learned*
as a path-condition fact instead of being applied manually.

The MUT-UPDATE rule is exposed as :meth:`ProphecyCtx.update` — the
engine wraps it in the ``prophecy_auto_update`` tactic which picks the
new value automatically so the enclosing borrow can close again.

A prophecy variable is itself a solver variable; its *future* value
``↑x`` is represented by the variable itself (the reader-monad
environment of RustHornBelt corresponds exactly to the symbolic-
variable interpretation — the paper's key insight in §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.solver.core import Solver
from repro.solver.sorts import Sort
from repro.solver.terms import Term, Var, eq, fresh_var


@dataclass(frozen=True)
class ProphEntry:
    value: Term
    vo: bool  # value observer present in this state
    pc_: bool  # prophecy controller present in this state


@dataclass
class ProphOutcome:
    ctx: Optional["ProphecyCtx"]
    facts: tuple[Term, ...] = ()
    error: Optional[str] = None
    value: Optional[Term] = None


def fresh_prophecy(prefix: str, sort: Sort) -> Var:
    """Allocate a fresh prophecy variable of the given repr sort."""
    return fresh_var(f"proph_{prefix}", sort)


@dataclass(frozen=True)
class ProphecyCtx:
    entries: dict[Var, ProphEntry] = field(default_factory=dict)

    def _with(self, x: Var, e: Optional[ProphEntry]) -> "ProphecyCtx":
        d = dict(self.entries)
        if e is None:
            d.pop(x, None)
        else:
            d[x] = e
        return ProphecyCtx(d)

    # -- producers (Fig. 11) -----------------------------------------------------

    def produce_vo(self, x: Var, a: Term) -> ProphOutcome:
        e = self.entries.get(x)
        if e is None:
            # VObs-Produce-Without-Controller.
            return ProphOutcome(self._with(x, ProphEntry(a, vo=True, pc_=False)))
        if e.vo:
            return ProphOutcome(None, error=f"duplicate value observer for {x}")
        # VObs-Produce-With-Controller: learn a = a' (MUT-AGREE).
        return ProphOutcome(
            self._with(x, ProphEntry(e.value, vo=True, pc_=e.pc_)),
            facts=(eq(a, e.value),),
        )

    def produce_pc(self, x: Var, a: Term) -> ProphOutcome:
        e = self.entries.get(x)
        if e is None:
            return ProphOutcome(self._with(x, ProphEntry(a, vo=False, pc_=True)))
        if e.pc_:
            return ProphOutcome(None, error=f"duplicate prophecy controller for {x}")
        return ProphOutcome(
            self._with(x, ProphEntry(e.value, vo=e.vo, pc_=True)),
            facts=(eq(a, e.value),),
        )

    # -- consumers ------------------------------------------------------------------

    def consume_vo(self, x: Var) -> ProphOutcome:
        e = self.entries.get(x)
        if e is None or not e.vo:
            return ProphOutcome(None, error=f"no value observer for {x}")
        new = ProphEntry(e.value, vo=False, pc_=e.pc_)
        return ProphOutcome(
            self._with(x, new if (new.pc_ or True) else None), value=e.value
        )

    def consume_pc(self, x: Var) -> ProphOutcome:
        e = self.entries.get(x)
        if e is None or not e.pc_:
            return ProphOutcome(None, error=f"no prophecy controller for {x}")
        new = ProphEntry(e.value, vo=e.vo, pc_=False)
        return ProphOutcome(self._with(x, new), value=e.value)

    # -- ghost rules --------------------------------------------------------------------

    def update(self, x: Var, new_value: Term) -> ProphOutcome:
        """MUT-UPDATE: with both VO and controller held, retarget the
        prophecy's current value."""
        e = self.entries.get(x)
        if e is None or not (e.vo and e.pc_):
            return ProphOutcome(
                None, error=f"MUT-UPDATE needs both VO and PC for {x}"
            )
        return ProphOutcome(self._with(x, ProphEntry(new_value, e.vo, e.pc_)))

    def resolve(self, x: Var) -> ProphOutcome:
        """PROPH-RESOLVE: equate the future value ``↑x`` (the prophecy
        variable itself) with its current value. Requires the
        controller (the resolver must own the write end)."""
        e = self.entries.get(x)
        if e is None or not e.pc_:
            return ProphOutcome(None, error=f"cannot resolve {x} without controller")
        return ProphOutcome(self, facts=(eq(x, e.value),), value=e.value)

    def __repr__(self) -> str:
        parts = []
        for x, e in self.entries.items():
            owners = "".join(s for s, b in (("VO", e.vo), ("PC", e.pc_)) if b)
            parts.append(f"{x}→{e.value}[{owners}]")
        return f"χ{{{', '.join(parts)}}}"

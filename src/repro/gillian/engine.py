"""Compositional symbolic execution of MIR over RustState (§2.3).

The engine walks a function's CFG, maintaining per-branch
configurations ``(σ, locals)``. Memory accesses go through the
symbolic heap with the repair heuristics of
:mod:`repro.gillian.matcher` (automatic unfold / borrow opening);
calls are resolved compositionally through callee specs; machine
arithmetic carries no-overflow proof obligations; ghost statements
drive the tactics.

Locals whose address is never taken live in a frame (a mapping from
names to terms); address-taken locals are materialised in the heap at
entry, exactly like rustc's MIR treats all locals as memory but
SSA-like analysis recovers registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from repro import faultinject
from repro.core.state import RustState, RustStateModel
from repro.core.address import NULL_PTR, ptr_field, ptr_offset, ptr_variant_field
from repro.gilsonite.ast import Pred
from repro.gillian.matcher import (
    TacticError,
    TacticStats,
    fold,
    unfold,
    with_repair,
)
from repro.lang.mir import (
    AddressOf,
    Aggregate,
    ApplyLemma,
    Assign,
    BinaryOp,
    Body,
    Call,
    Cast,
    Constant,
    Copy,
    DerefProj,
    Discriminant,
    DowncastProj,
    FieldProj,
    Fold,
    Ghost,
    GhostAssert,
    Goto,
    IndexProj,
    Move,
    MutRefAutoResolve,
    Nop,
    Operand,
    Place,
    Program,
    ProphecyAutoUpdate,
    Ref,
    Return,
    Rvalue,
    SwitchInt,
    UnaryOp,
    Unfold,
    Unreachable,
    Use,
)
from repro.lang.types import (
    AdtTy,
    BoolTy,
    IntTy,
    RawPtrTy,
    RefTy,
    Ty,
    UnitTy,
)
from repro.solver.sorts import BOOL as BOOL_SORT
from repro.lang.typing import PlaceTy, operand_ty, place_ty
from repro.solver.core import Status
from repro.solver.terms import (
    TRUE,
    Term,
    add,
    and_,
    boollit,
    div,
    eq,
    fresh_var,
    ge,
    gt,
    intlit,
    is_some,
    ite,
    le,
    lt,
    mod,
    mul,
    neg,
    none,
    not_,
    or_,
    some,
    some_val,
    sub,
    tuple_get,
    tuple_mk,
)


class EngineError(Exception):
    pass


@dataclass
class VerificationIssue:
    """A feasible branch on which verification failed."""

    function: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.function} @ {self.where}: {self.message}"


@dataclass
class StepOut:
    """One branch of a primitive step."""

    state: RustState
    value: Optional[Term] = None
    error: Optional[str] = None


@dataclass
class Config:
    """A symbolic execution configuration."""

    state: RustState
    locals: dict[str, Term]
    pending_resolves: tuple[str, ...] = ()  # locals to prophecy-resolve at return


@dataclass
class Terminal:
    """Result of running a body to Return on one branch."""

    config: Config
    ret: Optional[Term] = None
    issue: Optional[VerificationIssue] = None
    #: The branch ended in a Rust panic (overflow / division by zero).
    #: Panics are safe (no UB) but refute functional specifications.
    panic: bool = False


PANIC = "__panic__"


def borrowed_locals(body: Body) -> set[str]:
    """Locals whose address is taken (must be heap-materialised)."""
    out: set[str] = set()
    for bb in body.blocks.values():
        for st in bb.statements:
            if isinstance(st, Assign) and isinstance(st.rvalue, (Ref, AddressOf)):
                if not st.rvalue.place.projections:
                    out.add(st.rvalue.place.local)
                elif not isinstance(st.rvalue.place.projections[0], DerefProj):
                    out.add(st.rvalue.place.local)
    return out


class Engine:
    def __init__(
        self,
        program: Program,
        model: RustStateModel,
        max_steps: int = 4000,
        stats: Optional[TacticStats] = None,
        auto_repair: bool = True,
        budget=None,
    ) -> None:
        self.program = program
        self.model = model
        self.solver = model.solver
        self.max_steps = max_steps
        self.stats = stats if stats is not None else TacticStats()
        #: The §4.2 heuristics: automatic unfold / borrow opening on
        #: missing resources. Disabled by the E9 ablation, in which
        #: case every unfold must be a manual ghost statement.
        self.auto_repair = auto_repair
        #: Cooperative per-function budget (repro.budget.Budget). Ticked
        #: once per basic-block step; ``max_steps`` above stays the
        #: degrade-to-issue soft cap, the budget is the hard typed stop.
        self.budget = budget

    def _with_repair(self, state: RustState, op):
        if self.auto_repair:
            return with_repair(self.model, state, op, self.stats)
        return op(state)

    # -- entry point --------------------------------------------------------------

    def run_body(self, body: Body, config: Config) -> list[Terminal]:
        """Execute the body from its entry block; heap-materialise
        address-taken locals first."""
        for name in sorted(borrowed_locals(body)):
            ty = body.local_ty(name)
            heap, ptr = config.state.heap.alloc_typed(ty)
            state = replace(config.state, heap=heap)
            if name in config.locals:
                ctx = self.model.heap_ctx(state)
                stored = state.heap.store(ptr, ty, config.locals[name], ctx)
                goods = [o for o in stored if o.error is None]
                if not goods:
                    raise EngineError(f"cannot materialise local {name}")
                state = replace(state, heap=goods[0].heap).assume(goods[0].facts)
            config = Config(state, {**config.locals, name: ptr},
                            config.pending_resolves)
            config.locals[f"{name}@heap"] = TRUE  # marker
        return self._run(body, config, body.entry, 0)

    def _run(
        self, body: Body, config: Config, block: str, steps: int
    ) -> list[Terminal]:
        results: list[Terminal] = []
        worklist: list[tuple[Config, str]] = [(config, block)]
        while worklist:
            cfg, bname = worklist.pop()
            if self.budget is not None:
                self.budget.tick_step(body.name)
            faultinject.fire("engine.step", body.name)
            steps += 1
            if steps > self.max_steps:
                results.append(
                    Terminal(cfg, issue=self._issue(body, bname, "step budget exhausted"))
                )
                continue
            bb = body.blocks[bname]
            branches = [cfg]
            for st in bb.statements:
                next_branches: list[Config] = []
                for c in branches:
                    outs = self.exec_statement(body, c, st)
                    for o in outs:
                        if isinstance(o, Terminal):
                            results.append(o)
                        else:
                            next_branches.append(o)
                branches = next_branches
                if not branches:
                    break
            for c in branches:
                for t in self.exec_terminator(body, c, bb):
                    if isinstance(t, Terminal):
                        results.append(t)
                    else:
                        worklist.append(t)
        return results

    def _issue(self, body: Body, where: str, message: str) -> VerificationIssue:
        return VerificationIssue(body.name, where, message)

    # -- statements -------------------------------------------------------------------

    def exec_statement(self, body: Body, cfg: Config, st) -> list:
        if isinstance(st, Nop):
            return [cfg]
        if isinstance(st, Assign):
            return self._exec_assign(body, cfg, st)
        if isinstance(st, Ghost):
            return self._exec_ghost(body, cfg, st.ghost)
        raise EngineError(f"unknown statement {st}")

    def _exec_assign(self, body: Body, cfg: Config, st: Assign) -> list:
        outs: list = []
        for c, value, err in self._eval_rvalue(body, cfg, st.rvalue):
            if err == PANIC:
                outs.append(Terminal(c, panic=True))
                continue
            if err is not None:
                outs.append(Terminal(c, issue=self._issue(body, str(st), err)))
                continue
            for c2, err2 in self._write_place(body, c, st.place, value):
                if err2 is not None:
                    outs.append(Terminal(c2, issue=self._issue(body, str(st), err2)))
                else:
                    outs.append(c2)
        return outs

    # -- ghost statements -----------------------------------------------------------

    def _exec_ghost(self, body: Body, cfg: Config, g) -> list:
        if isinstance(g, Unfold):
            return self._ghost_unfold(body, cfg, g)
        if isinstance(g, Fold):
            return self._ghost_fold(body, cfg, g)
        if isinstance(g, ApplyLemma):
            return self._ghost_apply_lemma(body, cfg, g)
        if isinstance(g, MutRefAutoResolve):
            # Deferred to Return: resolution must see the final value.
            return [
                Config(
                    cfg.state,
                    cfg.locals,
                    cfg.pending_resolves + (g.place.local,),
                )
            ]
        if isinstance(g, ProphecyAutoUpdate):
            # MUT-AUTO-UPDATE is applied automatically during gfold; the
            # explicit ghost statement is a no-op marker kept for parity
            # with the paper's API.
            return [cfg]
        if isinstance(g, GhostAssert):
            return [cfg]
        raise EngineError(f"unknown ghost statement {g}")

    def _ghost_unfold(self, body: Body, cfg: Config, g: Unfold) -> list:
        for inst in cfg.state.preds:
            if inst.name == g.pred:
                states = unfold(self.model, cfg.state, inst, self.stats)
                return [
                    Config(s, cfg.locals, cfg.pending_resolves)
                    for s in states
                    if self.model.feasible(s)
                ]
        return [
            Terminal(
                cfg, issue=self._issue(body, str(g), f"no folded {g.pred} to unfold")
            )
        ]

    def _ghost_fold(self, body: Body, cfg: Config, g: Fold) -> list:
        pdef = self.program.predicates.get(g.pred)
        if pdef is None:
            return [Terminal(cfg, issue=self._issue(body, str(g), "unknown predicate"))]
        in_args: dict[int, Term] = {}
        arg_iter = iter(g.args)
        for i in pdef.in_indices():
            op = next(arg_iter, None)
            if op is None:
                break
            vals = self._eval_operand(body, cfg, op)
            in_args[i] = vals[0][1]
        try:
            states = fold(self.model, cfg.state, g.pred, in_args, self.stats)
        except TacticError as e:
            return [Terminal(cfg, issue=self._issue(body, str(g), str(e)))]
        return [Config(s, cfg.locals, cfg.pending_resolves) for s in states]

    def _ghost_apply_lemma(self, body: Body, cfg: Config, g: ApplyLemma) -> list:
        lemma = self.program.lemmas.get(g.name)
        if lemma is None:
            return [Terminal(cfg, issue=self._issue(body, str(g), f"unknown lemma {g.name}"))]
        arg_vals = []
        for op in g.args:
            arg_vals.append(self._eval_operand(body, cfg, op)[0][1])
        try:
            states = lemma.apply(self.model, cfg.state, arg_vals, self.stats)
        except TacticError as e:
            return [Terminal(cfg, issue=self._issue(body, str(g), str(e)))]
        return [
            Config(s, cfg.locals, cfg.pending_resolves)
            for s in states
            if self.model.feasible(s)
        ]

    # -- terminators ------------------------------------------------------------------

    def exec_terminator(self, body: Body, cfg: Config, bb) -> Iterable:
        term = bb.terminator
        if isinstance(term, Goto):
            return [(cfg, term.target)]
        if isinstance(term, Return):
            return [self._exec_return(body, cfg)]
        if isinstance(term, Unreachable):
            if self.model.feasible(cfg.state):
                return [
                    Terminal(
                        cfg,
                        issue=self._issue(body, bb.name, "reached unreachable code"),
                    )
                ]
            return []
        if isinstance(term, SwitchInt):
            return self._exec_switch(body, cfg, term)
        if isinstance(term, Call):
            return self._exec_call(body, cfg, term)
        raise EngineError(f"unknown terminator {term}")

    def _exec_return(self, body: Body, cfg: Config) -> Terminal:
        ret = cfg.locals.get("_ret")
        return Terminal(cfg, ret=ret)

    def _exec_switch(self, body: Body, cfg: Config, term: SwitchInt) -> list:
        outs = []
        for c, discr, err in self._eval_operand(body, cfg, term.discr):
            if err is not None:
                outs.append(Terminal(c, issue=self._issue(body, str(term), err)))
                continue
            if discr.sort == BOOL_SORT:
                discr = ite(discr, intlit(1), intlit(0))
            taken_facts: list[Term] = []
            for value, target in term.targets:
                fact = eq(discr, intlit(value))
                taken_facts.append(not_(fact))
                s = c.state.assume((fact,))
                if self.solver.check_sat(s.pc) != Status.UNSAT:
                    outs.append((Config(s, c.locals, c.pending_resolves), target))
            if term.otherwise is not None:
                s = c.state.assume(tuple(taken_facts))
                if self.solver.check_sat(s.pc) != Status.UNSAT:
                    outs.append(
                        (Config(s, c.locals, c.pending_resolves), term.otherwise)
                    )
        return outs

    # -- calls ------------------------------------------------------------------------

    def _exec_call(self, body: Body, cfg: Config, term: Call) -> list:
        intrinsic = _INTRINSICS.get(term.func)
        if intrinsic is not None:
            return intrinsic(self, body, cfg, term)
        spec = self.program.specs.get(term.func)
        if spec is not None:
            return self._apply_spec(body, cfg, term, spec)
        return [
            Terminal(
                cfg,
                issue=self._issue(
                    body, str(term), f"no spec or intrinsic for {term.func}"
                ),
            )
        ]

    def _apply_spec(self, body: Body, cfg: Config, term: Call, spec) -> list:
        """Compositional call: consume pre, produce post (§2.3)."""
        from repro.gillian.consume import ConsumeFailure, consume
        from repro.gillian.produce import ProduceError, produce

        arg_branches = [(cfg, [])]
        for op in term.args:
            nxt = []
            for c, vals in arg_branches:
                for c2, v, err in self._eval_operand(body, c, op):
                    if err is not None:
                        return [Terminal(c2, issue=self._issue(body, str(term), err))]
                    nxt.append((c2, vals + [v]))
            arg_branches = nxt
        outs = []
        for c, arg_vals in arg_branches:
            bindings = dict(zip(spec.param_vars, arg_vals))
            bindings[spec.lifetime_var] = self._ambient_lifetime(c)
            unbound = set(spec.forall)
            try:
                matches = consume(self.model, c.state, spec.pre, bindings, unbound)
            except ConsumeFailure as e:
                outs.append(
                    Terminal(
                        c,
                        issue=self._issue(
                            body, str(term), f"precondition of {term.func}: {e}"
                        ),
                    )
                )
                continue
            for m in matches:
                ret_val = fresh_var(f"ret_{term.func}", spec.ret_sort)
                post_bind = dict(m.bindings)
                post_bind[spec.ret_var] = ret_val
                post = spec.post.subst(post_bind)
                try:
                    produced = produce(self.model, m.state, post)
                except ProduceError as e:
                    outs.append(
                        Terminal(
                            Config(m.state, c.locals, c.pending_resolves),
                            issue=self._issue(body, str(term), f"post of {term.func}: {e}"),
                        )
                    )
                    continue
                for s in produced:
                    c3 = Config(s, dict(c.locals), c.pending_resolves)
                    for c4, err in self._write_place(body, c3, term.dest, ret_val):
                        if err is not None:
                            outs.append(
                                Terminal(c4, issue=self._issue(body, str(term), err))
                            )
                        else:
                            outs.append((c4, term.target))
        return outs

    def _ambient_lifetime(self, cfg: Config) -> Term:
        """The single ambient lifetime of the function (§7.1: the
        front-end restriction to one lifetime)."""
        kappa = cfg.locals.get("'a")
        if kappa is None:
            raise EngineError("no ambient lifetime bound in this body")
        return kappa

    # -- operand / rvalue evaluation -----------------------------------------------------

    def _eval_operand(self, body: Body, cfg: Config, op: Operand):
        """Returns [(config, value, err)]."""
        if isinstance(op, Constant):
            return [(cfg, self._const_value(op), None)]
        if isinstance(op, Copy):
            return self._read_place(body, cfg, op.place, move=False)
        if isinstance(op, Move):
            return self._read_place(body, cfg, op.place, move=True)
        raise EngineError(f"unknown operand {op}")

    def _const_value(self, op: Constant) -> Term:
        c = op.const
        if isinstance(c.ty, IntTy):
            return intlit(c.value)
        if isinstance(c.ty, BoolTy):
            return boollit(c.value)
        if isinstance(c.ty, UnitTy):
            return tuple_mk()
        if c.value == "null":
            return NULL_PTR
        raise EngineError(f"unsupported constant {c}")

    def _eval_rvalue(self, body: Body, cfg: Config, rv: Rvalue):
        """Returns [(config, value, err)]."""
        if isinstance(rv, Use):
            return self._eval_operand(body, cfg, rv.operand)
        if isinstance(rv, BinaryOp):
            return self._eval_binop(body, cfg, rv)
        if isinstance(rv, UnaryOp):
            outs = []
            for c, v, err in self._eval_operand(body, cfg, rv.operand):
                if err is not None:
                    outs.append((c, None, err))
                elif rv.op == "not":
                    outs.append((c, not_(v), None))
                elif rv.op == "neg":
                    outs.append((c, neg(v), None))
                else:
                    outs.append((c, None, f"unknown unop {rv.op}"))
            return outs
        if isinstance(rv, (Ref, AddressOf)):
            acc = self._place_address(body, cfg, rv.place)
            if acc is None:
                return [(cfg, None, f"cannot take address of {rv.place}")]
            ptr, facts = acc
            return [(Config(cfg.state.assume(facts), cfg.locals,
                            cfg.pending_resolves), ptr, None)]
        if isinstance(rv, Aggregate):
            return self._eval_aggregate(body, cfg, rv)
        if isinstance(rv, Discriminant):
            outs = []
            for c, v, err in self._read_place(body, cfg, rv.place, move=False):
                if err is not None:
                    outs.append((c, None, err))
                    continue
                d = self._discriminant_of(v, place_ty(self.program, body, rv.place).ty)
                outs.append((c, d, None))
            return outs
        if isinstance(rv, Cast):
            outs = []
            for c, v, err in self._eval_operand(body, cfg, rv.operand):
                if err is not None:
                    outs.append((c, None, err))
                    continue
                outs.append(self._eval_cast(body, c, v, rv))
            return outs
        raise EngineError(f"unknown rvalue {rv}")

    def _eval_cast(self, body: Body, cfg: Config, v: Term, rv: Cast):
        src = operand_ty(self.program, body, rv.operand)
        dst = rv.target

        def ptr_like(ty: Ty) -> bool:
            return isinstance(ty, (RawPtrTy, RefTy)) or (
                isinstance(ty, AdtTy) and ty.name == "Box"
            )

        if ptr_like(src) and ptr_like(dst):
            # Box::leak / Box::from_raw / pointer casts: value-identity.
            return (cfg, v, None)
        if isinstance(src, IntTy) and isinstance(dst, IntTy):
            lo, hi = dst.min_value, dst.max_value
            in_range = and_(le(intlit(lo), v), le(v, intlit(hi)))
            if self.solver.entails(cfg.state.pc, in_range):
                return (cfg, v, None)
            return (cfg, mod(v, intlit(1 << dst.bits)), None)
        return (cfg, None, f"unsupported cast {src} as {dst}")

    def _discriminant_of(self, v: Term, ty: Ty) -> Term:
        if isinstance(ty, AdtTy) and ty.name == "Option":
            return ite(is_some(v), intlit(1), intlit(0))
        raise EngineError(f"discriminant of {ty} unsupported (use Option or switch)")

    def _eval_aggregate(self, body: Body, cfg: Config, rv: Aggregate):
        branches = [(cfg, [])]
        for op in rv.operands:
            nxt = []
            for c, vals in branches:
                for c2, v, err in self._eval_operand(body, c, op):
                    if err is not None:
                        return [(c2, None, err)]
                    nxt.append((c2, vals + [v]))
            branches = nxt
        outs = []
        for c, vals in branches:
            ty = rv.ty
            if isinstance(ty, AdtTy) and ty.name == "Option":
                from repro.core.heap.values import ty_to_sort

                inner_sort = ty_to_sort(ty.args[0], self.program.registry)
                value = none(inner_sort) if rv.variant == 0 else some(vals[0])
            elif isinstance(ty, AdtTy):
                d = self.program.registry.lookup(ty.name)
                if d.is_struct:
                    value = tuple_mk(*vals)
                else:
                    from repro.core.heap.values import enum_variant_ctor

                    value = enum_variant_ctor(ty, rv.variant, vals)
            else:
                value = tuple_mk(*vals)
            outs.append((c, value, None))
        return outs

    def _eval_binop(self, body: Body, cfg: Config, rv: BinaryOp):
        outs = []
        lhs_ty = operand_ty(self.program, body, rv.lhs)
        for c, a, e1 in self._eval_operand(body, cfg, rv.lhs):
            if e1 is not None:
                outs.append((c, None, e1))
                continue
            for c2, b, e2 in self._eval_operand(body, c, rv.rhs):
                if e2 is not None:
                    outs.append((c2, None, e2))
                    continue
                outs.extend(self._binop_value(c2, rv.op, a, b, lhs_ty))
        return outs

    def _binop_value(self, cfg: Config, op: str, a: Term, b: Term, ty: Ty):
        """Returns branch triples. Machine arithmetic follows Rust's
        checked semantics: the overflow branch *panics* — safe (no UB)
        but fatal to functional specs (§7.3)."""
        comparisons = {
            "eq": eq, "ne": lambda x, y: not_(eq(x, y)),
            "lt": lt, "le": le, "gt": gt, "ge": ge,
        }
        if op in comparisons:
            return [(cfg, comparisons[op](a, b), None)]
        if op == "offset":
            # MIR's Offset: layout-independent `+^T e` projection (§3.1).
            if not isinstance(ty, (RawPtrTy, RefTy)):
                return [(cfg, None, f"offset on non-pointer type {ty}")]
            return [(cfg, ptr_offset(a, ty.pointee, b), None)]
        if op == "and":
            return [(cfg, and_(a, b), None)]
        if op == "or":
            return [(cfg, or_(a, b), None)]
        arith = {
            "add": add, "sub": sub, "mul": mul,
            "add_unchecked": add, "sub_unchecked": sub,
        }
        if op in ("div", "rem"):
            nonzero = not_(eq(b, intlit(0)))
            value = div(a, b) if op == "div" else mod(a, b)
            return self._checked_branches(cfg, value, nonzero)
        if op not in arith:
            return [(cfg, None, f"unknown binop {op}")]
        value = arith[op](a, b)
        if isinstance(ty, IntTy) and not op.endswith("_unchecked"):
            lo, hi = ty.min_value, ty.max_value
            ok = and_(le(intlit(lo), value), le(value, intlit(hi)))
            return self._checked_branches(cfg, value, ok)
        return [(cfg, value, None)]

    def _checked_branches(self, cfg: Config, value: Term, ok: Term):
        """Split into a success branch (assuming ``ok``) and a panic
        branch (assuming ``¬ok``); decided conditions yield one branch."""
        if self.solver.entails(cfg.state.pc, ok):
            return [(cfg, value, None)]
        # The bound may be locked inside a folded invariant (e.g.
        # ``len = |repr|`` in ⌊LinkedList⌋, §7.3): unfold to prove.
        from repro.gillian.matcher import unfold_to_prove

        proven = unfold_to_prove(self.model, cfg.state, ok, self.stats)
        if proven is not None:
            return [(Config(proven, cfg.locals, cfg.pending_resolves), value, None)]
        branches = []
        good = cfg.state.assume((ok,))
        if self.solver.check_sat(good.pc) != Status.UNSAT:
            branches.append(
                (Config(good, cfg.locals, cfg.pending_resolves), value, None)
            )
        bad = cfg.state.assume((not_(ok),))
        if self.solver.check_sat(bad.pc) != Status.UNSAT:
            branches.append(
                (Config(bad, cfg.locals, cfg.pending_resolves), None, PANIC)
            )
        return branches

    # -- place reads/writes -----------------------------------------------------------

    def _place_address(self, body: Body, cfg: Config, place: Place):
        """Pointer term for a place, or None if it is a pure frame slot."""
        local_ty = body.local_ty(place.local)
        heap_backed = f"{place.local}@heap" in cfg.locals
        value = cfg.locals.get(place.local)
        facts: tuple[Term, ...] = ()
        if heap_backed:
            ptr: Optional[Term] = value
            cur: PlaceTy = PlaceTy(local_ty)
            projs = place.projections
        else:
            # Walk frame projections until the first deref.
            idx = 0
            cur = PlaceTy(local_ty)
            frame_val = value
            while idx < len(place.projections) and not isinstance(
                place.projections[idx], DerefProj
            ):
                elem = place.projections[idx]
                frame_val, cur = self._frame_project(frame_val, cur, elem)
                idx += 1
            if idx == len(place.projections):
                return None  # stayed in the frame
            # DerefProj: the frame value is the pointer.
            ptr = frame_val
            cur = self._deref_ty(cur)
            projs = place.projections[idx + 1 :]
        for elem in projs:
            if isinstance(elem, DerefProj):
                raise EngineError(
                    f"nested deref in {place} requires an intermediate load"
                )
            ptr, cur = self._memory_project(ptr, cur, elem, cfg)
        return ptr, facts

    def _deref_ty(self, cur: PlaceTy) -> PlaceTy:
        ty = cur.ty
        if isinstance(ty, (RawPtrTy, RefTy)):
            return PlaceTy(ty.pointee)
        if isinstance(ty, AdtTy) and ty.name == "Box":
            return PlaceTy(ty.args[0])
        raise EngineError(f"cannot deref {ty}")

    def _frame_project(self, v: Term, cur: PlaceTy, elem):
        reg = self.program.registry
        ty = cur.ty
        if isinstance(elem, FieldProj):
            if isinstance(ty, AdtTy) and ty.name == "Option" and cur.variant == 1:
                return some_val(v), PlaceTy(ty.args[0])
            if isinstance(ty, AdtTy):
                d, _ = reg.instantiate(ty)
                if d.is_struct:
                    return tuple_get(v, elem.index), PlaceTy(
                        reg.field_ty(ty, 0, elem.index)
                    )
            from repro.lang.types import TupleTy

            if isinstance(ty, TupleTy):
                return tuple_get(v, elem.index), PlaceTy(ty.elems[elem.index])
            raise EngineError(f"frame field projection into {ty}")
        if isinstance(elem, DowncastProj):
            return v, PlaceTy(ty, variant=elem.variant)
        raise EngineError(f"unsupported frame projection {elem}")

    def _memory_project(self, ptr: Term, cur: PlaceTy, elem, cfg: Config):
        reg = self.program.registry
        ty = cur.ty
        if isinstance(elem, FieldProj):
            if isinstance(ty, AdtTy):
                d, _ = reg.instantiate(ty)
                if d.is_struct:
                    return (
                        ptr_field(ptr, ty, elem.index),
                        PlaceTy(reg.field_ty(ty, 0, elem.index)),
                    )
                variant = cur.variant
                if variant is None:
                    raise EngineError(f"field access on enum {ty} without downcast")
                return (
                    ptr_variant_field(ptr, ty, variant, elem.index),
                    PlaceTy(reg.field_ty(ty, variant, elem.index)),
                )
            from repro.lang.types import TupleTy

            if isinstance(ty, TupleTy):
                return ptr_field(ptr, ty, elem.index), PlaceTy(ty.elems[elem.index])
            raise EngineError(f"memory field projection into {ty}")
        if isinstance(elem, DowncastProj):
            return ptr, PlaceTy(ty, variant=elem.variant)
        if isinstance(elem, IndexProj):
            idx_val = cfg.locals[elem.local]
            from repro.lang.types import ArrayTy

            assert isinstance(ty, ArrayTy)
            return ptr_offset(ptr, ty.elem, idx_val), PlaceTy(ty.elem)
        raise EngineError(f"unsupported memory projection {elem}")

    def _read_place(self, body: Body, cfg: Config, place: Place, move: bool):
        """Returns [(config, value, err)] with repair on missing resource."""
        addr = self._place_address(body, cfg, place)
        if addr is None:
            # Pure frame read.
            v = cfg.locals.get(place.local)
            if v is None:
                return [(cfg, None, f"unbound local {place.local}")]
            cur = PlaceTy(body.local_ty(place.local))
            for elem in place.projections:
                v, cur = self._frame_project(v, cur, elem)
            return [(cfg, v, None)]
        ptr, facts = addr
        pty = place_ty(self.program, body, place).ty
        base = cfg.state.assume(facts)

        def op(s: RustState) -> list[StepOut]:
            ctx = self.model.heap_ctx(s)
            outs = []
            for h in s.heap.load(ptr, pty, ctx, move=move):
                s2 = s.assume(h.facts)
                if self.solver.check_sat(s2.pc) == Status.UNSAT:
                    continue
                if h.error:
                    outs.append(StepOut(s2, error=str(h.error)))
                else:
                    outs.append(StepOut(replace(s2, heap=h.heap), value=h.value))
            return outs

        results = self._with_repair(base, op)
        return [
            (
                Config(r.state, cfg.locals, cfg.pending_resolves),
                r.value,
                r.error,
            )
            for r in results
        ]

    def _write_place(self, body: Body, cfg: Config, place: Place, value: Term):
        """Returns [(config, err)]."""
        addr = self._place_address(body, cfg, place)
        if addr is None:
            if not place.projections:
                new_locals = dict(cfg.locals)
                new_locals[place.local] = value
                return [(Config(cfg.state, new_locals, cfg.pending_resolves), None)]
            # Frame sub-place update: functional surgery.
            root = cfg.locals.get(place.local)
            if root is None:
                return [(cfg, f"unbound local {place.local}")]
            cur = PlaceTy(body.local_ty(place.local))
            new_root = self._frame_update(root, cur, list(place.projections), value)
            new_locals = dict(cfg.locals)
            new_locals[place.local] = new_root
            return [(Config(cfg.state, new_locals, cfg.pending_resolves), None)]
        ptr, facts = addr
        pty = place_ty(self.program, body, place).ty
        base = cfg.state.assume(facts)

        def op(s: RustState) -> list[StepOut]:
            ctx = self.model.heap_ctx(s)
            outs = []
            for h in s.heap.store(ptr, pty, value, ctx):
                s2 = s.assume(h.facts)
                if self.solver.check_sat(s2.pc) == Status.UNSAT:
                    continue
                if h.error:
                    outs.append(StepOut(s2, error=str(h.error)))
                else:
                    outs.append(StepOut(replace(s2, heap=h.heap)))
            return outs

        results = self._with_repair(base, op)
        return [
            (Config(r.state, cfg.locals, cfg.pending_resolves), r.error)
            for r in results
        ]

    def _frame_update(self, v: Term, cur: PlaceTy, projs: list, new: Term) -> Term:
        if not projs:
            return new
        elem = projs[0]
        reg = self.program.registry
        ty = cur.ty
        if isinstance(elem, FieldProj):
            if isinstance(ty, AdtTy) and ty.name == "Option" and cur.variant == 1:
                inner = self._frame_update(
                    some_val(v), PlaceTy(ty.args[0]), projs[1:], new
                )
                return some(inner)
            if isinstance(ty, AdtTy):
                d, _ = reg.instantiate(ty)
                assert d.is_struct, f"frame update into enum {ty}"
                n = len(d.struct_fields)
                fty = reg.field_ty(ty, 0, elem.index)
                comps = [
                    self._frame_update(
                        tuple_get(v, elem.index), PlaceTy(fty), projs[1:], new
                    )
                    if i == elem.index
                    else tuple_get(v, i)
                    for i in range(n)
                ]
                return tuple_mk(*comps)
            from repro.lang.types import TupleTy

            if isinstance(ty, TupleTy):
                comps = [
                    self._frame_update(
                        tuple_get(v, elem.index),
                        PlaceTy(ty.elems[elem.index]),
                        projs[1:],
                        new,
                    )
                    if i == elem.index
                    else tuple_get(v, i)
                    for i in range(len(ty.elems))
                ]
                return tuple_mk(*comps)
        if isinstance(elem, DowncastProj):
            return self._frame_update(
                v, PlaceTy(ty, variant=elem.variant), projs[1:], new
            )
        raise EngineError(f"unsupported frame update {elem}")


# ---------------------------------------------------------------------------
# Intrinsics
# ---------------------------------------------------------------------------


def _intrinsic_box_new(engine: Engine, body: Body, cfg: Config, term: Call):
    (ty,) = term.ty_args
    outs = []
    for c, v, err in engine._eval_operand(body, cfg, term.args[0]):
        if err is not None:
            outs.append(Terminal(c, issue=engine._issue(body, str(term), err)))
            continue
        heap, ptr = c.state.heap.alloc_typed(ty)
        s = replace(c.state, heap=heap)
        ctx = engine.model.heap_ctx(s)
        for h in s.heap.store(ptr, ty, v, ctx):
            if h.error:
                outs.append(
                    Terminal(c, issue=engine._issue(body, str(term), str(h.error)))
                )
                continue
            s2 = replace(s, heap=h.heap).assume(h.facts)
            c2 = Config(s2, dict(c.locals), c.pending_resolves)
            for c3, werr in engine._write_place(body, c2, term.dest, ptr):
                if werr is not None:
                    outs.append(Terminal(c3, issue=engine._issue(body, str(term), werr)))
                else:
                    outs.append((c3, term.target))
    return outs


def _intrinsic_box_free(engine: Engine, body: Body, cfg: Config, term: Call):
    (ty,) = term.ty_args
    outs = []
    for c, v, err in engine._eval_operand(body, cfg, term.args[0]):
        if err is not None:
            outs.append(Terminal(c, issue=engine._issue(body, str(term), err)))
            continue

        def op(s: RustState, ptr=v) -> list[StepOut]:
            ctx = engine.model.heap_ctx(s)
            fouts = []
            for h in s.heap.free(ptr, ty, ctx):
                if h.error:
                    fouts.append(StepOut(s, error=str(h.error)))
                else:
                    fouts.append(StepOut(replace(s, heap=h.heap)))
            return fouts

        for r in engine._with_repair(c.state, op):
            if r.error is not None:
                outs.append(
                    Terminal(
                        Config(r.state, c.locals, c.pending_resolves),
                        issue=engine._issue(body, str(term), r.error),
                    )
                )
                continue
            c2 = Config(r.state, dict(c.locals), c.pending_resolves)
            for c3, werr in engine._write_place(body, c2, term.dest, tuple_mk()):
                if werr is not None:
                    outs.append(Terminal(c3, issue=engine._issue(body, str(term), werr)))
                else:
                    outs.append((c3, term.target))
    return outs


def _intrinsic_alloc_array(engine: Engine, body: Body, cfg: Config, term: Call):
    """``alloc::alloc`` for ``n`` elements of ``T``: a fresh laid-out,
    uninitialised region (§3.2: allocator results are laid-out nodes)."""
    (ty,) = term.ty_args
    outs = []
    for c, n, err in engine._eval_operand(body, cfg, term.args[0]):
        if err is not None:
            outs.append(Terminal(c, issue=engine._issue(body, str(term), err)))
            continue
        heap, ptr = c.state.heap.alloc_array(ty, n)
        s = replace(c.state, heap=heap)
        c2 = Config(s, dict(c.locals), c.pending_resolves)
        for c3, werr in engine._write_place(body, c2, term.dest, ptr):
            if werr is not None:
                outs.append(Terminal(c3, issue=engine._issue(body, str(term), werr)))
            else:
                outs.append((c3, term.target))
    return outs


_INTRINSICS: dict[str, Callable] = {
    "Box::new": _intrinsic_box_new,
    "intrinsic::box_free": _intrinsic_box_free,
    "intrinsic::alloc_array": _intrinsic_alloc_array,
}

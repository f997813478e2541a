"""The verification driver (§2.3, §6).

For each function with a spec: produce the precondition into an empty
state, symbolically execute the body, and at every ``Return`` branch
close outstanding borrows, apply pending prophecy resolutions
(``mutref_auto_resolve!``), and consume the postcondition. A function
verifies iff every feasible branch succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro import faultinject
from repro.budget import Budget
from repro.obs import clock, span
from repro.errors import BudgetExhausted
from repro.core.state import RustState, RustStateModel
from repro.gillian.consume import ConsumeFailure, consume
from repro.gillian.engine import Config, Engine, Terminal, VerificationIssue
from repro.gillian.matcher import TacticStats, close_all_borrows
from repro.gillian.produce import ProduceError, produce
from repro.gilsonite.specs import Spec
from repro.lang.mir import Body, Program
from repro.solver.core import Solver, Status, default_solver
from repro.solver.sorts import LFT
from repro.solver.terms import Term, Var, eq, fresh_var, tuple_mk


@dataclass
class VerificationResult:
    function: str
    kind: str
    ok: bool
    issues: list[VerificationIssue] = field(default_factory=list)
    elapsed: float = 0.0
    branches: int = 0
    stats: TacticStats = field(default_factory=TacticStats)
    #: ``verified | refuted | timeout | crashed | error`` — the
    #: first-class verdict; ``ok`` stays as the boolean shorthand.
    status: str = "verified"

    def __str__(self) -> str:
        mark = "✓" if self.ok else "✗"
        tag = f" {self.status}!" if self.status not in ("verified", "refuted") else ""
        return (
            f"{mark} {self.function} [{self.kind}]{tag} "
            f"({self.elapsed * 1000:.1f} ms, {self.branches} branches)"
        )


def apply_mutref_resolve(
    model: RustStateModel, state: RustState, ptr: Term
) -> tuple[Optional[RustState], Optional[str]]:
    """MUTREF-RESOLVE (§5.3): consume the mutable-reference ownership
    (value observer + closed borrow) and learn ``⟨↑x = current⟩``."""
    for b in state.borrows.borrows:
        if not b.pred.startswith("mutref_inv:") or len(b.args) != 2:
            continue
        if not model.solver.entails(state.pc, eq(b.args[0], ptr)):
            continue
        x = b.args[1]
        if not isinstance(x, Var):
            return None, f"prophecy of {ptr} is not a variable: {x}"
        vo = state.proph.consume_vo(x)
        if vo.ctx is None:
            return None, f"mutref_auto_resolve: {vo.error}"
        s = replace(state, proph=vo.ctx)
        s = replace(s, borrows=s.borrows.remove_borrow(b))
        obs = s.obs.produce(eq(x, vo.value), model.solver, s.pc)
        if obs.inconsistent:
            return None, None  # branch vanishes
        return replace(s, obs=obs.ctx), None
    return None, f"no mutable-reference borrow found for {ptr}"


def verify_function(
    program: Program,
    body: Body,
    spec: Spec,
    solver: Optional[Solver] = None,
    stats: Optional[TacticStats] = None,
    auto_repair: bool = True,
    budget: Optional[Budget] = None,
) -> VerificationResult:
    """Verify one function against one spec.

    ``budget`` (a running :class:`repro.budget.Budget`) cooperatively
    bounds the run: deadline / step / solver-query exhaustion is caught
    here and becomes a ``timeout`` verdict, never an exception.
    """
    solver = solver or default_solver()
    stats = stats if stats is not None else TacticStats()
    model = RustStateModel(program, solver)
    engine = Engine(
        program, model, stats=stats, auto_repair=auto_repair, budget=budget
    )
    started = clock.now()
    result = VerificationResult(body.name, spec.kind, ok=True, stats=stats)
    faultinject.fire("verifier.function", body.name)

    # The solver is shared across functions (its cache is the point);
    # the budget is per-function. Install it for the duration of this
    # run only, restoring whatever an outer caller had installed.
    prev_budget = solver.budget
    solver.budget = budget if budget is not None else prev_budget
    try:
        with span("symex", function=body.name, kind=spec.kind):
            _verify_function_inner(
                program, body, spec, solver, stats, engine, model, result
            )
    except BudgetExhausted as e:
        result.ok = False
        result.status = "timeout"
        result.issues.append(VerificationIssue(body.name, "budget", str(e)))
    finally:
        solver.budget = prev_budget
    if result.status == "verified" and not result.ok:
        result.status = "refuted"
    result.elapsed = clock.now() - started
    return result


def _verify_function_inner(
    program: Program,
    body: Body,
    spec: Spec,
    solver: Solver,
    stats: TacticStats,
    engine: Engine,
    model: RustStateModel,
    result: VerificationResult,
) -> None:
    # 1. Instantiate the spec: fresh argument values, fresh forall vars.
    kappa_val = fresh_var(f"κ@{body.name}", LFT)
    arg_vals = [fresh_var(f"{body.name}.{n}", v.sort)
                for (n, _), v in zip(body.params, spec.param_vars)]
    inst_map: dict[Term, Term] = {spec.lifetime_var: kappa_val}
    for v, a in zip(spec.param_vars, arg_vals):
        inst_map[v] = a
    forall_map: dict[Term, Term] = {}
    for v in spec.forall:
        fv = fresh_var(f"sv_{v.name}", v.sort)
        forall_map[v] = fv
        inst_map[v] = fv

    # 2. Produce the precondition.
    try:
        with span("pre"):
            init_states = produce(model, RustState(), spec.pre.subst(inst_map))
    except ProduceError as e:
        result.ok = False
        result.issues.append(VerificationIssue(body.name, "pre", str(e)))
        return

    locals0 = {n: a for (n, _), a in zip(body.params, arg_vals)}
    locals0["'a"] = kappa_val

    # 3. Execute the body from each produced state.
    for init in init_states:
        terminals = engine.run_body(body, Config(init, dict(locals0)))
        for t in terminals:
            result.branches += 1
            if t.panic:
                # Panics are safe (abort, not UB): fine for type
                # safety, fatal for functional correctness (§7.3).
                if spec.kind != "type_safety":
                    if solver.check_sat(t.config.state.pc) != Status.UNSAT:
                        result.ok = False
                        result.issues.append(
                            VerificationIssue(
                                body.name, "panic", "possible panic (overflow?)"
                            )
                        )
                continue
            if t.issue is not None:
                if solver.check_sat(t.config.state.pc) != Status.UNSAT:
                    result.ok = False
                    result.issues.append(t.issue)
                continue
            with span("post"):
                _check_post(
                    model, body, spec, t, kappa_val, forall_map, result, stats
                )


def _check_post(
    model: RustStateModel,
    body: Body,
    spec: Spec,
    t: Terminal,
    kappa_val: Term,
    forall_map: dict[Term, Term],
    result: VerificationResult,
    stats: TacticStats,
) -> None:
    state = t.config.state
    # Close outstanding borrows so the lifetime token is whole again.
    state = close_all_borrows(model, state, stats)
    # Apply deferred mutref_auto_resolve! tactics.
    for local in t.config.pending_resolves:
        ptr = t.config.locals.get(local)
        if ptr is None:
            result.ok = False
            result.issues.append(
                VerificationIssue(body.name, "return", f"unbound resolve local {local}")
            )
            return
        resolved, err = apply_mutref_resolve(model, state, ptr)
        if err is not None:
            result.ok = False
            result.issues.append(VerificationIssue(body.name, "return", err))
            return
        if resolved is None:
            return  # branch vanished
        state = resolved
    ret_val = t.ret if t.ret is not None else tuple_mk()
    post_map = dict(forall_map)
    post_map[spec.lifetime_var] = kappa_val
    post_map[spec.ret_var] = ret_val
    post = spec.post.subst(post_map)
    try:
        consume(model, state, post, {}, set())
    except ConsumeFailure as e:
        result.ok = False
        result.issues.append(
            VerificationIssue(body.name, "postcondition", str(e))
        )

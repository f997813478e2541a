"""The verification driver (§2.3, §6).

For each function with a spec: produce the precondition into an empty
state, symbolically execute the body, and at every ``Return`` branch
close outstanding borrows, apply pending prophecy resolutions
(``mutref_auto_resolve!``), and consume the postcondition. A function
verifies iff every feasible branch succeeds.

Only the last step reads the postcondition, so the driver runs in two
stages split there. Stage A takes the spec's binders, the precondition
and the body and ends with the function's *exit states*: every
returning branch, closed and resolved, with its return value. Stage B
consumes ``spec.post`` against each of them. A caller that keeps stage
A in an :class:`ExitRecord` re-checks a postcondition-only spec edit
with stage B alone; :class:`repro.hybrid.pipeline.HybridVerifier` does
so across its runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

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


@dataclass
class ExitStates:
    """Stage A's outcome for one spec: what stage B needs to consume a
    postcondition, and nothing that reads one."""

    #: The instantiation of the spec's lifetime and ``forall`` variables.
    kappa: Term
    forall_map: dict[Term, Term]
    branches: int = 0
    #: Each returning branch's ``(state, return value)``, in branch
    #: order, after ``close_all_borrows`` and its pending
    #: ``mutref_auto_resolve!`` steps.
    exits: list[tuple[RustState, Term]] = field(default_factory=list)


@dataclass
class ExitRecord:
    """A holder for stage A across calls of :func:`verify_function`.

    Filled, it stands in for stage A: the call consumes the
    postcondition against its exit states and nothing else. Empty, the
    call runs stage A and fills it when no branch failed before its
    postcondition. A caller passes a filled record only for a spec
    whose precondition side (binders, ``pre``, ``kind``) equals the
    one it was filled under, for the same body, logic context and
    budget."""

    states: Optional[ExitStates] = None


def verify_function(
    program: Program,
    body: Body,
    spec: Spec,
    solver: Optional[Solver] = None,
    stats: Optional[TacticStats] = None,
    auto_repair: bool = True,
    budget: Optional[Budget] = None,
    record: Optional[ExitRecord] = None,
) -> VerificationResult:
    """Verify one function against one spec.

    ``budget`` (a running :class:`repro.budget.Budget`) cooperatively
    bounds the run: deadline / step / solver-query exhaustion is caught
    here and becomes a ``timeout`` verdict, never an exception.

    The run has two stages. Stage A produces the precondition, executes
    the body and closes every returning branch; stage B consumes the
    postcondition against each exit state, as soon as it is closed, so
    the solver sees its queries in the order of a one-stage run.
    ``record`` (see :class:`ExitRecord`) lets a caller keep stage A
    across runs whose specs differ only in the postcondition.
    """
    solver = solver or default_solver()
    stats = stats if stats is not None else TacticStats()
    model = RustStateModel(program, solver)
    started = clock.now()
    result = VerificationResult(body.name, spec.kind, ok=True, stats=stats)
    faultinject.fire("verifier.function", body.name)

    def check_post(exits: ExitStates, branch: tuple[RustState, Term]) -> None:
        _consume_post(model, body, spec, exits, branch, result)

    # The solver is shared across functions (its cache is the point);
    # the budget is per-function. Install it for the duration of this
    # run only, restoring whatever an outer caller had installed.
    prev_budget = solver.budget
    solver.budget = budget if budget is not None else prev_budget
    try:
        with span("symex", function=body.name):
            exits = record.states if record is not None else None
            if exits is None:
                engine = Engine(
                    program, model, stats=stats, auto_repair=auto_repair,
                    budget=budget,
                )
                exits = _run_to_exits(
                    body, spec, solver, stats, engine, model, result, check_post
                )
                if record is not None:
                    record.states = exits
            else:
                result.branches = exits.branches
                for branch in exits.exits:
                    with span("post"):
                        check_post(exits, branch)
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


def _run_to_exits(
    body: Body,
    spec: Spec,
    solver: Solver,
    stats: TacticStats,
    engine: Engine,
    model: RustStateModel,
    result: VerificationResult,
    on_exit: Callable[[ExitStates, tuple[RustState, Term]], None],
) -> Optional[ExitStates]:
    """Stage A: everything up to the postcondition. ``on_exit`` gets
    each returning branch the moment it is closed. Failed branches
    become issues of ``result``; the exit states are returned only
    when there were none (and the precondition could be produced)."""
    clean = True

    def fail(issue: VerificationIssue) -> None:
        nonlocal clean
        clean = False
        result.ok = False
        result.issues.append(issue)

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
    exits = ExitStates(kappa_val, forall_map)

    # 2. Produce the precondition.
    try:
        with span("pre"):
            init_states = produce(model, RustState(), spec.pre.subst(inst_map))
    except ProduceError as e:
        fail(VerificationIssue(body.name, "pre", str(e)))
        return None

    locals0 = {n: a for (n, _), a in zip(body.params, arg_vals)}
    locals0["'a"] = kappa_val

    # 3. Execute the body from each produced state, and close each
    # returning branch.
    for init in init_states:
        terminals = engine.run_body(body, Config(init, dict(locals0)))
        for t in terminals:
            result.branches += 1
            if t.panic:
                # Panics are safe (abort, not UB): fine for type
                # safety, fatal for functional correctness (§7.3).
                if spec.kind != "type_safety":
                    if solver.check_sat(t.config.state.pc) != Status.UNSAT:
                        fail(VerificationIssue(
                            body.name, "panic", "possible panic (overflow?)"
                        ))
                continue
            if t.issue is not None:
                if solver.check_sat(t.config.state.pc) != Status.UNSAT:
                    fail(t.issue)
                continue
            with span("post"):
                state, err = _close_exit(model, t, stats)
                if err is not None:
                    fail(VerificationIssue(body.name, "return", err))
                elif state is not None:
                    branch = (state, t.ret if t.ret is not None else tuple_mk())
                    exits.exits.append(branch)
                    on_exit(exits, branch)
    exits.branches = result.branches
    return exits if clean else None


def _close_exit(
    model: RustStateModel, t: Terminal, stats: TacticStats
) -> tuple[Optional[RustState], Optional[str]]:
    """A returning branch's state with its borrows closed and its
    deferred ``mutref_auto_resolve!`` steps applied, or why that
    failed; ``(None, None)`` when the branch vanished."""
    state = t.config.state
    # Close outstanding borrows so the lifetime token is whole again.
    state = close_all_borrows(model, state, stats)
    # Apply deferred mutref_auto_resolve! tactics.
    for local in t.config.pending_resolves:
        ptr = t.config.locals.get(local)
        if ptr is None:
            return None, f"unbound resolve local {local}"
        resolved, err = apply_mutref_resolve(model, state, ptr)
        if err is not None:
            return None, err
        if resolved is None:
            return None, None  # branch vanished
        state = resolved
    return state, None


def _consume_post(
    model: RustStateModel,
    body: Body,
    spec: Spec,
    exits: ExitStates,
    branch: tuple[RustState, Term],
    result: VerificationResult,
) -> None:
    """Stage B, for one exit state: consume the postcondition."""
    state, ret_val = branch
    post_map = dict(exits.forall_map)
    post_map[spec.lifetime_var] = exits.kappa
    post_map[spec.ret_var] = ret_val
    try:
        consume(model, state, spec.post.subst(post_map), {}, set())
    except ConsumeFailure as e:
        result.ok = False
        result.issues.append(
            VerificationIssue(body.name, "postcondition", str(e))
        )

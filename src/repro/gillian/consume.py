"""Assertion-level consumption with matching plans (§2.3, §7.2).

Consuming an assertion removes the corresponding resource from the
symbolic state, *learning* the values of out-parameters on the way —
this is Gillian's In/Out dataflow discipline: every out-position must
be uniquely learnable from the in-positions.

The consumer runs a simple *planner*: star-conjuncts are consumed in
any order such that each part's in-positions are ground when it is
consumed (existential variables become ground as earlier parts bind
them). Pure equalities may be *solved* to bind a variable (the
standard Gillian trick that makes predicates with out-parameters, such
as ``dllSeg``, consumable).

Named predicates are matched against folded instances first; when no
instance matches, the consumer *folds on the fly*: it consumes one of
the predicate's disjunct bodies instead (depth-bounded, so recursive
predicates like ``dllSeg`` terminate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.state import RustState, RustStateModel
from repro.obs.metrics import metrics
from repro.gilsonite.ast import (
    AliveLft,
    Assertion,
    Borrow,
    Closing,
    DeadLft,
    Emp,
    Exists,
    Observation,
    PointsTo,
    PointsToSlice,
    PointsToSliceUninit,
    PointsToUninit,
    Pred,
    ProphCtrl,
    Pure,
    Star,
    ValueObs,
    iter_parts,
)
from repro.solver.terms import (
    App,
    Term,
    Var,
    eq,
    free_vars,
    fresh_var,
    is_some,
    not_,
    seq_head,
    seq_tail,
    seq_len,
    lt,
    intlit,
    some_val,
    substitute,
    tuple_get,
)

MAX_FOLD_DEPTH = 4


@dataclass
class Match:
    """A successful consumption branch."""

    state: RustState
    bindings: dict[Var, Term]


@dataclass
class ConsumeFailure(Exception):
    message: str

    def __str__(self) -> str:
        return self.message


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------

_CONSTRUCTOR_PREFIXES = ("mk.",)


def unify(
    model: RustStateModel,
    state: RustState,
    expr: Term,
    actual: Term,
    bindings: dict[Var, Term],
    unbound: set[Var],
) -> Optional[tuple[dict[Var, Term], set[Var]]]:
    """Match ``expr`` (may contain unbound vars) against ``actual``."""
    e = substitute(expr, dict(bindings))
    if isinstance(e, Var) and e in unbound:
        nb = dict(bindings)
        nb[e] = actual
        return nb, unbound - {e}
    evs = free_vars(e) & unbound
    if not evs:
        if model.solver.entails(state.pc, eq(e, actual)):
            return dict(bindings), set(unbound)
        return None
    # Structured expression with unbound leaves: destructure the actual.
    if isinstance(e, App):
        if e.op == "some":
            if not model.solver.entails(state.pc, is_some(actual)):
                return None
            return unify(model, state, e.args[0], some_val(actual), bindings, unbound)
        if e.op == "tuple":
            b, u = dict(bindings), set(unbound)
            for i, sub in enumerate(e.args):
                res = unify(model, state, sub, tuple_get(actual, i), b, u)
                if res is None:
                    return None
                b, u = res
            return b, u
        if e.op == "seq.cons":
            if not model.solver.entails(
                state.pc, lt(intlit(0), seq_len(actual))
            ):
                return None
            res = unify(model, state, e.args[0], seq_head(actual), bindings, unbound)
            if res is None:
                return None
            b, u = res
            return unify(model, state, e.args[1], seq_tail(actual), b, u)
        if e.op.startswith(_CONSTRUCTOR_PREFIXES):
            # Generic enum constructors: only unify against a matching
            # constructor application.
            if isinstance(actual, App) and actual.op == e.op:
                b, u = dict(bindings), set(unbound)
                for sub, act in zip(e.args, actual.args):
                    res = unify(model, state, sub, act, b, u)
                    if res is None:
                        return None
                    b, u = res
                return b, u
            return None
    return None


# ---------------------------------------------------------------------------
# In/out signatures of core predicates
# ---------------------------------------------------------------------------


def _in_terms(model: RustStateModel, a: Assertion) -> list[Term]:
    if isinstance(a, PointsTo):
        return [a.ptr]
    if isinstance(a, PointsToUninit):
        return [a.ptr]
    if isinstance(a, PointsToSlice):
        return [a.ptr, a.length]
    if isinstance(a, PointsToSliceUninit):
        return [a.ptr, a.length]
    if isinstance(a, Pred):
        pdef = model.program.predicates.get(a.name)
        if pdef is None:
            return list(a.args)
        return [a.args[i] for i in pdef.in_indices()]
    if isinstance(a, Borrow):
        # Borrow arguments may be learned by unification against the
        # instances held in γ (needed to recover the prophecy variable
        # when consuming ⌊&mut T⌋ bodies).
        return [a.lifetime]
    if isinstance(a, Closing):
        return [a.lifetime, *a.args]
    if isinstance(a, AliveLft):
        # An unbound fraction is chosen by the consumer (callers give
        # up half of what they hold and learn q), so only the lifetime
        # must be ground.
        return [a.lifetime]
    if isinstance(a, DeadLft):
        return [a.lifetime]
    if isinstance(a, Observation):
        return [a.formula]
    if isinstance(a, (ValueObs, ProphCtrl)):
        return [a.proph]
    if isinstance(a, Pure):
        return []  # handled specially (solving)
    raise TypeError(a)


def _out_specs(model: RustStateModel, a: Assertion) -> list[tuple[str, Term]]:
    if isinstance(a, PointsTo):
        return [("value", a.value)]
    if isinstance(a, PointsToSlice):
        return [("values", a.values)]
    if isinstance(a, Pred):
        pdef = model.program.predicates.get(a.name)
        if pdef is None:
            return []
        return [(f"arg{i}", a.args[i]) for i in pdef.out_indices()]
    if isinstance(a, Closing):
        return [("fraction", a.fraction)]
    if isinstance(a, (ValueObs, ProphCtrl)):
        return [("value", a.value)]
    return []


def _ready(model: RustStateModel, a: Assertion, bindings, unbound) -> bool:
    for t in _in_terms(model, a):
        if free_vars(substitute(t, dict(bindings))) & unbound:
            return False
    return True


def _solvable_pure(a: Pure, bindings, unbound) -> Optional[tuple[Term, Term]]:
    """``Pure(pattern = ground)`` where exactly one side mentions
    unbound variables can be solved by unification (binding a plain
    variable, or destructuring a constructor pattern such as
    ``self = Some(x)``). Returns (pattern, ground)."""
    f = substitute(a.formula, dict(bindings))
    if isinstance(f, App) and f.op == "=":
        lhs, rhs = f.args
        lu = bool(free_vars(lhs) & unbound)
        ru = bool(free_vars(rhs) & unbound)
        if lu and not ru:
            return lhs, rhs
        if ru and not lu:
            return rhs, lhs
    return None


# ---------------------------------------------------------------------------
# The consumer
# ---------------------------------------------------------------------------


def consume(
    model: RustStateModel,
    state: RustState,
    assertion: Assertion,
    bindings: Optional[dict[Var, Term]] = None,
    unbound: Optional[set[Var]] = None,
    depth: int = 0,
) -> list[Match]:
    """Consume ``assertion`` from ``state``.

    Returns all successful branches; raises :class:`ConsumeFailure`
    when none succeed.
    """
    if depth == 0:
        # Count top-level consumptions only: the fold-on-the-fly
        # recursion below re-enters with depth > 0 and its work is
        # already inside the enclosing consume.
        metrics.inc("gillian.consumes")
    bindings = dict(bindings or {})
    unbound = set(unbound or set())
    parts: list[Assertion] = []
    for p in _flatten(assertion, unbound):
        parts.append(p)
    matches = _consume_parts(model, state, parts, bindings, unbound, depth)
    if not matches:
        raise ConsumeFailure(f"cannot consume {assertion}")
    return matches


def _flatten(a: Assertion, unbound: set[Var]) -> list[Assertion]:
    if isinstance(a, Exists):
        # Always freshen: predicate definitions are shared, so nested
        # unfoldings of the same predicate (dllSeg in dllSeg) would
        # otherwise capture the outer occurrence's bindings.
        fresh = {v: fresh_var(v.name, v.sort) for v in a.vars}
        unbound.update(fresh.values())
        return _flatten(a.body.subst(fresh), unbound)
    if isinstance(a, Star):
        out: list[Assertion] = []
        for p in a.parts:
            out.extend(_flatten(p, unbound))
        return out
    if isinstance(a, Emp):
        return []
    return [a]


def _consume_parts(
    model: RustStateModel,
    state: RustState,
    parts: list[Assertion],
    bindings: dict[Var, Term],
    unbound: set[Var],
    depth: int,
) -> list[Match]:
    if not parts:
        return [Match(state, bindings)]
    # Pick the first ready part (pures that are fully bound get checked
    # as soon as they are ready so contradictions surface early).
    for i, part in enumerate(parts):
        rest = parts[:i] + parts[i + 1 :]
        if isinstance(part, Pure):
            f = substitute(part.formula, dict(bindings))
            if not (free_vars(f) & unbound):
                if not model.solver.entails(state.pc, f):
                    # The fact may be locked inside a folded predicate
                    # (e.g. the length invariant inside ⌊LinkedList⌋):
                    # try unfolding to expose it (§4.2 heuristics).
                    if depth < MAX_FOLD_DEPTH:
                        return _unfold_during_consume(
                            model, state, part, rest, bindings, unbound, depth
                        )
                    return []
                return _consume_parts(model, state, rest, bindings, unbound, depth)
            solved = _solvable_pure(part, bindings, unbound)
            if solved is not None:
                pattern, ground = solved
                res = unify(model, state, pattern, ground, bindings, unbound)
                if res is None:
                    return []
                nb, nu = res
                return _consume_parts(model, state, rest, nb, nu, depth)
            continue
        if not _ready(model, part, bindings, unbound):
            continue
        return _consume_one(model, state, part, rest, bindings, unbound, depth)
    # Nothing ready: matching plan failure.
    return []


def _consume_one(
    model: RustStateModel,
    state: RustState,
    part: Assertion,
    rest: list[Assertion],
    bindings: dict[Var, Term],
    unbound: set[Var],
    depth: int,
) -> list[Match]:
    if isinstance(part, Borrow):
        return _consume_borrow(model, state, part, rest, bindings, unbound, depth)
    if isinstance(part, AliveLft):
        frac = substitute(part.fraction, dict(bindings))
        if isinstance(frac, Var) and frac in unbound:
            return _consume_alive_any(
                model, state, part, frac, rest, bindings, unbound, depth
            )
    ground = part.subst(dict(bindings))
    results: list[Match] = []
    outcomes = model.consume_core(state, ground)
    for out in outcomes:
        if out.error is not None or out.state is None:
            continue
        if not model.feasible(out.state):
            continue
        b, u = dict(bindings), set(unbound)
        ok = True
        for key, expr in _out_specs(model, part):
            if key not in out.actuals:
                continue
            res = unify(model, out.state, expr, out.actuals[key], b, u)
            if res is None:
                ok = False
                break
            b, u = res
        if not ok:
            continue
        results.extend(_consume_parts(model, out.state, rest, b, u, depth))
    if results:
        return results
    # Fold-on-the-fly for named predicates.
    if isinstance(part, Pred) and depth < MAX_FOLD_DEPTH:
        results = _fold_during_consume(
            model, state, part, rest, bindings, unbound, depth
        )
    if not results and depth < MAX_FOLD_DEPTH:
        results = _unfold_during_consume(
            model, state, part, rest, bindings, unbound, depth
        )
    return results


def _unfold_during_consume(
    model: RustStateModel,
    state: RustState,
    part: Assertion,
    rest: list[Assertion],
    bindings: dict[Var, Term],
    unbound: set[Var],
    depth: int,
) -> list[Match]:
    """When a part cannot be consumed directly, try unfolding a folded
    predicate that might expose it.

    Restriction: only unfoldings with exactly one *feasible* branch are
    attempted. Consumption is angelic (we choose how to prove) while
    unfolding is demonic (all disjuncts are real executions); a
    single-branch unfold is both, so mixing them stays sound.
    """
    from repro.gillian.matcher import TacticError, unfold

    for inst in state.preds:
        pdef = model.program.predicates.get(inst.name)
        if pdef is None or pdef.abstract or not pdef.disjuncts:
            continue
        try:
            opened = unfold(model, state, inst)
        except TacticError:
            continue
        feasible = [s for s in opened if model.feasible(s)]
        if len(feasible) != 1:
            continue
        results = _consume_parts(
            model, feasible[0], [part] + rest, bindings, unbound, depth + 1
        )
        if results:
            return results
    return []


def _consume_alive_any(
    model: RustStateModel,
    state: RustState,
    part: AliveLft,
    frac_var: Var,
    rest: list[Assertion],
    bindings: dict[Var, Term],
    unbound: set[Var],
    depth: int,
) -> list[Match]:
    """Consume ``[κ]_q`` for an unbound ``q``: give up half of the held
    fraction and bind ``q`` to it (callers stay able to open borrows)."""
    from dataclasses import replace as _replace

    kappa = substitute(part.lifetime, dict(bindings))
    out = state.lifetimes.consume_alive_any(kappa, model.solver, state.pc)
    if out.ctx is None:
        return []
    nb = dict(bindings)
    nb[frac_var] = out.fraction
    new_state = _replace(state, lifetimes=out.ctx)
    return _consume_parts(
        model, new_state, rest, nb, unbound - {frac_var}, depth
    )


def _consume_borrow(
    model: RustStateModel,
    state: RustState,
    part: Borrow,
    rest: list[Assertion],
    bindings: dict[Var, Term],
    unbound: set[Var],
    depth: int,
) -> list[Match]:
    """Match a borrow against γ, learning unbound argument positions."""
    from dataclasses import replace as _replace

    ground = part.subst(dict(bindings))
    results: list[Match] = []
    for inst in state.borrows.borrows_named(ground.pred):
        if not model.solver.entails(state.pc, eq(inst.lifetime, ground.lifetime)):
            continue
        if len(inst.args) != len(ground.args):
            continue
        b, u = dict(bindings), set(unbound)
        ok = True
        for expr, actual in zip(part.args, inst.args):
            res = unify(model, state, expr, actual, b, u)
            if res is None:
                ok = False
                break
            b, u = res
        if not ok:
            continue
        new_state = _replace(state, borrows=state.borrows.remove_borrow(inst))
        results.extend(_consume_parts(model, new_state, rest, b, u, depth))
        if results:
            return results
    return results


def _fold_during_consume(
    model: RustStateModel,
    state: RustState,
    part: Pred,
    rest: list[Assertion],
    bindings: dict[Var, Term],
    unbound: set[Var],
    depth: int,
) -> list[Match]:
    pdef = model.program.predicates.get(part.name)
    if pdef is None or pdef.abstract or not pdef.disjuncts:
        return []
    # Instantiate the definition: in-args from the (ground) call, out
    # args as fresh unbound variables learned from the body.
    args: list[Term] = []
    fresh_outs: list[tuple[int, Var]] = []
    for i, (p, a) in enumerate(zip(pdef.params, part.args)):
        ai = substitute(a, dict(bindings))
        if i in pdef.out_indices():
            v = fresh_var(f"fold_{pdef.name}_{p.var.name}", p.var.sort)
            fresh_outs.append((i, v))
            args.append(v)
        else:
            args.append(ai)
    results: list[Match] = []
    for body in pdef.instantiate(args):
        body_unbound = set(unbound) | {v for _, v in fresh_outs}
        try:
            sub_matches = consume(
                model, state, body, bindings, body_unbound, depth + 1
            )
        except ConsumeFailure:
            continue
        for m in sub_matches:
            b, u = dict(m.bindings), set(body_unbound) - set(m.bindings)
            ok = True
            for i, v in fresh_outs:
                learned = m.bindings.get(v)
                if learned is None:
                    ok = False
                    break
                res = unify(model, m.state, part.args[i], learned, b, u & unbound)
                if res is None:
                    ok = False
                    break
                b, u2 = res
                u = (u - unbound) | u2
            if not ok:
                continue
            b = {k: v for k, v in b.items() if k not in {fv for _, fv in fresh_outs}}
            results.extend(
                _consume_parts(model, m.state, rest, b, u & unbound, depth)
            )
    return results

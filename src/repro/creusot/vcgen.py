"""The Creusot half of the hybrid pipeline: safe-Rust verification (§2.1).

Creusot never sees the real representation of objects: it executes
over *pure models* (shallow models), encoding mutable borrows
prophetically à la RustHorn — a ``&mut T`` is the pair
``(current model, final model)`` where the final model is a prophecy
variable resolved when the borrow expires. This yields first-order
verification conditions our solver discharges directly; no separation
logic is involved (that is the whole point, §2.1).

Unsafe APIs (``LinkedList``) are *axiomatised*: their Pearlite
contracts are assumed at call sites. The Gillian-Rust half of the
pipeline is what justifies those axioms (§5.4) — see
:mod:`repro.hybrid.pipeline`.

Supported safe fragment: CFGs with Option matches, machine arithmetic
(with panic-freedom obligations), local borrows and reborrows passed
to calls, writes through mutable references with explicit resolution
points (``mutref_auto_resolve`` marks where the borrow checker ends
the borrow), and loops with ``#[invariant]`` annotations
(invariant-cut semantics: check, havoc the modified locals, assume;
back edges close the cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.obs import clock, span
from repro.gilsonite.ownable import OwnableRegistry
from repro.lang.mir import (
    Aggregate,
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
    Ghost,
    GhostAssert,
    Goto,
    LoopInvariant,
    Move,
    MutRefAutoResolve,
    Nop,
    Operand,
    Place,
    Program,
    Ref,
    Return,
    Rvalue,
    SwitchInt,
    UnaryOp,
    Unreachable,
    Use,
)
from repro.lang.types import AdtTy, BoolTy, IntTy, RefTy, Ty, UnitTy
from repro.lang.typing import operand_ty, place_ty
from repro.pearlite.ast import PearliteSpec, PTerm
from repro.pearlite.encode import PearliteEncoder, _Binding
from repro.pearlite.parser import parse_pearlite
from repro.solver.core import Solver, Status
from repro.solver.sorts import BOOL
from repro.solver.terms import (
    Term,
    add,
    and_,
    boollit,
    div,
    eq,
    fresh_var,
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


@dataclass
class CreusotIssue:
    function: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.function} @ {self.where}: {self.message}"


@dataclass
class CreusotResult:
    function: str
    ok: bool
    issues: list[CreusotIssue] = field(default_factory=list)
    elapsed: float = 0.0
    branches: int = 0
    vcs: int = 0

    def __str__(self) -> str:
        mark = "✓" if self.ok else "✗"
        return (
            f"{mark} {self.function} [creusot] "
            f"({self.elapsed * 1000:.1f} ms, {self.vcs} VCs)"
        )


def _normalise_contract(c: Union[PearliteSpec, dict, None]) -> PearliteSpec:
    if c is None:
        return PearliteSpec()
    if isinstance(c, PearliteSpec):
        return c
    return PearliteSpec(
        requires=tuple(
            parse_pearlite(s) if isinstance(s, str) else s
            for s in c.get("requires", ())
        ),
        ensures=tuple(
            parse_pearlite(s) if isinstance(s, str) else s
            for s in c.get("ensures", ())
        ),
    )


@dataclass
class _Cfg:
    """A symbolic configuration: model environment + path condition.

    ``cut_heads`` records loop heads whose invariant this path has
    already been havocked at — reaching one again closes the cycle
    (the invariant-preservation check happened on entry)."""

    env: dict[str, Term]
    pc: tuple[Term, ...]
    cut_heads: frozenset = frozenset()


class CreusotVerifier:
    """WP-style verification of safe bodies over pure models."""

    def __init__(
        self,
        program: Program,
        ownables: OwnableRegistry,
        contracts: dict[str, Union[PearliteSpec, dict]],
        solver: Optional[Solver] = None,
    ) -> None:
        self.program = program
        self.ownables = ownables
        #: name -> Pearlite contract as given (raw or parsed). Entries
        #: may be replaced and the table swapped; :meth:`contract`
        #: parses what it reads.
        self.contracts = contracts
        self.solver = solver or Solver()
        self.encoder = PearliteEncoder(ownables)
        #: name -> (raw contract, its normalised form), filled on first
        #: use and renewed when the raw contract changes.
        self._parsed: dict[str, tuple[object, PearliteSpec]] = {}

    def contract(self, name: str) -> Optional[PearliteSpec]:
        """``name``'s contract, normalised (parsed) on first use and
        reused while the raw contract stays equal; ``None`` when the
        table has no entry for ``name``."""
        if name not in self.contracts:
            return None
        raw = self.contracts[name]
        known = self._parsed.get(name)
        if known is None or known[0] != raw:
            known = self._parsed[name] = (raw, _normalise_contract(raw))
        return known[1]

    # -- public API ----------------------------------------------------------

    def verify(self, body: Body) -> CreusotResult:
        started = clock.now()
        result = CreusotResult(body.name, ok=True)
        if not body.is_safe:
            result.ok = False
            result.issues.append(
                CreusotIssue(
                    body.name,
                    "entry",
                    "body contains unsafe code: out of Creusot's reach "
                    "(delegate to Gillian-Rust)",
                )
            )
            result.elapsed = clock.now() - started
            return result
        with span("vcgen", function=body.name):
            contract = self.contract(body.name) or PearliteSpec()
            env: dict[str, Term] = {}
            pc: list[Term] = []
            for pname, pty in body.params:
                m = fresh_var(f"m_{pname}", self.ownables.repr_sort(pty))
                env[pname] = m
                pc.extend(self._model_invariants(pty, m))
            penv = self._pearlite_env(body, env)
            for r in contract.requires:
                pc.append(self.encoder.encode_term(r, penv))
            self._run(body, _Cfg(env, tuple(pc)), body.entry, contract, result)
        result.elapsed = clock.now() - started
        return result

    # -- model typing helpers ---------------------------------------------------

    def _model_invariants(self, ty: Ty, m: Term) -> list[Term]:
        """Type-level facts about a model value (integer ranges)."""
        if isinstance(ty, IntTy):
            return [le(intlit(ty.min_value), m), le(m, intlit(ty.max_value))]
        if isinstance(ty, RefTy) and isinstance(ty.pointee, IntTy):
            inner = ty.pointee
            out = []
            for i in (0, 1):
                out.append(le(intlit(inner.min_value), tuple_get(m, i)))
                out.append(le(tuple_get(m, i), intlit(inner.max_value)))
            return out
        return []

    def _pearlite_env(self, body: Body, env: dict[str, Term]) -> dict[str, _Binding]:
        out = {}
        for pname, pty in body.params:
            out[pname] = _Binding(
                env[pname], isinstance(pty, RefTy) and pty.mutable
            )
        return out

    # -- execution ------------------------------------------------------------

    def _run(self, body, cfg: _Cfg, block: str, contract, result) -> None:
        worklist = [(cfg, block)]
        steps = 0
        while worklist:
            cfg, bname = worklist.pop()
            steps += 1
            if steps > 2000:
                result.ok = False
                result.issues.append(
                    CreusotIssue(body.name, bname, "step budget exhausted")
                )
                return
            bb = body.blocks[bname]
            statements = list(bb.statements)
            # Loop head: invariant-cut semantics.
            if statements and isinstance(statements[0], Ghost) and isinstance(
                statements[0].ghost, LoopInvariant
            ):
                cfg = self._loop_cut(body, cfg, bname, statements[0].ghost, result)
                if cfg is None:
                    continue  # cycle closed (or invariant failed)
                statements = statements[1:]
            ok = True
            for st in statements:
                cfg = self._exec_statement(body, cfg, st, result)
                if cfg is None:
                    ok = False
                    break
            if not ok:
                continue
            term = bb.terminator
            if isinstance(term, Goto):
                worklist.append((cfg, term.target))
            elif isinstance(term, Return):
                result.branches += 1
                self._check_ensures(body, cfg, contract, result)
            elif isinstance(term, Unreachable):
                if self.solver.check_sat(cfg.pc) != Status.UNSAT:
                    result.ok = False
                    result.issues.append(
                        CreusotIssue(body.name, bname, "reachable unreachable")
                    )
            elif isinstance(term, SwitchInt):
                self._exec_switch(body, cfg, term, worklist, result)
            elif isinstance(term, Call):
                out = self._exec_call(body, cfg, term, result)
                if out is not None:
                    worklist.append((out, term.target))
            else:
                raise TypeError(term)

    def _loop_cut(
        self, body, cfg: _Cfg, bname: str, inv: "LoopInvariant", result
    ) -> Optional[_Cfg]:
        """Invariant cut: check the invariant holds (establishment on
        first entry, preservation on the back edge); on first entry
        havoc the modified locals and assume the invariant."""
        penv = self._assert_env(body, cfg)
        goal = self.encoder.encode_term(parse_pearlite(inv.formula), penv)
        result.vcs += 1
        if not self.solver.entails(cfg.pc, goal):
            kind = "preserved" if bname in cfg.cut_heads else "established"
            result.ok = False
            result.issues.append(
                CreusotIssue(
                    body.name, bname, f"loop invariant not {kind}: {inv.formula}"
                )
            )
            return None
        if bname in cfg.cut_heads:
            return None  # back edge: the cycle is closed
        env = dict(cfg.env)
        pc = list(cfg.pc)
        all_tys = dict(body.params) | dict(body.locals)
        for name in inv.modifies:
            ty = all_tys.get(name)
            if ty is None:
                result.ok = False
                result.issues.append(
                    CreusotIssue(body.name, bname, f"unknown modifies local {name}")
                )
                return None
            if isinstance(ty, RefTy) and ty.mutable:
                # Havoc only the current model; the final model (the
                # prophecy) is fixed by the borrow's creator.
                old = env[name]
                cur = fresh_var(f"havoc_{name}", self.ownables.repr_sort(ty.pointee))
                env[name] = tuple_mk(cur, tuple_get(old, 1))
            else:
                env[name] = fresh_var(f"havoc_{name}", self.ownables.repr_sort(ty))
            pc.extend(self._model_invariants(ty, env[name]))
        havocked = _Cfg(env, tuple(pc), cfg.cut_heads | {bname})
        penv2 = self._assert_env(body, havocked)
        assumed = self.encoder.encode_term(parse_pearlite(inv.formula), penv2)
        return _Cfg(env, tuple(pc) + (assumed,), havocked.cut_heads)

    def _exec_statement(self, body, cfg: _Cfg, st, result) -> Optional[_Cfg]:
        if isinstance(st, Nop):
            return cfg
        if isinstance(st, Ghost):
            return self._exec_ghost(body, cfg, st.ghost, result)
        assert isinstance(st, Assign)
        value = self._eval_rvalue(body, cfg, st.rvalue, result)
        if value is None:
            return None
        cfg, value = value
        return self._write_place(body, cfg, st.place, value)

    def _exec_ghost(self, body, cfg: _Cfg, g, result) -> Optional[_Cfg]:
        if isinstance(g, MutRefAutoResolve):
            # End-of-borrow resolution: ⟨fin = cur⟩ becomes a fact.
            m = self._read_place(body, cfg, g.place)
            fact = eq(tuple_get(m, 1), tuple_get(m, 0))
            return _Cfg(cfg.env, cfg.pc + (fact,), cfg.cut_heads)
        if isinstance(g, GhostAssert):
            term = parse_pearlite(g.formula)
            penv = self._assert_env(body, cfg)
            goal = self.encoder.encode_term(term, penv)
            result.vcs += 1
            if not self.solver.entails(cfg.pc, goal):
                result.ok = False
                result.issues.append(
                    CreusotIssue(body.name, str(g), f"assertion not provable: {g.formula}")
                )
                return None
            return cfg
        return cfg

    def _assert_env(self, body, cfg: _Cfg) -> dict:
        out = {}
        all_tys = dict(body.params) | dict(body.locals)
        for name, m in cfg.env.items():
            ty = all_tys.get(name)
            out[name] = _Binding(
                m, isinstance(ty, RefTy) and ty.mutable if ty else False
            )
        return out

    # -- places over models -----------------------------------------------------

    def _read_place(self, body, cfg: _Cfg, place: Place) -> Term:
        m = cfg.env[place.local]
        cur_ty = body.local_ty(place.local)
        variant = None
        for elem in place.projections:
            if isinstance(elem, DerefProj):
                assert isinstance(cur_ty, RefTy)
                if cur_ty.mutable:
                    m = tuple_get(m, 0)
                cur_ty = cur_ty.pointee
            elif isinstance(elem, DowncastProj):
                variant = elem.variant
            elif isinstance(elem, FieldProj):
                if isinstance(cur_ty, AdtTy) and cur_ty.name == "Option" and variant == 1:
                    m = some_val(m)
                    cur_ty = cur_ty.args[0]
                    variant = None
                else:
                    raise TypeError(f"safe model projection into {cur_ty}")
            else:
                raise TypeError(elem)
        return m

    def _write_place(self, body, cfg: _Cfg, place: Place, value: Term) -> _Cfg:
        env = dict(cfg.env)
        if not place.projections:
            env[place.local] = value
            return _Cfg(env, cfg.pc, cfg.cut_heads)
        # Write through a mutable reference: update the current model.
        if len(place.projections) == 1 and isinstance(place.projections[0], DerefProj):
            ty = body.local_ty(place.local)
            assert isinstance(ty, RefTy) and ty.mutable
            m = cfg.env[place.local]
            env[place.local] = tuple_mk(value, tuple_get(m, 1))
            return _Cfg(env, cfg.pc, cfg.cut_heads)
        raise TypeError(f"unsupported safe write {place}")

    # -- rvalues -------------------------------------------------------------------

    def _eval_operand(self, body, cfg: _Cfg, op: Operand) -> Term:
        if isinstance(op, Constant):
            c = op.const
            if isinstance(c.ty, IntTy):
                return intlit(c.value)
            if isinstance(c.ty, BoolTy):
                return boollit(c.value)
            if isinstance(c.ty, UnitTy):
                return tuple_mk()
            raise TypeError(c)
        return self._read_place(body, cfg, op.place)

    def _eval_rvalue(self, body, cfg: _Cfg, rv: Rvalue, result):
        if isinstance(rv, Use):
            return cfg, self._eval_operand(body, cfg, rv.operand)
        if isinstance(rv, UnaryOp):
            v = self._eval_operand(body, cfg, rv.operand)
            return cfg, (not_(v) if rv.op == "not" else neg(v))
        if isinstance(rv, BinaryOp):
            return self._eval_binop(body, cfg, rv, result)
        if isinstance(rv, Ref):
            # Prophetic borrow: (current, fresh prophecy); the borrowed
            # local's model jumps to the prophecy (RustHorn, §5).
            local_ty = body.local_ty(rv.place.local)
            if not rv.place.projections:
                cur = cfg.env[rv.place.local]
                fin = fresh_var(
                    f"proph_{rv.place.local}", self.ownables.repr_sort(local_ty)
                )
                env = dict(cfg.env)
                env[rv.place.local] = fin
                return _Cfg(env, cfg.pc, cfg.cut_heads), tuple_mk(cur, fin)
            # Reborrow &mut *r: fresh prophecy spliced into the chain —
            # r's current model becomes the reborrow's final model.
            if len(rv.place.projections) == 1 and isinstance(
                rv.place.projections[0], DerefProj
            ):
                assert isinstance(local_ty, RefTy) and local_ty.mutable
                m = cfg.env[rv.place.local]
                fin = fresh_var(
                    f"reborrow_{rv.place.local}",
                    self.ownables.repr_sort(local_ty.pointee),
                )
                env = dict(cfg.env)
                env[rv.place.local] = tuple_mk(fin, tuple_get(m, 1))
                return _Cfg(env, cfg.pc, cfg.cut_heads), tuple_mk(tuple_get(m, 0), fin)
            raise TypeError(f"unsupported borrow of {rv.place}")
        if isinstance(rv, Aggregate):
            vals = [self._eval_operand(body, cfg, o) for o in rv.operands]
            ty = rv.ty
            if isinstance(ty, AdtTy) and ty.name == "Option":
                inner = self.ownables.repr_sort(ty.args[0])
                return cfg, (none(inner) if rv.variant == 0 else some(vals[0]))
            return cfg, tuple_mk(*vals)
        if isinstance(rv, Discriminant):
            m = self._read_place(body, cfg, rv.place)
            return cfg, ite(is_some(m), intlit(1), intlit(0))
        if isinstance(rv, Cast):
            return cfg, self._eval_operand(body, cfg, rv.operand)
        raise TypeError(rv)

    def _eval_binop(self, body, cfg: _Cfg, rv: BinaryOp, result):
        a = self._eval_operand(body, cfg, rv.lhs)
        b = self._eval_operand(body, cfg, rv.rhs)
        cmps = {
            "eq": eq, "ne": lambda x, y: not_(eq(x, y)),
            "lt": lt, "le": le,
            "gt": lambda x, y: lt(y, x), "ge": lambda x, y: le(y, x),
            "and": and_, "or": or_,
        }
        if rv.op in cmps:
            return cfg, cmps[rv.op](a, b)
        arith = {"add": add, "sub": sub, "mul": mul, "div": div, "rem": mod}
        value = arith[rv.op](a, b)
        ty = operand_ty(self.program, body, rv.lhs)
        if isinstance(ty, IntTy):
            # Creusot proves panic freedom: overflow is an obligation.
            ok = and_(le(intlit(ty.min_value), value), le(value, intlit(ty.max_value)))
            if rv.op in ("div", "rem"):
                ok = not_(eq(b, intlit(0)))
            result.vcs += 1
            if not self.solver.entails(cfg.pc, ok):
                result.ok = False
                result.issues.append(
                    CreusotIssue(body.name, str(rv), "possible panic (overflow/div)")
                )
                return None
        return cfg, value

    # -- control flow -----------------------------------------------------------------

    def _exec_switch(self, body, cfg: _Cfg, term: SwitchInt, worklist, result):
        discr = self._eval_operand(body, cfg, term.discr)
        if discr.sort == BOOL:
            discr = ite(discr, intlit(1), intlit(0))
        not_taken = []
        for value, target in term.targets:
            fact = eq(discr, intlit(value))
            not_taken.append(not_(fact))
            pc = cfg.pc + (fact,)
            if self.solver.check_sat(pc) != Status.UNSAT:
                worklist.append((_Cfg(dict(cfg.env), pc, cfg.cut_heads), target))
        if term.otherwise is not None:
            pc = cfg.pc + tuple(not_taken)
            if self.solver.check_sat(pc) != Status.UNSAT:
                worklist.append((_Cfg(dict(cfg.env), pc, cfg.cut_heads), term.otherwise))

    def _exec_call(self, body, cfg: _Cfg, term: Call, result) -> Optional[_Cfg]:
        # Box is model-transparent for Creusot: Box<T>'s shallow model
        # is T's model.
        if term.func == "Box::new":
            m = self._eval_operand(body, cfg, term.args[0])
            env = dict(cfg.env)
            env[term.dest.local] = m
            return _Cfg(env, cfg.pc, cfg.cut_heads)
        if term.func == "intrinsic::box_free":
            env = dict(cfg.env)
            env[term.dest.local] = tuple_mk()
            return _Cfg(env, cfg.pc, cfg.cut_heads)
        contract = self.contract(term.func)
        callee = self.program.bodies.get(term.func)
        if contract is None or callee is None:
            result.ok = False
            result.issues.append(
                CreusotIssue(body.name, str(term), f"no contract for {term.func}")
            )
            return None
        arg_models = []
        for op in term.args:
            v = self._eval_rvalue(body, cfg, Use(op), result)
            if v is None:
                return None
            cfg, m = v
            arg_models.append(m)
        penv = {}
        for (pname, pty), m in zip(callee.params, arg_models):
            penv[pname] = _Binding(m, isinstance(pty, RefTy) and pty.mutable)
        # Check requires.
        for r in contract.requires:
            goal = self.encoder.encode_term(r, penv)
            result.vcs += 1
            if not self.solver.entails(cfg.pc, goal):
                result.ok = False
                result.issues.append(
                    CreusotIssue(
                        body.name, str(term), f"precondition of {term.func}: {r}"
                    )
                )
                return None
        # Havoc result, assume ensures (the unsafe API axioms, §5.4).
        pc = list(cfg.pc)
        env = dict(cfg.env)
        if not isinstance(callee.return_ty, UnitTy):
            ret = fresh_var(f"ret_{term.func}", self.ownables.repr_sort(callee.return_ty))
            penv["result"] = _Binding(
                ret,
                isinstance(callee.return_ty, RefTy) and callee.return_ty.mutable,
            )
            pc.extend(self._model_invariants(callee.return_ty, ret))
            env[term.dest.local] = ret
        else:
            env[term.dest.local] = tuple_mk()
        for e in contract.ensures:
            pc.append(self.encoder.encode_term(e, penv))
        new = _Cfg(env, tuple(pc), cfg.cut_heads)
        if self.solver.check_sat(new.pc) == Status.UNSAT:
            return None  # the callee cannot return on this branch
        return new

    def _check_ensures(self, body, cfg: _Cfg, contract, result) -> None:
        penv = self._assert_env(body, cfg)
        ret = cfg.env.get("_ret")
        if ret is not None:
            penv["result"] = _Binding(
                ret,
                isinstance(body.return_ty, RefTy) and body.return_ty.mutable,
            )
        for e in contract.ensures:
            goal = self.encoder.encode_term(e, penv)
            result.vcs += 1
            if not self.solver.entails(cfg.pc, goal):
                result.ok = False
                result.issues.append(
                    CreusotIssue(body.name, "ensures", f"not provable: {e}")
                )

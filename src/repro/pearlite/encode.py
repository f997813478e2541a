"""The systematic Pearlite → Gilsonite encoding (§5.4).

Elaboration schema::

    {P} fn f(x₁:T₁,…,xₙ:Tₙ) -> T_ret {Q}
      ⇓
    { ⊛ᵢ ⌊Tᵢ⌋(xᵢ, mᵢ) * ⟨P[xᵢ/mᵢ]⟩ }
      fn f(…)
    { ∃m_ret. ⌊T_ret⌋(ret, m_ret) * ⟨Q[xᵢ/mᵢ][ret/m_ret]⟩ }

Pearlite terms are interpreted over *representation values*:

* ``x``  of an owned type   → its repr value ``mᵢ``;
* ``x@`` of ``&mut T``      → ``fst mᵢ`` (current model);
* ``(^x)@``                 → ``snd mᵢ`` (the prophecy, §5.1);
* ``Seq::…`` / ``.len()``   → the solver's sequence theory;
* ``match`` over ``Option`` reprs → ``ite(is_some(..), …, …)``.

``auto_extract`` implements the §7.3 "extracting knowledge from
observations" rule: a requires-clause that does not depend on
prophetic information (no ``^``) is also added as a *pure*
precondition, making it available to overflow checks without manual
intervention — the paper leaves this automation as future work; we
provide it behind a flag (the E8 tests cover all three modes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.obs import span
from repro.gilsonite.ast import Pure
from repro.gilsonite.ownable import OwnableRegistry
from repro.gilsonite.specs import Spec, functional_spec
from repro.lang.mir import Body
from repro.lang.types import IntTy, RefTy, Ty, UnitTy
from repro.pearlite.ast import (
    PBin,
    PBool,
    PCall,
    PFinal,
    PInt,
    PMatch,
    PModel,
    PNot,
    PTerm,
    PVar,
    PearliteSpec,
)
from repro.pearlite.parser import parse_pearlite
from repro.solver.sorts import INT, OptionSort, SeqSort, Sort
from repro.solver.terms import (
    Term,
    Var,
    add,
    and_,
    boollit,
    eq,
    ge,
    gt,
    implies,
    intlit,
    is_some,
    ite,
    le,
    lt,
    mul,
    none,
    not_,
    or_,
    seq_append,
    seq_at,
    seq_cons,
    seq_empty,
    seq_len,
    some,
    some_val,
    sub,
    tuple_get,
)


class EncodeError(Exception):
    pass


@dataclass
class _Binding:
    """A Pearlite variable: is it a mutable reference (repr = pair)?"""

    repr_term: Term
    is_mut_ref: bool


class PearliteEncoder:
    """Interprets Pearlite terms over representation values."""

    def __init__(self, ownables: OwnableRegistry) -> None:
        self.ownables = ownables

    # -- term encoding ------------------------------------------------------

    def encode_term(
        self,
        t: PTerm,
        env: dict[str, _Binding],
        expect: Optional[Sort] = None,
    ) -> Term:
        if isinstance(t, PInt):
            return intlit(t.value)
        if isinstance(t, PBool):
            return boollit(t.value)
        if isinstance(t, PVar):
            b = env.get(t.name)
            if b is None:
                raise EncodeError(f"unbound Pearlite variable {t.name}")
            if b.is_mut_ref:
                # A bare mutable reference denotes its current model.
                return tuple_get(b.repr_term, 0)
            return b.repr_term
        if isinstance(t, PModel):
            return self._encode_model(t.inner, env)
        if isinstance(t, PFinal):
            return self._final(t.inner, env)
        if isinstance(t, PNot):
            return not_(self.encode_term(t.inner, env))
        if isinstance(t, PBin):
            return self._encode_bin(t, env, expect)
        if isinstance(t, PCall):
            return self._encode_call(t, env, expect)
        if isinstance(t, PMatch):
            return self._encode_match(t, env, expect)
        raise EncodeError(f"cannot encode {t}")

    def _encode_model(self, inner: PTerm, env: dict[str, _Binding]) -> Term:
        if isinstance(inner, PVar):
            b = env.get(inner.name)
            if b is None:
                raise EncodeError(f"unbound Pearlite variable {inner.name}")
            if b.is_mut_ref:
                return tuple_get(b.repr_term, 0)
            return b.repr_term  # repr values *are* shallow models
        if isinstance(inner, PFinal):
            return self._final(inner.inner, env)
        # Model of a compound term: reprs are already models.
        return self.encode_term(inner, env)

    def _final(self, inner: PTerm, env: dict[str, _Binding]) -> Term:
        if not isinstance(inner, PVar):
            raise EncodeError(f"^ applies to mutable-reference variables: {inner}")
        b = env.get(inner.name)
        if b is None or not b.is_mut_ref:
            raise EncodeError(f"^{inner} needs a mutable reference")
        return tuple_get(b.repr_term, 1)

    def _encode_bin(
        self, t: PBin, env: dict[str, _Binding], expect: Optional[Sort]
    ) -> Term:
        if t.op in ("&&", "||", "==>"):
            lhs = self.encode_term(t.lhs, env)
            rhs = self.encode_term(t.rhs, env)
            return {"&&": and_, "||": or_, "==>": implies}[t.op](lhs, rhs)
        # For comparisons, evaluate one side first so sort-polymorphic
        # constants (Seq::EMPTY) on the other side get a sort.
        try:
            lhs = self.encode_term(t.lhs, env)
            rhs = self.encode_term(t.rhs, env, expect=lhs.sort)
        except EncodeError:
            rhs = self.encode_term(t.rhs, env)
            lhs = self.encode_term(t.lhs, env, expect=rhs.sort)
        ops = {
            "==": eq,
            "!=": lambda a, b: not_(eq(a, b)),
            "<": lt,
            "<=": le,
            ">": gt,
            ">=": ge,
            "+": add,
            "-": sub,
            "*": mul,
        }
        if t.op not in ops:
            raise EncodeError(f"unknown operator {t.op}")
        return ops[t.op](lhs, rhs)

    def _encode_call(
        self, t: PCall, env: dict[str, _Binding], expect: Optional[Sort]
    ) -> Term:
        f = t.func
        if f == "Seq::EMPTY":
            if not isinstance(expect, SeqSort):
                raise EncodeError("Seq::EMPTY needs a sequence sort from context")
            return seq_empty(expect.elem)
        if f == "Seq::cons":
            head = self.encode_term(t.args[0], env)
            tail = self.encode_term(t.args[1], env, expect=SeqSort(head.sort))
            return seq_cons(head, tail)
        if f == "Seq::concat":
            a = self.encode_term(t.args[0], env, expect=expect)
            b = self.encode_term(t.args[1], env, expect=a.sort)
            return seq_append(a, b)
        if f in (".len", "Seq::len"):
            return seq_len(self.encode_term(t.args[0], env))
        if f in (".get", "Seq::get", ".index_logic"):
            s = self.encode_term(t.args[0], env)
            i = self.encode_term(t.args[1], env)
            return seq_at(s, i)
        if f == ".shallow_model":
            return self._encode_model(t.args[0], env)
        if f in ("Some", "Option::Some"):
            return some(self.encode_term(t.args[0], env))
        if f in ("None", "Option::None"):
            if not isinstance(expect, OptionSort):
                raise EncodeError("None needs an Option sort from context")
            return none(expect.elem)
        if f.endswith("::MAX") or f.endswith("::MIN"):
            kind = f.split("::")[0]
            ty = IntTy(kind)
            return intlit(ty.max_value if f.endswith("MAX") else ty.min_value)
        raise EncodeError(f"unknown logical function {f}")

    def _encode_match(
        self, t: PMatch, env: dict[str, _Binding], expect: Optional[Sort]
    ) -> Term:
        scrut = self.encode_term(t.scrutinee, env)
        if not isinstance(scrut.sort, OptionSort):
            raise EncodeError(f"match only supported on Option reprs: {scrut.sort}")
        none_body: Optional[Term] = None
        some_body: Optional[Term] = None
        for arm in t.arms:
            if arm.ctor == "None":
                none_body = self.encode_term(arm.body, env, expect)
            elif arm.ctor == "Some":
                arm_env = dict(env)
                if arm.binders:
                    arm_env[arm.binders[0]] = _Binding(some_val(scrut), False)
                some_body = self.encode_term(arm.body, arm_env, expect)
            else:
                raise EncodeError(f"unknown Option pattern {arm.ctor}")
        if none_body is None or some_body is None:
            raise EncodeError("match must cover None and Some")
        return ite(is_some(scrut), some_body, none_body)

    # -- contract encoding (§5.4) --------------------------------------------

    def encode_contract(
        self,
        body: Body,
        spec: Union[PearliteSpec, dict],
        auto_extract: bool = False,
        manual_pure_pre: Sequence[PTerm] = (),
    ) -> Spec:
        """Elaborate a Pearlite contract into a Gilsonite Spec."""
        with span("encode", function=body.name):
            return self._encode_contract(
                body, spec, auto_extract, manual_pure_pre
            )

    def _encode_contract(
        self,
        body: Body,
        spec: Union[PearliteSpec, dict],
        auto_extract: bool,
        manual_pure_pre: Sequence[PTerm],
    ) -> Spec:
        if isinstance(spec, dict):
            spec = PearliteSpec(
                requires=tuple(
                    parse_pearlite(s) if isinstance(s, str) else s
                    for s in spec.get("requires", ())
                ),
                ensures=tuple(
                    parse_pearlite(s) if isinstance(s, str) else s
                    for s in spec.get("ensures", ())
                ),
            )
        repr_vars: dict[str, Var] = {}
        env: dict[str, _Binding] = {}
        for pname, pty in body.params:
            m = Var(f"m_{pname}", self.ownables.repr_sort(pty))
            repr_vars[pname] = m
            env[pname] = _Binding(m, isinstance(pty, RefTy) and pty.mutable)
        m_ret: Optional[Var] = None
        if not isinstance(body.return_ty, UnitTy):
            m_ret = Var("m_ret", self.ownables.repr_sort(body.return_ty))
            env["result"] = _Binding(
                m_ret, isinstance(body.return_ty, RefTy) and body.return_ty.mutable
            )
        requires_terms = [self.encode_term(r, env) for r in spec.requires]
        ensures_terms = [self.encode_term(e, env) for e in spec.ensures]
        extra_pre = [
            Pure(self.encode_term(p, env)) for p in manual_pure_pre
        ]
        if auto_extract:
            # §7.3: a requires-clause independent of prophetic
            # information may be extracted from its observation.
            for r, enc in zip(spec.requires, requires_terms):
                if not _mentions_final(r):
                    extra_pre.append(Pure(enc))
        return functional_spec(
            self.ownables,
            body,
            requires_obs=and_(*requires_terms) if requires_terms else None,
            ensures_obs=and_(*ensures_terms) if ensures_terms else None,
            repr_vars=repr_vars,
            ret_repr_var=m_ret,
            extra_pre=extra_pre,
        )


def _mentions_final(t: PTerm) -> bool:
    if isinstance(t, PFinal):
        return True
    for field in getattr(t, "__dataclass_fields__", {}):
        v = getattr(t, field)
        if isinstance(v, PTerm) and _mentions_final(v):
            return True
        if isinstance(v, tuple):
            for x in v:
                if isinstance(x, PTerm) and _mentions_final(x):
                    return True
                if hasattr(x, "body") and _mentions_final(x.body):
                    return True
    return False

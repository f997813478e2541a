"""Typed symbolic values and validity invariants.

Maps Rust types to solver sorts, creates fresh symbolic values, and
produces the *validity invariants* that loads and stores must maintain
(§3.2: e.g. booleans are only the bit-patterns 0b0/0b1; machine
integers are in range; ``Some`` payloads are themselves valid).

Value encoding:

* machine integers -> ``Int`` (+ range constraint in the path condition);
* ``bool``         -> ``Bool``;
* ``char``         -> ``Int`` with the Unicode-scalar validity range;
* structs/tuples   -> tuple terms over the field values;
* ``Option<T>``    -> ``Option`` sort (``none`` / ``some`` constructors);
* other enums      -> constructor terms ``mk.Enum:variant(payload...)``;
* pointers (raw, refs, ``Box``) -> ``Loc``;
* arrays           -> ``Seq`` over the element encoding;
* type parameters  -> an opaque uninterpreted sort.
"""

from __future__ import annotations

from typing import Iterable

from repro.lang.types import (
    AdtTy,
    ArrayTy,
    BoolTy,
    CharTy,
    IntTy,
    ParamTy,
    RawPtrTy,
    RefTy,
    TupleTy,
    Ty,
    TypeRegistry,
    UnitTy,
)
from repro.solver.sorts import (
    BOOL,
    INT,
    LOC,
    OptionSort,
    SeqSort,
    Sort,
    TupleSort,
    UninterpSort,
)
from repro.solver.terms import (
    App,
    Term,
    and_,
    eq,
    fresh_var,
    implies,
    intlit,
    is_some,
    le,
    seq_len,
    some,
    some_val,
    tuple_get,
)


class ValueError_(Exception):
    """A type cannot be value-encoded (e.g. infinite by-value recursion)."""


def ty_to_sort(ty: Ty, registry: TypeRegistry, _depth: int = 0) -> Sort:
    if _depth > 64:
        raise ValueError_(f"by-value recursion while encoding {ty}")
    if isinstance(ty, IntTy):
        return INT
    if isinstance(ty, BoolTy):
        return BOOL
    if isinstance(ty, CharTy):
        return INT
    if isinstance(ty, UnitTy):
        return TupleSort(())
    if isinstance(ty, (RawPtrTy, RefTy)):
        return LOC
    if isinstance(ty, TupleTy):
        return TupleSort(
            tuple(ty_to_sort(e, registry, _depth + 1) for e in ty.elems)
        )
    if isinstance(ty, ArrayTy):
        return SeqSort(ty_to_sort(ty.elem, registry, _depth + 1))
    if isinstance(ty, ParamTy):
        return UninterpSort(f"val:{ty.name}")
    if isinstance(ty, AdtTy):
        if ty.name == "Option":
            return OptionSort(ty_to_sort(ty.args[0], registry, _depth + 1))
        if ty.name == "Box":
            return LOC
        d, mapping = registry.instantiate(ty)
        if d.is_struct:
            return TupleSort(
                tuple(
                    ty_to_sort(registry.subst(f.ty, mapping), registry, _depth + 1)
                    for f in d.struct_fields
                )
            )
        return UninterpSort(f"enum:{ty}")
    raise ValueError_(f"cannot encode {ty}")


def enum_variant_ctor(ty: AdtTy, variant: int, payload: Iterable[Term]) -> Term:
    """Constructor term for a non-Option enum variant."""
    sort = UninterpSort(f"enum:{ty}")
    return App(f"mk.{ty}:{variant}", tuple(payload), sort)


def fresh_value(prefix: str, ty: Ty, registry: TypeRegistry) -> Term:
    """A fresh symbolic value of the given type (invariants separate)."""
    return fresh_var(prefix, ty_to_sort(ty, registry))


def validity_constraints(
    ty: Ty, value: Term, registry: TypeRegistry, _depth: int = 0
) -> list[Term]:
    """The invariants a stored value of type ``ty`` must satisfy."""
    if _depth > 64:
        raise ValueError_(f"by-value recursion in invariants of {ty}")
    out: list[Term] = []
    if isinstance(ty, IntTy):
        out.append(le(intlit(ty.min_value), value))
        out.append(le(value, intlit(ty.max_value)))
    elif isinstance(ty, CharTy):
        out.append(le(intlit(0), value))
        out.append(le(value, intlit(0x10FFFF)))
    elif isinstance(ty, TupleTy):
        for i, ety in enumerate(ty.elems):
            out.extend(
                validity_constraints(ety, tuple_get(value, i), registry, _depth + 1)
            )
    elif isinstance(ty, ArrayTy):
        out.append(eq(seq_len(value), intlit(ty.length)))
    elif isinstance(ty, AdtTy):
        if ty.name == "Option":
            inner = validity_constraints(
                ty.args[0], some_val(value), registry, _depth + 1
            )
            if inner:
                out.append(implies(is_some(value), and_(*inner)))
        elif ty.name == "Box":
            pass  # ownership (non-null, allocated) is a separation-logic fact
        else:
            d, mapping = registry.instantiate(ty)
            if d.is_struct:
                for i, f in enumerate(d.struct_fields):
                    fty = registry.subst(f.ty, mapping)
                    out.extend(
                        validity_constraints(
                            fty, tuple_get(value, i), registry, _depth + 1
                        )
                    )
            # enum payload invariants would require per-variant guards;
            # they are (re)imposed at downcast time by the heap.
    return out


def option_some(payload: Term) -> Term:
    return some(payload)

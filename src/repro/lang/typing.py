"""Typing of places, operands and rvalues over a program's registry."""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.mir import (
    AddressOf,
    Aggregate,
    BinaryOp,
    Body,
    Cast,
    Constant,
    Copy,
    DerefProj,
    Discriminant,
    DowncastProj,
    FieldProj,
    IndexProj,
    Move,
    Operand,
    Place,
    Program,
    Ref,
    Rvalue,
    UnaryOp,
    Use,
)
from repro.lang.types import (
    BOOL,
    USIZE,
    AdtTy,
    ArrayTy,
    RawPtrTy,
    RefTy,
    TupleTy,
    Ty,
)


class TypingError(Exception):
    pass


@dataclass(frozen=True)
class PlaceTy:
    """The type of a place, with the enum-variant context (if any)."""

    ty: Ty
    variant: int | None = None


def place_ty(program: Program, body: Body, place: Place) -> PlaceTy:
    cur = PlaceTy(body.local_ty(place.local))
    for elem in place.projections:
        cur = _project(program, cur, elem, place)
    return cur


def _project(program: Program, cur: PlaceTy, elem, place: Place) -> PlaceTy:
    reg = program.registry
    ty = cur.ty
    if isinstance(elem, DerefProj):
        if isinstance(ty, (RawPtrTy, RefTy)):
            return PlaceTy(ty.pointee)
        if isinstance(ty, AdtTy) and ty.name == "Box":
            return PlaceTy(ty.args[0])
        raise TypingError(f"cannot deref {ty} in {place}")
    if isinstance(elem, FieldProj):
        if isinstance(ty, TupleTy):
            return PlaceTy(ty.elems[elem.index])
        if isinstance(ty, AdtTy):
            variant = cur.variant if cur.variant is not None else 0
            d, _ = reg.instantiate(ty)
            if not d.is_struct and cur.variant is None:
                raise TypingError(f"field access on enum {ty} without downcast")
            return PlaceTy(reg.field_ty(ty, variant, elem.index))
        raise TypingError(f"cannot take field of {ty} in {place}")
    if isinstance(elem, DowncastProj):
        if not isinstance(ty, AdtTy):
            raise TypingError(f"downcast of non-ADT {ty}")
        return PlaceTy(ty, variant=elem.variant)
    if isinstance(elem, IndexProj):
        if isinstance(ty, ArrayTy):
            return PlaceTy(ty.elem)
        raise TypingError(f"cannot index {ty}")
    raise TypingError(f"unknown projection {elem}")


def operand_ty(program: Program, body: Body, op: Operand) -> Ty:
    if isinstance(op, (Copy, Move)):
        return place_ty(program, body, op.place).ty
    if isinstance(op, Constant):
        return op.const.ty
    raise TypingError(f"unknown operand {op}")


_COMPARISONS = {"eq", "ne", "lt", "le", "gt", "ge"}


def rvalue_ty(program: Program, body: Body, rv: Rvalue) -> Ty:
    if isinstance(rv, Use):
        return operand_ty(program, body, rv.operand)
    if isinstance(rv, BinaryOp):
        if rv.op in _COMPARISONS:
            return BOOL
        return operand_ty(program, body, rv.lhs)
    if isinstance(rv, UnaryOp):
        return operand_ty(program, body, rv.operand)
    if isinstance(rv, Ref):
        inner = place_ty(program, body, rv.place).ty
        return RefTy(inner, rv.mutable, rv.lifetime)
    if isinstance(rv, AddressOf):
        inner = place_ty(program, body, rv.place).ty
        return RawPtrTy(inner, rv.mutable)
    if isinstance(rv, Aggregate):
        return rv.ty
    if isinstance(rv, Discriminant):
        return USIZE
    if isinstance(rv, Cast):
        return rv.target
    raise TypingError(f"unknown rvalue {rv}")

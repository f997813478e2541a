"""Layout-independent memory addresses (§3.1).

An address is a pair ``(l, pr⃗)`` of an object location and a
*projection* — a sequence of projection elements:

* ``+^T e``   — offset of ``e`` times ``size_of::<T>()`` (symbolic ``e``);
* ``.^T i``   — relative offset of the ``i``-th field of struct ``T``;
* ``.^T·j i`` — relative offset of the ``i``-th field of the ``j``-th
  variant of enum ``T``.

Interpretation is parametric on the compiler-chosen layout: given a
:class:`~repro.lang.layout.LayoutEngine`, each element maps to a
concrete byte offset and a projection to their sum — so reordering
commutes with interpretation (tested property-style in the suite).

At the term level a pointer *value* is a solver term of sort ``Loc``:
either a variable, the null pointer, or a base location wrapped in
projection applications. This module converts between the two views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lang.layout import LayoutEngine
from repro.lang.types import AdtTy, Ty
from repro.solver.sorts import LOC
from repro.solver.terms import App, IntLit, Term, add, intlit, mul


# ---------------------------------------------------------------------------
# Projection elements (meta level)
# ---------------------------------------------------------------------------


class ProjElem:
    __slots__ = ()


@dataclass(frozen=True)
class FieldElem(ProjElem):
    """``.^T i`` — field ``i`` of struct type ``ty``."""

    ty: Ty
    index: int

    def __str__(self) -> str:
        return f".^{{{self.ty}}}{self.index}"


@dataclass(frozen=True)
class VariantFieldElem(ProjElem):
    """``.^T·j i`` — field ``i`` of variant ``j`` of enum type ``ty``."""

    ty: Ty
    variant: int
    index: int

    def __str__(self) -> str:
        return f".^{{{self.ty}}}·{self.variant} {self.index}"


@dataclass(frozen=True)
class OffsetElem(ProjElem):
    """``+^T e`` — ``e`` elements of type ``ty`` (array-like indexing)."""

    ty: Ty
    offset: Term

    def __str__(self) -> str:
        return f"+^{{{self.ty}}}{self.offset}"


@dataclass(frozen=True)
class Address:
    """``(l, pr⃗)`` — base location term plus projection."""

    base: Term  # sort Loc
    projection: tuple[ProjElem, ...] = ()

    def field(self, ty: Ty, index: int) -> "Address":
        return Address(self.base, self.projection + (FieldElem(ty, index),))

    def offset(self, ty: Ty, e: Term) -> "Address":
        return Address(self.base, self.projection + (OffsetElem(ty, e),))

    def __str__(self) -> str:
        return f"({self.base}, [{', '.join(str(p) for p in self.projection)}])"


# ---------------------------------------------------------------------------
# Term-level pointers  <->  addresses
# ---------------------------------------------------------------------------

NULL_PTR = App("ptr.null", (), LOC)


def ptr_field(p: Term, ty: Ty, index: int) -> Term:
    GLOBAL_TYPE_KEYS.register(ty)
    return App(f"ptr.f:{ty.key()}:{index}", (p,), LOC)


def ptr_variant_field(p: Term, ty: Ty, variant: int, index: int) -> Term:
    GLOBAL_TYPE_KEYS.register(ty)
    return App(f"ptr.v:{ty.key()}:{variant}:{index}", (p,), LOC)


def ptr_offset(p: Term, ty: Ty, e: Term) -> Term:
    GLOBAL_TYPE_KEYS.register(ty)
    if isinstance(e, IntLit) and e.value == 0:
        return p
    # Collapse consecutive offsets at the same type.
    if isinstance(p, App) and p.op == f"ptr.o:{ty.key()}":
        return App(p.op, (p.args[0], add(p.args[1], e)), LOC)
    return App(f"ptr.o:{ty.key()}", (p, e), LOC)


@dataclass(frozen=True)
class PtrView:
    """Decoded pointer term: base term + meta-level projection.

    ``ty_of`` maps type keys back to types; decoding needs the types
    that were used when the pointer term was built, so the heap keeps a
    type-key table (see :class:`TypeKeyTable`).
    """

    base: Term
    projection: tuple[ProjElem, ...]


class TypeKeyTable:
    """Bidirectional map between types and the keys used in pointer ops."""

    def __init__(self) -> None:
        self._by_key: dict[str, Ty] = {}

    def register(self, ty: Ty) -> str:
        key = ty.key()
        self._by_key[key] = ty
        return key

    def lookup(self, key: str) -> Ty:
        return self._by_key[key]


#: Process-wide default table. Pointer terms are built in several
#: layers (engine, specs, predicates); sharing one table keeps
#: decoding total without threading it everywhere.
GLOBAL_TYPE_KEYS = TypeKeyTable()


def decode_pointer(p: Term, types: TypeKeyTable) -> PtrView:
    """Peel projection applications off a pointer term."""
    projection: list[ProjElem] = []
    while isinstance(p, App):
        if p.op.startswith("ptr.f:"):
            _, key, idx = p.op.split(":")
            projection.append(FieldElem(types.lookup(key), int(idx)))
            p = p.args[0]
        elif p.op.startswith("ptr.v:"):
            _, key, var, idx = p.op.split(":")
            projection.append(
                VariantFieldElem(types.lookup(key), int(var), int(idx))
            )
            p = p.args[0]
        elif p.op.startswith("ptr.o:"):
            _, key = p.op.split(":", 1)
            projection.append(OffsetElem(types.lookup(key), p.args[1]))
            p = p.args[0]
        else:
            break
    projection.reverse()
    return PtrView(p, tuple(projection))


def encode_address(addr: Address, types: TypeKeyTable) -> Term:
    """Inverse of :func:`decode_pointer`."""
    p = addr.base
    for elem in addr.projection:
        if isinstance(elem, FieldElem):
            types.register(elem.ty)
            p = ptr_field(p, elem.ty, elem.index)
        elif isinstance(elem, VariantFieldElem):
            types.register(elem.ty)
            p = ptr_variant_field(p, elem.ty, elem.variant, elem.index)
        elif isinstance(elem, OffsetElem):
            types.register(elem.ty)
            p = ptr_offset(p, elem.ty, elem.offset)
        else:
            raise TypeError(elem)
    return p


# ---------------------------------------------------------------------------
# Layout interpretation (§3.1: parametric on the compiler's layout)
# ---------------------------------------------------------------------------


def interpret_elem(elem: ProjElem, engine: LayoutEngine) -> Term:
    """Byte offset of one projection element under a concrete layout."""
    if isinstance(elem, FieldElem):
        assert isinstance(elem.ty, AdtTy)
        lo = engine.struct_layout(elem.ty)
        return intlit(lo.field_offset(elem.index))
    if isinstance(elem, VariantFieldElem):
        assert isinstance(elem.ty, AdtTy)
        lo = engine.enum_layout(elem.ty)
        return intlit(lo.variants[elem.variant].field_offset(elem.index))
    if isinstance(elem, OffsetElem):
        return mul(elem.offset, intlit(engine.size_of(elem.ty)))
    raise TypeError(elem)


def interpret_projection(
    projection: tuple[ProjElem, ...], engine: LayoutEngine
) -> Term:
    """Sum of element interpretations — order-independent by construction."""
    total: Term = intlit(0)
    for elem in projection:
        total = add(total, interpret_elem(elem, engine))
    return total

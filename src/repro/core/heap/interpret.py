"""Byte-level interpretation of structural nodes (Fig. 4, §3.1–3.2).

A structural node is layout-agnostic; *interpreting* it under a
concrete :class:`~repro.lang.layout.LayoutEngine` produces the byte
image the compiler would have chosen. Fig. 4 shows the two images of
``struct S { x: u32, y: u64 }`` under largest-first and smallest-first
orderings; the E4 experiment checks that every verified heap admits
every compiler-choosable interpretation, and that interpretation is
position-independent over projections.

Bytes are either concrete integers (0–255), the symbolic marker
``SymByte(value, index)`` (byte ``index`` of a symbolic value — we do
not bit-blast), or ``PAD`` for padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.heap.structural import (
    MISSING,
    UNINIT,
    EnumNode,
    SingleNode,
    StructNode,
    StructuralNode,
)
from repro.lang.layout import LayoutEngine
from repro.lang.types import (
    AdtTy,
    ArrayTy,
    BoolTy,
    CharTy,
    IntTy,
    RawPtrTy,
    RefTy,
    TupleTy,
    Ty,
    UnitTy,
)
from repro.solver.terms import App, BoolLit, IntLit, Term


class _Pad:
    def __repr__(self) -> str:
        return "·"


class _UninitByte:
    def __repr__(self) -> str:
        return "?"


PAD = _Pad()
UNINIT_BYTE = _UninitByte()


@dataclass(frozen=True)
class SymByte:
    """Byte ``index`` of the representation of symbolic ``value``."""

    value: Term
    index: int

    def __repr__(self) -> str:
        return f"{self.value}[{self.index}]"


Byte = Union[int, SymByte, _Pad, _UninitByte]


def interpret_node(node: StructuralNode, engine: LayoutEngine) -> list[Byte]:
    """The byte image of a node under a concrete layout."""
    size = engine.size_of(node.ty)
    image: list[Byte] = [PAD] * size
    _fill(node, engine, image, 0)
    return image


def _fill(node: StructuralNode, engine: LayoutEngine, image: list[Byte], base: int) -> None:
    if isinstance(node, SingleNode):
        _fill_single(node, engine, image, base)
    elif isinstance(node, StructNode):
        assert isinstance(node.ty, AdtTy)
        layout = engine.struct_layout(node.ty)
        for i, child in enumerate(node.children):
            _fill(child, engine, image, base + layout.field_offset(i))
    elif isinstance(node, EnumNode):
        assert isinstance(node.ty, AdtTy)
        layout = engine.enum_layout(node.ty)
        if layout.tag_offset is not None:
            for b in range(layout.tag_size):
                image[base + layout.tag_offset + b] = (
                    node.discriminant >> (8 * b)
                ) & 0xFF
        variant = layout.variants[node.discriminant]
        for i, child in enumerate(node.children):
            _fill(child, engine, image, base + variant.field_offset(i))
        if layout.niche and node.discriminant == 0:
            # The dataless variant is the null bit-pattern.
            for b in range(layout.size):
                image[base + b] = 0
    else:
        raise TypeError(node)


def _fill_single(node: SingleNode, engine: LayoutEngine, image: list[Byte], base: int) -> None:
    size = engine.size_of(node.ty)
    v = node.value
    if v is UNINIT or v is MISSING:
        for b in range(size):
            image[base + b] = UNINIT_BYTE
        return
    assert isinstance(v, Term)
    if isinstance(v, IntLit) and isinstance(node.ty, (IntTy, CharTy)):
        raw = v.value
        if isinstance(node.ty, IntTy) and v.value < 0:
            raw = v.value + (1 << node.ty.bits)
        for b in range(size):
            image[base + b] = (raw >> (8 * b)) & 0xFF  # little-endian
        return
    if isinstance(v, BoolLit):
        image[base] = 1 if v.value else 0  # validity: only 0b0/0b1
        return
    if isinstance(v, App) and v.op == "none" and isinstance(node.ty, AdtTy):
        layout = engine.enum_layout(node.ty)
        if layout.niche:
            for b in range(size):
                image[base + b] = 0
            return
    # Structured symbolic values of ADT type: expand structurally.
    if isinstance(node.ty, AdtTy) and isinstance(v, App) and v.op == "tuple":
        reg = engine.registry
        d, mapping = reg.instantiate(node.ty)
        if d.is_struct and len(v.args) == len(d.struct_fields):
            children = tuple(
                SingleNode(reg.subst(f.ty, mapping), arg)
                for f, arg in zip(d.struct_fields, v.args)
            )
            _fill(StructNode(node.ty, children), engine, image, base)
            return
    # Fully symbolic: one SymByte per byte.
    for b in range(size):
        image[base + b] = SymByte(v, b)


def render_image(image: list[Byte]) -> str:
    """Human-readable byte image (used by the examples)."""
    cells = []
    for b in image:
        if isinstance(b, int):
            cells.append(f"{b:02x}")
        else:
            cells.append(repr(b))
    return " ".join(cells)
